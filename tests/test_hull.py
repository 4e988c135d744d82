"""Algebraic hulls: worked examples, structural invariants, and the
closed-form quartic/sextic oracles (checked against an independent
recomputation of their case invariants).
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import corpus
import trace_criterion
from alghull import galois, hull, lattice, matrices
from alghull import polynomials as pol
from alghull import relations as rel


def companion(poly):
    return matrices.companion(poly)


# --------------------------------------------------------------- examples

def test_hull_identity_matrix():
    res = hull.hull_matrix(matrices.identity(3))
    assert res.dim == 1
    assert res.span.contains(matrices.identity(3))


def test_hull_zero_matrix():
    res = hull.hull_matrix(matrices.zero(2))
    assert res.dim == 0


def test_hull_nilpotent_matrix():
    e12 = matrices.as_matrix([[0, 1], [0, 0]])
    res = hull.hull_matrix(e12)
    assert res.dim == 1 and res.span.contains(e12)


def test_hull_non_semisimple_matrix():
    x = matrices.as_matrix([[1, 1], [0, 1]])
    res = hull.hull_matrix(x)
    # hull(S) + span{N} = span{I} + span{E12}
    assert res.dim == 2
    assert res.span.contains(matrices.identity(2))
    assert res.span.contains(matrices.as_matrix([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        hull.hull_semisimple(x)


def test_hull_rational_eigenvalues():
    # eigenvalues 1 and 2 satisfy the relation 2*1 - 1*2 = 0, which cuts
    # the power span down to the line through X itself
    x = companion((2, -3, 1))  # (x-1)(x-2)
    res = hull.hull_matrix(x)
    assert res.dim == 1 and res.span.contains(x)
    assert res.witnesses["lambda_basis"] == ((2, -1),) or \
        res.witnesses["lambda_basis"] == ((-2, 1),)
    # a repeated eigenvalue changes nothing: the minimal polynomial rules
    x = matrices.as_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    res = hull.hull_matrix(x)
    assert res.dim == 1 and res.span.contains(x)


def test_hull_sqrt2():
    res = hull.hull_matrix(companion((-2, 0, 1)))
    assert res.dim == 1
    assert res.span.contains(companion((-2, 0, 1)))
    assert res.witnesses["lambda_basis"] == ((1, 1),)


def test_hull_scaling_invariance():
    x = companion((-2, 0, 0, 0, 1))
    third = matrices.mat_scale(x, Fraction(1, 3))
    a = hull.hull_matrix(x)
    b = hull.hull_matrix(third)
    assert a.span == b.span
    # the integral scaling must undo the denominator 3 of the eigenvalues
    assert b.witnesses["scaling"] % 3 == 0


def test_hull_quartic_radical():
    x = companion((-2, 0, 0, 0, 1))
    res = hull.hull_matrix(x, group_order=8)
    x3 = matrices.mat_mul(matrices.mat_mul(x, x), x)
    expected = matrices.span_of([x, x3])
    assert res.span == expected
    assert res.certification == "proven"
    assert res.witnesses["f_p"] >= 1 and res.witnesses["precision"] >= 1


def test_hull_lie_algebra_sl2():
    e = matrices.as_matrix([[0, 1], [0, 0]])
    f = matrices.as_matrix([[0, 0], [1, 0]])
    res = hull.hull_lie_algebra([e, f])
    assert res.dim == 3
    assert res.witnesses["hulls_computed"] >= 1


def test_hull_lie_algebra_needs_generators():
    with pytest.raises(ValueError):
        hull.hull_lie_algebra([])


def test_hull_lie_algebra_rejects_a_group_before_any_work(monkeypatch):
    # One permutation group cannot serve the basis elements' different
    # minimal polynomials; with one generator the degrees even match, and
    # the group used to be taken silently.
    def no_work(*args, **kwargs):
        raise AssertionError("hull_matrix ran")

    monkeypatch.setattr(hull, "hull_matrix", no_work)
    group = galois.PermGroup(2, [(1, 0)])
    for gens in ([[[0, 2], [1, 0]], [[1, 0], [0, 1]]], [[[0, 2], [1, 0]]]):
        with pytest.raises(ValueError, match="takes no group"):
            hull.hull_lie_algebra(gens, route="galois", group=group)


@pytest.mark.parametrize("x", [
    [[0, 2], [1, 0]],  # semisimple: the squarefree part is mp itself
    [[1, 1], [0, 1]],  # unipotent: S = I
    [[2, 1, 0], [0, 2, 0], [0, 0, 3]],  # S and N both nonzero
], ids=["semisimple", "unipotent", "mixed"])
def test_hull_matrix_takes_one_squarefree_part(monkeypatch, x):
    calls = []
    squarefree_part = pol.squarefree_part

    def counting(f):
        calls.append(f)
        return squarefree_part(f)

    monkeypatch.setattr(pol, "squarefree_part", counting)
    res = hull.hull_matrix(x)
    assert len(calls) == 1
    assert res.span.contains(matrices.as_matrix(x))


def test_hull_semisimple_rejects_a_non_semisimple_matrix_before_any_search(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("relation search ran")

    monkeypatch.setattr(hull.rel, "find_relations_lll", no_work)
    monkeypatch.setattr(hull.rel, "find_relations_galois", no_work)
    monkeypatch.setattr(hull.rel.padic, "root_context", no_work)
    for x in ([[1, 1], [0, 1]], [[2, 1, 0], [0, 2, 0], [0, 0, 3]]):
        for route in ("lll", "galois"):
            with pytest.raises(ValueError, match="^matrix is not semisimple; use "
                                                 "hull_matrix for the general case$"):
                hull.hull_semisimple(x, route=route)


def test_is_algebraic():
    e = matrices.as_matrix([[0, 1], [0, 0]])
    f = matrices.as_matrix([[0, 0], [1, 0]])
    assert hull.is_algebraic([e, f])  # sl2 is algebraic
    # a single non-nilpotent non-semisimple matrix spans a 1-dim algebra
    # whose hull is 2-dimensional
    assert not hull.is_algebraic([matrices.as_matrix([[1, 1], [0, 1]])])


def test_unknown_route_rejected():
    with pytest.raises(ValueError):
        hull.hull_matrix(matrices.identity(2), route="nonsense")


@pytest.mark.parametrize("options", [{"route": "nonsense"}, {"mode": "bogus"},
                                     {"route": "nonsense", "mode": "bogus"}])
def test_unknown_options_rejected_before_any_work(options):
    # a nilpotent X and zero generators never reach the relation search
    with pytest.raises(ValueError, match="unknown"):
        hull.hull_matrix([[0, 1], [0, 0]], **options)
    with pytest.raises(ValueError, match="unknown"):
        hull.hull_lie_algebra([[[0, 0], [0, 0]]], **options)
    with pytest.raises(ValueError, match="unknown"):
        hull.hull_semisimple([[0, 2], [1, 0]], **options)


@pytest.mark.parametrize("x", [[[0, 1], [0, 0]], [[0, 0], [0, 0]], [[0, 2], [1, 0]]],
                         ids=["nilpotent", "zero", "semisimple"])
@pytest.mark.parametrize("option", [{"bogus": 1}, {"delta": Fraction(3, 4)}])
def test_unknown_keywords_rejected_on_every_path(x, option):
    # nilpotent and zero inputs never reach the relation search, so only
    # the signatures can reject a stray keyword there
    calls = [lambda: hull.hull_matrix(x, **option),
             lambda: hull.hull_lie_algebra([x], **option),
             lambda: hull.is_algebraic([x], **option),
             lambda: hull.hull_semisimple(x, **option)]
    for call in calls:
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()


@pytest.mark.parametrize("label", ["x^6-2", "x^6+x^3+1"])
def test_hull_sextic_without_group_order(label):
    # with no group order the degree bound is 6! = 720, and the ladder's
    # ceiling is k = 4260 at p = 31 for x^6-2 (4374 for x^6+x^3+1); the
    # stage-1 search stops at the first rung where every kept row is
    # certified, far below it
    ceiling = {"x^6-2": 4260, "x^6+x^3+1": 4374}[label]
    entry = next(e for e in corpus.CORPUS if e.label == label)
    x = companion(entry.poly)
    res = hull.hull_matrix(x)
    assert res.certification == "proven"
    assert res.witnesses["precision"] < ceiling
    assert res.dim == entry.expected_dim
    assert res.span == hull.hull_matrix(x, group_order=entry.group_order).span


# ------------------------------------------------------------- invariants

def test_hull_invariants_on_small_corpus():
    for entry in corpus.CORPUS[:6]:
        x = companion(entry.poly)
        res = hull.hull_matrix(x, group_order=entry.group_order)
        # X belongs to its own hull
        assert res.span.contains(x), entry.label
        # the hull lives inside the power span (associative algebra of X)
        powers = matrices.power_basis(x)
        assert all(powers.contains(b) for b in res.span.basis), entry.label
        # idempotence: the hull of the hull is the hull
        again = hull.hull_lie_algebra(list(res.span.basis),
                                      group_order=entry.group_order)
        assert again.span == res.span, entry.label


def test_galois_route_matches_lll_route():
    for entry in corpus.CORPUS[:6]:
        x = companion(entry.poly)
        a = hull.hull_matrix(x, group_order=entry.group_order)
        b = hull.hull_matrix(x, route="galois", group=corpus.group_for(entry),
                             group_order=entry.group_order)
        assert a.span == b.span, entry.label


# ------------------------------------------------- stage 2's early stop

def _corpus_calls(entry):
    """The hull_matrix options of the corpus batch: both routes, with the
    entry's group order; the permutation route at its own prime, with the
    Frobenius group."""
    yield {"route": "lll", "group_order": entry.group_order}
    yield {"route": "galois", "group_order": entry.group_order,
           "group": corpus.group_for(entry), "prime": corpus.prime_for(entry)}


def _without_stage2(res):
    witnesses = {k: v for k, v in res.witnesses.items() if k != "stage2"}
    return res.span, res.certification, witnesses


def _without_the_certificate(x, **options):
    """The hull with the rank certificate read as 0: every stage-2 ladder
    then climbs until it is done, as each per-relation search did.  The
    relation caches are emptied before, so the hull is searched again, and
    after, so no later call is served this answer."""
    rel.clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "rank_lower_bound", lambda *args: 0)
            return hull.hull_matrix(x, **options)
    finally:
        rel.clear_caches()


def test_the_early_stop_changes_no_corpus_hull():
    for entry in corpus.CORPUS:
        x = companion(entry.poly)
        for options in _corpus_calls(entry):
            res = hull.hull_matrix(x, **options)
            assert _without_stage2(res) == _without_stage2(
                _without_the_certificate(x, **options)), (entry.label, options["route"])


@st.composite
def squarefree_polys(draw, max_deg=5):
    """Monic squarefree integer polynomials of degree 1..max_deg with
    coefficients in [-4, 4], constant term first."""
    deg = draw(st.integers(1, max_deg))
    f = tuple(draw(st.lists(st.integers(-4, 4), min_size=deg, max_size=deg))) + (1,)
    assume(pol.degree(pol.squarefree_part(tuple(Fraction(c) for c in f))) == deg)
    return f


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(squarefree_polys(), st.sampled_from(["lll", "galois"]))
def test_the_early_stop_changes_no_hull_without_a_group_order(f, route):
    x = companion(f)
    res = hull.hull_matrix(x, route=route)
    assert _without_stage2(res) == _without_stage2(_without_the_certificate(x, route=route))


def test_stage2_climbs_one_rung_per_relation_on_the_corpus(monkeypatch):
    # every corpus hull with relations stops at stage 2's first rung: one
    # _rung per row of Lambda, no saturation and no LLL of the result
    rungs, stages = [], []
    rung, stage2 = rel._rung, rel._power_sum_relations

    def counting_stage2(f, lam_rows, *args, **kwargs):
        before = len(rungs)
        out = stage2(f, lam_rows, *args, **kwargs)
        stages.append((len(lam_rows), len(rungs) - before))
        return out

    monkeypatch.setattr(rel, "_rung", lambda *args: rungs.append(args) or rung(*args))
    monkeypatch.setattr(rel, "_power_sum_relations", counting_stage2)
    monkeypatch.setattr(rel, "_finalize", lambda rows, finalize=rel._finalize: (
        stages.append("finalize") or finalize(rows)))
    for entry in corpus.CORPUS:
        for options in _corpus_calls(entry):
            stages.clear()
            rel.clear_caches()  # a hull at the same context would be a cache hit
            res = hull.hull_matrix(companion(entry.poly), **options)
            rho = len(res.witnesses["lambda_basis"])
            if rho:
                assert stages == ["finalize", (rho, rho)], (entry.label, options["route"])
                assert res.witnesses["stage2"]["rank_bound"] == len(entry.poly) - 1 - res.dim
            else:
                assert stages == ["finalize"] and "stage2" not in res.witnesses


# ---------------------------------------------------- Lie hull differential
#
# The reference is the earlier fixpoint: close the generators' span under
# brackets, add the hull of every basis element of the closure, close again,
# and stop when the dimension no longer grows.  Its bracket closure brackets
# every pair of the basis in every round.


def _all_pairs_closure(span):
    current = span
    while True:
        basis = current.basis
        nxt = matrices.span_of(
            list(basis) + [matrices.lie_bracket(basis[i], basis[j])
                           for i in range(len(basis))
                           for j in range(i + 1, len(basis))],
            n=current.n)
        if nxt.dim == current.dim:
            return current
        current = nxt


def _ref_hull_lie_algebra(gens):
    current = _all_pairs_closure(matrices.span_of(gens))
    cache = {}
    certification = "proven"
    while True:
        total = current
        for y in current.basis:
            if y not in cache:
                res = hull.hull_matrix(y)
                if res.certification != "proven":
                    certification = res.certification
                cache[y] = res.span
            total = matrices.span_sum(total, cache[y])
        nxt = _all_pairs_closure(total)
        if nxt.dim == current.dim:
            return current, certification
        current = nxt


@st.composite
def generator_pairs(draw):
    """Two 2x2 or 3x3 matrices with entries in [-3, 3]: general, both upper
    triangular, or a diagonal one and a strictly upper triangular one."""
    n = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("general", "upper", "diagonal+nilpotent")))
    pair = []
    for k in range(2):
        m = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=n, max_size=n))
        for i in range(n):
            for j in range(n):
                if (kind == "upper" and j < i
                        or kind == "diagonal+nilpotent" and (j != i if k == 0 else j <= i)):
                    m[i][j] = 0
        pair.append(matrices.as_matrix(m))
    return pair


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(generator_pairs())
def test_hull_lie_algebra_matches_fixpoint(gens):
    hull_calls, closures = [], []
    real_hull, real_closure = hull.hull_matrix, matrices.bracket_closure

    def counted_hull(*args, **kwargs):
        hull_calls.append(args[0])
        return real_hull(*args, **kwargs)

    def recorded_closure(span):
        closed = real_closure(span)
        closures.append((span, closed))
        return closed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull, "hull_matrix", counted_hull)
        mp.setattr(matrices, "bracket_closure", recorded_closure)
        res = hull.hull_lie_algebra(gens)
    want, certification = _ref_hull_lie_algebra(gens)
    assert res.span == want
    assert res.certification == certification
    # one hull per basis element of the generators' span, nothing more
    assert len(hull_calls) == matrices.span_of(gens).dim == res.witnesses["hulls_computed"]
    # bracketing only the new pairs keeps the basis of all-pairs rounds
    assert [closed for _, closed in closures] == [res.span]
    for span, closed in closures:
        assert closed.basis == _all_pairs_closure(span).basis
    closed = matrices.bracket_closure(matrices.span_of(gens))
    assert closed.basis == _all_pairs_closure(matrices.span_of(gens)).basis
    assert hull.is_algebraic(gens) == (closed.dim == res.dim)


# ---------------------------------------------------------------- oracles

def test_closed_form_deg4_cases():
    # a = 0, D != 0: trace-zero part
    oh = hull.closed_form_deg4((Fraction(-1), Fraction(-1), Fraction(0),
                                Fraction(0), Fraction(1)), assert_group=True)
    assert oh.kind == "trace-zero"
    # a = 0, D = 0 (even quartic): span{X, X^3}
    oh = hull.closed_form_deg4((-2, 0, 0, 0, 1), assert_group=True)
    assert oh.kind == "span" and oh.gammas == ((0, 1, 0, 0), (0, 0, 0, 1))
    # a != 0, D != 0: full power span
    oh = hull.closed_form_deg4((1, 1, 1, 1, 1), assert_group=True)
    assert oh.kind == "full"
    # a != 0, D = 0: pick b, c with a^3 - 4ab + 8c = 0, e.g. a=2, b=4, c=3
    f = [Fraction(c) for c in (1, 3, 4, 2, 1)]
    x = sympy.symbols("x")
    if sympy.Poly(sum(sympy.Rational(int(c)) * x**i for i, c in enumerate(f)),
                  x).is_irreducible:
        oh = hull.closed_form_deg4(f, assert_group=True)
        assert oh.kind == "span" and len(oh.gammas) == 3
        assert oh.gammas[2][3] == Fraction(4, 6)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-2, 2))
def test_closed_form_deg4_matches_the_hull_of_shifted_even_quartics(b, d, c):
    # f = x^4 + b x^2 + d is even, so its Galois group lies in D4 (never S4
    # or A4), and so does that of g(x) = f(x + c); g has a = 4c and
    # a^3 - 4ab + 8c = 0, the two D = 0 cases of the closed form
    g = (c**4 + b * c**2 + d, 4 * c**3 + 2 * b * c, 6 * c**2 + b, 4 * c, 1)
    assume(galois._is_irreducible_over_q(g))
    x = companion(g)
    oracle = hull.closed_form_deg4(g, assert_group=True).materialize(x)
    assert hull.hull_semisimple(x, group_order=8).span == oracle, g


def test_closed_form_requires_assertion_and_irreducibility():
    with pytest.raises(ValueError):
        hull.closed_form_deg4((-2, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        hull.closed_form_deg4((0, 0, 0, 0, 1), assert_group=True)  # x^4
    with pytest.raises(ValueError):
        hull.closed_form_deg6((-2, 0, 0, 0, 1), assert_group=True)  # wrong degree


def test_sextic_invariants_against_independent_formula():
    # r1 = (27c + 5a^3 - 18ab) / 27, r2 = (81e - a^5 + 3 a^3 b - 27 a d) / 81
    rng = random.Random(67)
    for _ in range(100):
        a, b, c, d, e, g = (rng.randint(-9, 9) for _ in range(6))
        f = (g, e, d, c, b, a, 1)
        r1, r2 = hull.sextic_invariants(f)
        assert r1 == Fraction(27 * c + 5 * a**3 - 18 * a * b, 27)
        assert r2 == Fraction(81 * e - a**5 + 3 * a**3 * b - 27 * a * d, 81)


def test_closed_form_deg6_cases():
    # x^6 - 2: a = 0 and r1 = r2 = 0 -> the explicit span formula
    oh = hull.closed_form_deg6((-2, 0, 0, 0, 0, 0, 1), assert_group=True)
    assert oh.kind == "span" and len(oh.gammas) == 4
    # a = 0, invariants nonzero: trace-zero part
    oh = hull.closed_form_deg6((1, 0, 0, 1, 0, 0, 1), assert_group=True)
    assert oh.kind == "trace-zero"
    # a != 0, invariants nonzero: full power span
    oh = hull.closed_form_deg6((3, 1, 0, 0, 0, 1, 1), assert_group=True)
    assert oh.kind in ("full", "span")


def test_oracle_materialize():
    x = companion((-2, 0, 0, 0, 1))
    oh = hull.closed_form_deg4((-2, 0, 0, 0, 1), assert_group=True)
    span = oh.materialize(x)
    x3 = matrices.mat_mul(matrices.mat_mul(x, x), x)
    assert span == matrices.span_of([x, x3])
    full = hull.OracleHull("full").materialize(x)
    assert full.dim == 4
    tz = hull.OracleHull("trace-zero").materialize(x)
    assert tz.dim == 3


def test_fast_path_agrees_with_relation_hull():
    for poly, group_order, two_transitive in (
        ((-2, 0, 0, 0, 0, 1), 20, False),  # x^5 - 2: prime degree, trace zero
        ((-1, -1, 1), 2, False),  # x^2 - x - 1: prime degree, nonzero trace
        ((2, 1, 0, 0, 1), 24, True),  # x^4 + x + 2: Galois group S4
    ):
        x = companion(poly)
        fast = trace_criterion.trace_criterion_hull(x, two_transitive=two_transitive)
        slow = hull.hull_matrix(x, group_order=group_order)
        assert fast is not None and fast == slow.span, poly
