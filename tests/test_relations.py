"""Certified integer relations among roots of integral polynomials.

Soundness/completeness of the zero test is checked by sampling: a random
integer combination vanishes iff it lies in the computed relation
lattice (which is saturated, so rational membership equals integer
membership). Both search routes must agree lattice-wise, and heuristic
mode must match proven mode.
"""

import collections
import functools
import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import corpus
from alghull import galois, hull, lattice, linalg, matrices, padic
from alghull import polynomials as pol
from alghull import relations as rel


def variables(f):
    n = len(f) - 1
    return rel.TargetSet(
        tuple(f), tuple(rel.ExponentPolynomial.variable(i, n) for i in range(n))
    )


# ----------------------------------------------------------------- bounds

def test_complex_root_bound():
    assert rel.complex_root_bound((-2, 0, 1)) == 3
    assert rel.complex_root_bound((1, 1)) == 2
    with pytest.raises(ValueError):
        rel.complex_root_bound((1, 2))  # not monic


def test_embedding_bound():
    g = rel.ExponentPolynomial.power_sum((1, 1), 2)
    assert rel.embedding_bound(g, 3) == 18  # |x1^2| + |x2^2| <= 9 + 9
    g = rel.ExponentPolynomial(((2, (1, 1)),))
    assert rel.embedding_bound(g, 3) == 18  # |2 x1 x2| <= 2 * 9


def test_degree_bound():
    assert rel.degree_bound((-2, 0, 1)) == 2
    assert rel.degree_bound((-2, 0, 0, 0, 1)) == 24
    assert rel.degree_bound((-2, 0, 0, 0, 1), group_order=8) == 8
    with pytest.raises(ValueError):
        rel.degree_bound((-2, 0, 1), group_order=0)
    # Frobenius at the working prime has order f_p, which divides |Gal|
    assert rel.degree_bound((-2, 0, 0, 0, 1), group_order=8, f_p=4) == 8
    with pytest.raises(ValueError, match="f_p"):
        rel.degree_bound((-2, 0, 0, 0, 1), group_order=6, f_p=4)
    # x^5 - 2 at p = 19; the zero target is checked before its answer
    for g in (rel.ExponentPolynomial.variable(0, 5), rel.ExponentPolynomial(())):
        with pytest.raises(ValueError, match="f_p = 2"):
            rel.zero_test(g, (-2, 0, 0, 0, 0, 1), group_order=1)


@pytest.mark.parametrize("route, p, f_p", [("lll", 19, 2), ("galois", 11, 5)])
def test_group_order_frobenius_rules_out_is_rejected(route, p, f_p):
    # x^5 - 2: the true hull of its companion has dimension 4 (|Gal| = 20);
    # group_order=1 once gave dimension 5, labelled "proven"
    entry = next(e for e in corpus.CORPUS if e.label == "x^5-2")
    x = matrices.companion(entry.poly)
    prefer = "min" if route == "lll" else "max"
    sel = padic.root_context(entry.poly, prefer=prefer).selection
    assert (sel.p, sel.f_p) == (p, f_p)
    group = corpus.group_for(entry) if route == "galois" else None
    with pytest.raises(ValueError, match=f"f_p = {f_p}"):
        hull.hull_matrix(x, route=route, group=group, group_order=1)
    assert hull.hull_matrix(x, route=route, group=group,
                            group_order=entry.group_order).dim == 4


QUINTIC = (-1, -1, 0, 0, 0, 1)  # x^5 - x - 1, Galois group S5 of order 120


def test_degree_bound_checks_the_scan_lcm():
    assert rel.degree_bound(QUINTIC, group_order=120, f_p=2, f_p_lcm=30) == 120
    with pytest.raises(ValueError, match="30, the lcm"):
        rel.degree_bound(QUINTIC, group_order=2, f_p=2, f_p_lcm=30)
    with pytest.raises(ValueError, match="f_p = 6"):  # the working prime's check comes first
        rel.degree_bound(QUINTIC, group_order=2, f_p=6, f_p_lcm=30)


@pytest.mark.parametrize("prefer", ["min", "max"])
def test_prime_scan_records_the_lcm_of_the_frobenius_orders(prefer, cold_contexts):
    # f_p = 6 at p = 7 (factor degrees 2, 3) and f irreducible at p = 11
    assert padic.factor_degrees(QUINTIC, 7) == (2, 3)
    assert padic.factor_degrees(QUINTIC, 11) == (5,)
    sel = padic.select_prime(QUINTIC, prefer=prefer)
    assert (sel.p, sel.f_p) == ((67, 2) if prefer == "min" else (7, 6))
    # the scan covers p = 7 and 11, and every f_p divides |S5| = 120
    assert sel.f_p_lcm % 30 == 0 and 120 % sel.f_p_lcm == 0
    # a fixed prime's selection covers that prime alone; the automatic
    # choice of the same prime reaches the same context with its scan
    fixed = padic.root_context(QUINTIC, prime=sel.p)
    assert fixed.selection.f_p_lcm == sel.f_p
    assert padic.root_context(QUINTIC, prefer=prefer) is fixed
    assert fixed.selection.f_p_lcm == sel.f_p_lcm


@pytest.mark.parametrize("route", ["lll", "galois"])
def test_group_order_the_prime_scan_rules_out_is_rejected(route, cold_contexts):
    # group_order=2 once gave Z^5 "proven" on the LLL route: f_p = 2 at its
    # prime p = 67 lets 2 through, the lcm of the scan (a multiple of 30)
    # does not; on the permutation route (p = 7, f_p = 6) it also rejects 6
    ts = variables(QUINTIC)
    if route == "lll":
        search = functools.partial(rel.find_relations_lll, ts)
    else:
        ctx = padic.root_context(QUINTIC, prefer="max")
        search = functools.partial(rel.find_relations_galois, ts,
                                   galois.PermGroup.frobenius(ctx))
    for order in (2, 6, 10, 15):
        with pytest.raises(ValueError, match="f_p|lcm"):
            search(group_order=order)
    with pytest.raises(ValueError, match="the lcm"):
        rel.zero_test(rel.ExponentPolynomial.variable(0, 5), QUINTIC, group_order=2)
    assert search(group_order=120).rows == ((1, 1, 1, 1, 1),)  # the roots sum to 0


@pytest.mark.parametrize("entry", corpus.CORPUS, ids=lambda e: e.label)
def test_scan_lcm_divides_every_corpus_group_order(entry):
    for prefer in ("min", "max"):
        assert entry.group_order % padic.root_context(entry.poly, prefer=prefer) \
            .selection.f_p_lcm == 0, prefer


@pytest.mark.parametrize("entry", corpus.CORPUS, ids=lambda e: e.label)
def test_frobenius_order_divides_every_corpus_group_order(entry):
    # the f_p check never rejects a true group order on the corpus
    for prefer in ("min", "max"):
        f_p = padic.root_context(entry.poly, prefer=prefer).f_p
        assert entry.group_order % f_p == 0, (prefer, f_p)


def test_masser_bound():
    assert rel.masser_bound(2, 3) == 6
    assert rel.masser_bound(3, 2) == 36
    assert rel.masser_bound(1, 100) == 1


def test_proven_precision_strict_inequality():
    assert rel.proven_precision(7, 1, 3, 2) == 2  # 7^2 = 49 > 9
    assert rel.proven_precision(3, 1, 3, 2) == 3  # 3^2 = 9 is not > 9
    for p, f_p, base, r in [(3, 2, 10, 5), (5, 4, 10, 8), (101, 1, 2, 3)]:
        k = rel.proven_precision(p, f_p, base, r)
        assert p ** (k * f_p) > base**r
        assert k == 1 or p ** ((k - 1) * f_p) <= base**r


def _precision_by_powers(p, f_p, base, r):
    """proven_precision as it was: build base^r and step k until p^(k f_p)
    exceeds it."""
    target = max(int(base), 1) ** r
    k = max(1, math.floor(r * math.log(max(base, 2)) / (f_p * math.log(p))) - 2)
    while p ** (k * f_p) <= target:
        k += 1
    while k > 1 and p ** ((k - 1) * f_p) > target:
        k -= 1
    return k


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 17, 31, 67, 101)), st.integers(1, 8),
       st.one_of(st.integers(2, 10**6), st.integers(2, 2**200)),
       st.one_of(st.integers(1, 720), st.sampled_from((5040, 40320))))
def test_proven_precision_matches_building_the_powers(p, f_p, base, r):
    assume(r * base.bit_length() <= 100_000)  # keeps the reference's powers small
    assert rel.proven_precision(p, f_p, base, r) == _precision_by_powers(p, f_p, base, r)


@pytest.mark.parametrize("p, f_p, base, r", [
    (3, 1, 2, 3), (3, 2, 2, 3),  # 2^3 = 3^2 - 1
    (2, 1, 3, 2), (2, 3, 3, 2),  # 3^2 = 2^3 + 1
    (7, 2, -3, 5), (7, 2, 0, 5), (7, 2, 1, 720),  # base^r read as 1
    # base^1 = p^j - 1, p^j, p^j + 1, with f_p | j
    *[(p, f_p, p**j + d, 1) for p in (2, 3, 17) for f_p in (1, 2, 3)
      for j in (6, 12, 60, 600) for d in (-1, 0, 1)],
    # base^r = p^(k f_p) at r = 8!, the degree bound of an octic with no
    # group order, and one below and above it
    *[(p, f_p, p**j + d, 40320) for p, j in ((2, 5), (17, 3)) for f_p in (1, 2)
      for d in (-1, 0, 1)],
])
def test_proven_precision_at_the_boundary(p, f_p, base, r):
    assert rel.proven_precision(p, f_p, base, r) == _precision_by_powers(p, f_p, base, r)


# -------------------------------------------------------------- zero test

def test_exponent_polynomial_validation():
    with pytest.raises(ValueError):
        rel.ExponentPolynomial(((1, (1, 0)), (1, (0, 1, 0))))
    with pytest.raises(ValueError):
        rel.ExponentPolynomial(((1, (-1, 0)),))
    assert rel.ExponentPolynomial(((0, (0, 0)),)).is_zero_poly()
    assert rel.ExponentPolynomial.variable(1, 3).terms == ((1, (0, 1, 0)),)


def test_target_set_validation():
    with pytest.raises(ValueError):
        rel.TargetSet((2, 3), ())  # not monic, no targets
    with pytest.raises(ValueError):
        rel.TargetSet((-2, 0, 1), (rel.ExponentPolynomial.variable(0, 3),))


def test_is_zero_examples():
    f = (-2, 0, 1)
    root_sum = rel.ExponentPolynomial.power_sum((1, 1), 1)
    assert rel.is_zero(root_sum, f)
    assert not rel.is_zero(rel.ExponentPolynomial.power_sum((1, 1), 1), (-1, -1, 1))
    # x1 * x2 + 2 = 0 for x^2 - 2
    g = rel.ExponentPolynomial(((1, (1, 1)), (2, (0, 0))))
    assert rel.is_zero(g, f)
    assert rel.is_zero(rel.ExponentPolynomial(((0, (0, 0)),)), f)


def test_zero_test_heuristic_needs_k():
    g = rel.ExponentPolynomial.power_sum((1, 1), 1)
    with pytest.raises(ValueError):
        rel.zero_test(g, (-2, 0, 1), mode="heuristic")
    ans, bounds = rel.zero_test(g, (-2, 0, 1), mode="heuristic", k=3)
    assert ans is True
    assert bounds.k <= 3


def test_zero_test_fixed_prime_validation():
    g = rel.ExponentPolynomial.power_sum((1, 1), 1)
    with pytest.raises(ValueError):
        rel.is_zero(g, (-2, 0, 1), prime=2)  # x^2 - 2 is not squarefree mod 2
    assert rel.is_zero(g, (-2, 0, 1), prime=11)


# ----------------------------------------------------------- both routes

def in_lattice(rows, e):
    """Q-span membership; equals Z-membership since the basis is saturated."""
    if not rows:
        return all(x == 0 for x in e)
    return linalg.in_rowspace([list(r) for r in rows], list(e))


def test_find_relations_lll_quadratics():
    basis = rel.find_relations_lll(variables((-2, 0, 1)))
    assert basis.certification == "proven"
    assert lattice.hnf(basis.rows) == ((1, 1),)
    golden = rel.find_relations_lll(variables((-1, -1, 1)))
    assert golden.rows == ()


def test_find_relations_reports_bounds():
    basis = rel.find_relations_lll(variables((-2, 0, 1)), group_order=2)
    b = basis.bounds
    assert b.M_prime == 3 and b.M == 3 and b.r == 2
    assert b.N == rel.masser_bound(2, 3) == 6
    assert b.p ** b.k > b.N


def test_routes_agree_on_corpus():
    # both routes at the same prime, so the root labeling coincides and
    # the relation lattices are literally comparable
    for entry in corpus.CORPUS:
        ts = variables(entry.poly)
        p = corpus.prime_for(entry)
        a = rel.find_relations_lll(ts, prime=p, group_order=entry.group_order)
        b = rel.find_relations_galois(
            ts, corpus.group_for(entry), prime=p, group_order=entry.group_order
        )
        assert lattice.hnf(a.rows) == lattice.hnf(b.rows), entry.label
        assert a.certification == b.certification == "proven"


def test_the_permutation_route_takes_no_group():
    # no group and the trivial group give one RelationBasis, with the
    # relation caches emptied between the two searches; a group keeps its
    # degree check
    for entry in corpus.CORPUS:
        ts = variables(entry.poly)
        for mode in ("proven", "heuristic"):
            rel.clear_caches()
            bare = rel.find_relations_galois(ts, mode=mode, group_order=entry.group_order)
            rel.clear_caches()
            trivial = rel.find_relations_galois(ts, galois.PermGroup(len(entry.poly) - 1, []),
                                                mode=mode, group_order=entry.group_order)
            assert bare == trivial and bare is not trivial, (entry.label, mode)
    with pytest.raises(ValueError, match="group degree must equal deg f"):
        rel.find_relations_galois(variables((-2, 0, 1)), galois.PermGroup(3, []))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
def test_routes_agree_under_the_frobenius_group(coeffs):
    # at the permutation route's prime, its Frobenius group alone gives
    # the LLL route's lattice
    f = tuple(coeffs) + (1,)
    assume(pol.degree(pol.squarefree_part(f)) == len(coeffs))
    ctx = padic.root_context(f, prefer="max")
    frob = galois.PermGroup.frobenius(ctx)
    ts = variables(f)
    a = rel.find_relations_lll(ts, prime=ctx.p)
    b = rel.find_relations_galois(ts, frob, prime=ctx.p)
    assert lattice.hnf(a.rows) == lattice.hnf(b.rows), f


def test_a_search_runs_no_zero_test(monkeypatch):
    # each row's certificate is read off the ladder (e in L_k and k at
    # least the zero test's precision), so no search calls zero_test;
    # every row returned passes it
    calls = []
    real = rel.zero_test
    monkeypatch.setattr(rel, "zero_test", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    results = []
    for entry in corpus.CORPUS:
        ts = variables(entry.poly)
        p = corpus.prime_for(entry)
        for mode in ("proven", "heuristic"):
            results.append((entry, ts, rel.find_relations_lll(
                ts, mode=mode, prime=p, group_order=entry.group_order)))
            results.append((entry, ts, rel.find_relations_galois(
                ts, corpus.group_for(entry), mode=mode, prime=p,
                group_order=entry.group_order)))
    assert calls == []
    monkeypatch.undo()
    for entry, ts, res in results:
        for e in res.rows:
            assert rel.is_zero(corpus.combination(ts, e), ts.f, prime=res.bounds.p,
                               group_order=entry.group_order), (entry.label, e)


def test_each_search_prices_each_bound_once(monkeypatch):
    # a ladder calls proven_precision once per distinct base, where it
    # once ran for every kept row on every rung (24 calls
    # over 7 distinct arguments on this hull).  Stage 2 runs its ladders in
    # lockstep, so each call is counted for the ladder that is climbing.
    searches, current = [], []
    climb, precision = rel._climb, rel.proven_precision

    def counting_climb(*args):
        calls = collections.Counter()
        searches.append(calls)
        ladder = climb(*args)
        while True:
            current[:] = [calls]
            try:
                state = next(ladder)
            except StopIteration:
                return
            yield state

    def counting_precision(*args):
        current[0][args] += 1
        return precision(*args)

    monkeypatch.setattr(rel, "_climb", counting_climb)
    monkeypatch.setattr(rel, "proven_precision", counting_precision)
    for route in ("lll", "galois"):
        searches.clear()
        hull.hull_matrix(matrices.companion((-1, -1, 0, 0, 0, 1)), route=route)
        assert len(searches) == 2  # stage 1, and stage 2's one ladder
        assert all(calls and set(calls.values()) == {1} for calls in searches)


def test_the_row_check_catches_a_rung_that_keeps_a_non_relation(monkeypatch):
    # with a rung that keeps every unit vector, each row would pass the
    # precision bound k_e <= k alone; the check against B raises
    monkeypatch.setattr(rel, "_rung", lambda basis, *args: basis)
    with pytest.raises(RuntimeError, match="not a relation"):
        rel.find_relations_lll(variables((-2, 0, 1)))


def test_a_group_larger_than_the_galois_group_loses_no_relation():
    # x^4 - 10x^2 + 1 has roots +-sqrt2 +-sqrt3 and Galois group V4; with a
    # caller's S4 the permutation route once returned ((1, 1, 1, 1),)
    # "proven", missing the relations a_i + a_j = 0
    f = (1, 0, -10, 0, 1)
    s4 = galois.PermGroup.from_images(4, [[2, 3, 4, 1], [2, 1, 3, 4]])
    res = rel.find_relations_galois(variables(f), s4)
    assert res.certification == "proven"
    assert lattice.hnf(res.rows) == ((1, 0, 0, 1), (0, 1, 1, 0))
    ctx = padic.root_context(f, prefer="max")
    assert lattice.hnf(res.rows) == lattice.hnf(
        rel.find_relations_lll(variables(f), prime=ctx.p).rows)


def test_soundness_and_completeness_sampling():
    rng = random.Random(61)
    for entry in corpus.CORPUS[:9]:  # the quadratics and quartics
        ts = variables(entry.poly)
        basis = rel.find_relations_lll(ts, group_order=entry.group_order)
        # every basis row really is a relation
        for e in basis.rows:
            assert rel.is_zero(corpus.combination(ts, e), ts.f,
                               group_order=entry.group_order)
        # sampled vectors vanish iff they lie in the lattice
        n = len(entry.poly) - 1
        for _ in range(25):
            e = tuple(rng.randint(-10, 10) for _ in range(n))
            expected = in_lattice(basis.rows, e)
            got = rel.is_zero(corpus.combination(ts, e), ts.f,
                              group_order=entry.group_order)
            assert got == expected, (entry.label, e)


def test_heuristic_matches_proven():
    # the LLL route runs the one proven search in both modes
    for entry in corpus.CORPUS[:9]:
        ts = variables(entry.poly)
        proven = rel.find_relations_lll(ts, group_order=entry.group_order)
        heur = rel.find_relations_lll(ts, mode="heuristic",
                                      group_order=entry.group_order)
        assert (heur.rows, heur.certification, heur.bounds, heur.verification_k) == (
            proven.rows, "proven", proven.bounds, None), entry.label


def test_heuristic_galois_route():
    # the permutation route also runs the one proven search in both modes
    entry = corpus.CORPUS[3]  # x^4 - 2
    ts = variables(entry.poly)
    p = corpus.prime_for(entry)
    proven = rel.find_relations_galois(ts, corpus.group_for(entry), prime=p,
                                       group_order=entry.group_order)
    heur = rel.find_relations_galois(ts, corpus.group_for(entry),
                                     mode="heuristic", prime=p,
                                     group_order=entry.group_order)
    lll = rel.find_relations_lll(ts, prime=p, group_order=entry.group_order)
    assert lattice.hnf(lll.rows) == lattice.hnf(heur.rows)
    assert (heur.rows, heur.certification, heur.bounds, heur.verification_k) == (
        proven.rows, "proven", proven.bounds, None)


def test_galois_route_stability_under_seed():
    entry = corpus.CORPUS[4]  # x^4 + 1
    ts = variables(entry.poly)
    results = [
        rel.find_relations_galois(ts, corpus.group_for(entry),
                                  group_order=entry.group_order, seed=s)
        for s in (0, 1, 2)
    ]
    hnfs = {lattice.hnf(r.rows) for r in results}
    assert len(hnfs) == 1


def test_group_degree_mismatch_rejected():
    from alghull import galois
    ts = variables((-2, 0, 1))
    with pytest.raises(ValueError):
        rel.find_relations_galois(ts, galois.PermGroup(3, []))


def test_frobenius_only_group_is_enough():
    """For x^4 - 2 at p = 5 the 4th roots of unity live in Z_p, so a
    spurious p-adic relation is invariant under the whole decomposition
    group; rational reconstruction could not tell it apart.  The ladder
    prunes it by length, so the Frobenius group alone gives the LLL
    route's lattice at the same prime."""
    from alghull import galois, padic
    f = (-2, 0, 0, 0, 1)
    ctx = padic.root_context(f, prime=5)
    assert ctx.f_p == 4
    frob = rel.find_relations_galois(variables(f), galois.PermGroup.frobenius(ctx),
                                     prime=5, group_order=8)
    lll = rel.find_relations_lll(variables(f), prime=5, group_order=8)
    assert frob.rank == 2
    assert lattice.hnf(frob.rows) == lattice.hnf(lll.rows)


def test_unknown_mode_rejected_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("picked a prime for an unknown mode")

    monkeypatch.setattr(rel.padic, "root_context", no_work)
    ts = variables((-2, 0, 1))
    zero = rel.ExponentPolynomial(())
    calls = (
        lambda: rel.zero_test(zero, (-2, 0, 1), mode="bogus"),
        lambda: rel.find_relations_lll(ts, mode="bogus"),
        lambda: rel.find_relations_galois(
            ts, rel.galois_mod.PermGroup(2, [(1, 0)]), mode="bogus"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown mode"):
            call()
