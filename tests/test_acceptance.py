"""Acceptance criteria, one test per criterion.

Run with `pytest -v`: each criterion reports exactly one pass/fail line
(the test outcome). The shared corpus lives in corpus.py; expected hull
dimensions there were derived by hand from the eigenvalue relation
structure before being pinned.
"""

import json
import math
import random
import time
from fractions import Fraction

import sympy
from click.testing import CliRunner

import corpus
from alghull import galois, hull, lattice, linalg, matrices, padic
from alghull import polynomials as pol
from alghull import relations as rel
from alghull.cli import main as cli_main
from test_lattice import _random_basis, _shortest_norm_sq


def variables(f):
    n = len(f) - 1
    return rel.TargetSet(
        tuple(f), tuple(rel.ExponentPolynomial.variable(i, n) for i in range(n))
    )


def upsilon_hnf(res):
    rows = [tuple(Fraction(g) for g in row)
            for row in res.witnesses["upsilon_basis"]]
    return lattice.hnf([list(r) for r in lattice.saturate(rows)]) if rows else ()


def test_criterion_01_even_quartic_hulls_both_routes():
    """Hulls of x^4-2, x^4+1, x^4-x^2+2 equal span{X, X^3} via both
    relation routes, proven mode, each instance well under 30 s."""
    instances = ["x^4-2", "x^4+1", "x^4-x^2+2"]
    expected_coeffs = lattice.hnf([[0, 1, 0, 0], [0, 0, 0, 1]])
    for label in instances:
        entry = next(e for e in corpus.CORPUS if e.label == label)
        x = matrices.companion(entry.poly)
        x3 = matrices.mat_mul(matrices.mat_mul(x, x), x)
        expected_span = matrices.span_of([x, x3])
        for route, group in (("lll", None), ("galois", corpus.group_for(entry))):
            t0 = time.time()
            res = hull.hull_matrix(x, route=route, group=group,
                                   group_order=entry.group_order)
            elapsed = time.time() - t0
            assert res.certification == "proven", (label, route)
            assert res.span == expected_span, (label, route)
            assert upsilon_hnf(res) == expected_coeffs, (label, route)
            assert elapsed < 30, (label, route, elapsed)


QUARTICS_SMALL_GROUP = (
    # irreducible quartics with Galois group C4, V4 or the dihedral
    # group of order 8 (never S4 or A4, so the closed form applies)
    (1, 1, 1, 1, 1),      # C4 (5th cyclotomic)
    (1, 0, 0, 0, 1),      # V4 (8th cyclotomic)
    (-2, 0, 0, 0, 1),     # dihedral
    (2, 0, 0, 0, 1),      # dihedral
    (3, 0, 0, 0, 1),      # dihedral
    (1, 0, -10, 0, 1),    # V4 (sqrt2 + sqrt3)
    (2, 0, 4, 0, 1),      # C4
    (2, 0, -4, 0, 1),     # C4
    (5, 0, 5, 0, 1),      # C4
    (5, 0, -5, 0, 1),     # C4
    (2, 0, 1, 0, 1),      # dihedral
    (2, 0, -1, 0, 1),     # dihedral
)


def test_criterion_02_closed_form_deg4_cross_validation():
    """closed_form_deg4 equals hull_semisimple as Q-spans on 12
    irreducible quartics with group in {C4, V4, D8}."""
    assert len(QUARTICS_SMALL_GROUP) >= 10
    xsym = sympy.symbols("x")
    for f in QUARTICS_SMALL_GROUP:
        poly = sympy.Poly(sum(sympy.Integer(c) * xsym**i for i, c in enumerate(f)),
                          xsym)
        assert poly.is_irreducible, f
        x = matrices.companion(f)
        oracle = hull.closed_form_deg4(f, assert_group=True).materialize(x)
        computed = hull.hull_semisimple(x, group_order=8)
        assert computed.span == oracle, f


TRACE_ZERO_QUINTICS = (
    ((-2, 0, 0, 0, 0, 1), 20),
    ((-3, 0, 0, 0, 0, 1), 20),
    ((-5, 0, 0, 0, 0, 1), 20),
    ((-1, -1, 0, 0, 0, 1), None),  # x^5 - x - 1, full symmetric group
)


def test_criterion_03_trace_criterion_quintics():
    """Trace-zero irreducible quintics: hull is the trace-zero part of
    the power span (dim 4); nonzero trace gives the full span (dim 5)."""
    seen = 0
    for f, order in TRACE_ZERO_QUINTICS:
        x = matrices.companion(f)
        assert matrices.trace(x) == 0
        res = hull.hull_matrix(x, group_order=order)
        assert res.dim == 4, f
        tz = galois.trace_zero_subspace(matrices.power_basis(x))
        assert res.span == tz, f
        seen += 1
    # a rational (non-integral) trace-zero instance: the cyclic quintic
    # companion translated so its trace vanishes
    c5 = matrices.companion((1, 3, -3, -4, 1, 1))
    y = matrices.mat_add(c5, matrices.mat_scale(matrices.identity(5),
                                                Fraction(1, 5)))
    assert matrices.trace(y) == 0
    res = hull.hull_matrix(y, group_order=5)
    assert res.dim == 4
    assert res.span == galois.trace_zero_subspace(matrices.power_basis(y))
    seen += 1
    assert seen >= 5
    # nonzero trace: full power span, dimension 5
    res = hull.hull_matrix(c5, group_order=5)
    assert res.dim == 5 and res.span == matrices.power_basis(c5)
    shifted = matrices.mat_add(matrices.companion((-2, 0, 0, 0, 0, 1)),
                               matrices.identity(5))
    res = hull.hull_matrix(shifted, group_order=20)
    assert res.dim == 5 and res.span == matrices.power_basis(shifted)


def test_criterion_04_zero_test_soundness_completeness():
    """Proven is_zero accepts every computed relation row and rejects
    1000 random out-of-lattice vectors per quadratic/quartic instance."""
    rng = random.Random(71)
    for entry in corpus.CORPUS[:9]:
        ts = variables(entry.poly)
        basis = rel.find_relations_lll(ts, group_order=entry.group_order)
        rows = [list(r) for r in basis.rows]
        for e in basis.rows:
            assert rel.is_zero(corpus.combination(ts, e), ts.f,
                               group_order=entry.group_order), (entry.label, e)
        # random integer combinations of basis rows must also be accepted
        for _ in range(20):
            if not rows:
                break
            coeffs = [rng.randint(-3, 3) for _ in rows]
            e = tuple(sum(c * r[j] for c, r in zip(coeffs, rows))
                      for j in range(len(rows[0])))
            if any(e):
                assert rel.is_zero(corpus.combination(ts, e), ts.f,
                                   group_order=entry.group_order), (entry.label, e)
        n = len(entry.poly) - 1
        rejected = 0
        while rejected < 1000:
            e = tuple(rng.randint(-10, 10) for _ in range(n))
            if not any(e):
                continue
            if rows and linalg.in_rowspace(rows, list(e)):
                continue
            assert not rel.is_zero(corpus.combination(ts, e), ts.f,
                                   group_order=entry.group_order), (entry.label, e)
            rejected += 1


def test_criterion_05_route_agreement_full_corpus():
    """Both relation routes produce HNF-identical lattices on the whole
    corpus (degree <= 8, group order <= 48), compared at a shared prime
    so the root labelings coincide."""
    for entry in corpus.CORPUS:
        assert len(entry.poly) - 1 <= 8 and entry.group_order <= 48
        ts = variables(entry.poly)
        p = corpus.prime_for(entry)
        a = rel.find_relations_lll(ts, prime=p, group_order=entry.group_order)
        b = rel.find_relations_galois(ts, corpus.group_for(entry), prime=p,
                                      group_order=entry.group_order)
        assert lattice.hnf(a.rows) == lattice.hnf(b.rows), entry.label


def test_criterion_06_lll_property_suite():
    """500 random lattices (dim <= 8): size-reduction, Lovasz and
    HNF-preservation; small dimensions against the enumeration oracle."""
    rng = random.Random(73)
    for i in range(500):
        r = rng.randint(1, 8)
        n = rng.randint(r, 8)
        hi = 10**6 if i % 10 == 0 else 10**3
        rows = _random_basis(rng, r, n, -hi, hi)
        red = lattice.lll_reduce(rows)
        assert lattice.is_lll_reduced(red)
        assert lattice.hnf(red) == lattice.hnf(rows)
    # ||b_1||^2 <= 2^(r-1) lambda_1^2 with lambda_1 from enumeration
    for _ in range(40):
        r = rng.randint(1, 3)
        n = rng.randint(r, 5)
        rows = _random_basis(rng, r, n, -9, 9)
        red = lattice.lll_reduce(rows)
        b1 = sum(x * x for x in red[0])
        assert b1 <= 2 ** (r - 1) * _shortest_norm_sq(rows)


def test_criterion_07_rational_reconstruction_roundtrips():
    """1000 random roundtrips per modulus class; out-of-bound inputs
    fail cleanly."""
    rng = random.Random(79)
    for m, p in ((7**9, 7), (5**11, 5), (101**4, 101)):
        bound = math.isqrt(m // 2)
        done = 0
        while done < 1000:
            u = rng.randint(-bound, bound)
            v = rng.randint(1, bound)
            if v % p == 0:
                continue
            g = math.gcd(abs(u), v)
            if g > 1:
                u, v = u // g, v // g
            a = (u * pow(v, -1, m)) % m
            assert lattice.rational_reconstruction(a, m) == Fraction(u, v)
            done += 1
        for bad in (-1, m, m + 5):
            try:
                lattice.rational_reconstruction(bad, m)
            except ValueError:
                continue
            raise AssertionError(f"input {bad} mod {m} should be rejected")
    # a residue with no bounded representative returns None, not garbage
    assert lattice.rational_reconstruction(5, 49) is None


def test_criterion_08_hensel_residuals_and_precision():
    """f(root) = 0 mod p^k for k in {1, 5, 20, proven-k} on every corpus
    polynomial, and precision increase refines the same roots."""
    for entry in corpus.CORPUS:
        f = tuple(entry.poly)
        m_prime = rel.complex_root_bound(f)
        for prefer in ("min", "max"):
            sel = padic.select_prime(f, prefer=prefer)
            k_proven = rel.proven_precision(sel.p, sel.f_p, m_prime,
                                            entry.group_order)
            for k in (1, 5, 20, k_proven):
                roots = padic.lift_roots(f, padic.build_unramified(sel.p, sel.f_p, k))
                assert len(roots.roots) == len(f) - 1
                for r in roots.roots:
                    assert padic.valuation(corpus.horner(f, r)) >= k, \
                        (entry.label, sel.p, k)
            low = padic.lift_roots(f, padic.build_unramified(sel.p, sel.f_p, 5))
            high = padic.increase_precision(low, 20)
            fresh = padic.lift_roots(f, padic.build_unramified(sel.p, sel.f_p, 20))
            assert [r.coeffs for r in high.roots] == [r.coeffs for r in fresh.roots]


def _random_rational_matrix(rng, n):
    return matrices.as_matrix(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
         for _ in range(n)]
    )


def _engineered_non_semisimple(rng, n):
    """Conjugate of a matrix with repeated eigenvalues and a nilpotent
    tail by a small unimodular integer matrix."""
    base = [[Fraction(0)] * n for _ in range(n)]
    eig = rng.randint(-3, 3)
    for i in range(n):
        base[i][i] = Fraction(eig if i < (n + 1) // 2 else rng.randint(-3, 3))
        if i + 1 < n and rng.random() < 0.7:
            base[i][i + 1] = Fraction(1)
    u = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    um = matrices.as_matrix(u)
    return matrices.mat_mul(matrices.mat_mul(um, matrices.as_matrix(base)),
                            matrices.mat_inverse(um))


def test_criterion_09_jordan_postconditions_1000():
    """1000 random rational matrices (dim <= 6): X = S + N, SN = NS,
    N nilpotent, S semisimple, exactly."""
    rng = random.Random(83)
    for i in range(1000):
        n = rng.randint(1, 6)
        if i % 4 == 0:
            x = _engineered_non_semisimple(rng, n)
        else:
            x = _random_rational_matrix(rng, n)
        s, nil = matrices.jordan_decomposition(x)
        assert matrices.mat_add(s, nil) == x
        assert matrices.mat_mul(s, nil) == matrices.mat_mul(nil, s)
        power = nil
        for _ in range(n):
            power = matrices.mat_mul(power, nil)
        assert matrices.is_zero_matrix(power)
        mp = matrices.min_poly(s)
        assert pol.degree(pol.squarefree_part(mp)) == pol.degree(mp)


def test_criterion_10_hull_invariant_suite():
    """X-membership, power-span containment, idempotence, the trace
    invariant and the dimension formula on every corpus instance."""
    for entry in corpus.CORPUS:
        x = matrices.companion(entry.poly)
        res = hull.hull_matrix(x, group_order=entry.group_order)
        assert res.dim == entry.expected_dim, entry.label
        assert res.span.contains(x), entry.label
        powers = matrices.power_basis(x)
        assert all(powers.contains(b) for b in res.span.basis), entry.label
        again = hull.hull_lie_algebra(list(res.span.basis),
                                      group_order=entry.group_order)
        assert again.span == res.span, entry.label
        cp = matrices.char_poly(x)
        squarefree = pol.degree(pol.squarefree_part(cp)) == pol.degree(cp)
        if squarefree and matrices.trace(x) == 0:
            assert all(matrices.trace(b) == 0 for b in res.span.basis), entry.label
        # dimension formula: dim = (t+1) - rank of the rational
        # constraint system collected over a basis of the relation lattice
        t = pol.degree(matrices.min_poly(x)) - 1
        lam = res.witnesses["lambda_basis"]
        annihilators = []
        for e in lam:
            targets2 = rel.TargetSet(
                tuple(entry.poly),
                tuple(rel.ExponentPolynomial.power_sum(e, i) for i in range(t + 1)),
            )
            me = rel.find_relations_lll(targets2, group_order=entry.group_order)
            rows = [tuple(Fraction(v) for v in row) for row in me.rows]
            annihilators.extend(
                linalg.right_kernel(rows if rows else [(0,) * (t + 1)])
            )
        constraint_rank = linalg.rank(annihilators) if annihilators else 0
        assert res.dim == (t + 1) - constraint_rank, entry.label


def test_criterion_11_heuristic_equals_proven():
    """Heuristic mode returns the same hull as proven mode on the full
    corpus; on the LLL route it runs the proven search itself."""
    for entry in corpus.CORPUS:
        x = matrices.companion(entry.poly)
        proven = hull.hull_matrix(x, group_order=entry.group_order)
        heur = hull.hull_matrix(x, mode="heuristic",
                                group_order=entry.group_order)
        assert heur.span == proven.span, entry.label
        assert heur.certification == "proven", entry.label


def test_criterion_12_bench_corpus_and_trend(tmp_path):
    """cmd_bench finishes the corpus in under 10 minutes, emits
    well-formed CSV, and shows cost growing with group order."""
    entries = [{"label": e.label, "poly": list(e.poly),
                "group_order": e.group_order, "expected_dim": e.expected_dim}
               for e in corpus.CORPUS]
    src = tmp_path / "corpus.json"
    src.write_text(json.dumps(entries))
    plot = tmp_path / "plot.dat"
    t0 = time.time()
    result = CliRunner().invoke(cli_main, ["bench", str(src),
                                           "--plot-data", str(plot)],
                                catch_exceptions=False)
    elapsed = time.time() - t0
    assert result.exit_code == 0
    assert elapsed < 600, elapsed
    lines = result.output.strip().splitlines()
    assert lines[0] == "label,route,mode,p,f_p,k,seconds,dim,ok"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * len(corpus.CORPUS)
    assert all(r[8] == "yes" for r in rows), [r for r in rows if r[8] != "yes"]
    # qualitative trend: larger Galois groups cost more (the certified
    # precision grows with the degree bound)
    by_label = {e.label: e.group_order for e in corpus.CORPUS}
    small = [float(r[6]) for r in rows if by_label[r[0]] <= 4]
    large = [float(r[6]) for r in rows if by_label[r[0]] >= 8]
    assert small and large
    assert sum(large) / len(large) > sum(small) / len(small)
    plot_lines = plot.read_text().strip().splitlines()
    assert plot_lines[0].startswith("#")
    assert len(plot_lines) == 1 + 2 * len(corpus.CORPUS)
