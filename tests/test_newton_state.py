"""The Newton state of a root context and its Frobenius permutation.

A context keeps, beside its top lift, the inverses y_i = f'(alpha_i)^-1
mod p^top and the lifted root tau of omega that gives Frobenius, so an
upward lift resumes the Newton steps without inverting again; and its
first lift computes the Frobenius permutation of its roots, once.  The
lift runs Newton on one root per Frobenius orbit and maps it to the
others.  One differential test compares every root a context serves,
over a random increasing sequence of precisions, with a fresh Hensel
lift; another compares the roots and inverses of fresh, resumed and
restarted lifts with Newton run from each residue on its own (the loop
the orbit lift replaced).  The call-count tests pin that no residue-field
inversion (gf.gf_inverse) and no Frobenius power is repeated, and a
corrupted tau must fail the lift's root check.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from alghull import galois, gf, hull, matrices, padic
from alghull import polynomials as pol

import corpus

PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.integers(2, 6).flatmap(
           lambda n: st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
       st.sampled_from(PRIMES),
       st.lists(st.integers(1, 12), min_size=1, max_size=6),
       st.integers(0, 1))
def test_context_lifts_match_fresh_lifts(coeffs, p, steps, seed):
    f = tuple(coeffs) + (1,)
    assume(pol.degree(pol.squarefree_part(f)) == len(coeffs))
    assume(padic.is_admissible(f, p))
    padic._root_context.cache_clear()
    ctx = padic.root_context(f, prime=p, seed=seed)
    k = 0
    for step in steps:
        k += step
        got = ctx.roots(k)
        fresh = padic.lift_roots(f, padic.build_unramified(p, ctx.f_p, k, seed=seed), seed=seed)
        assert got.ring == fresh.ring
        assert [r.coeffs for r in got.roots] == [r.coeffs for r in fresh.roots], (f, p, k)
    top = ctx.roots(k)
    m = top.ring.modulus
    fprime = pol.derivative(f)
    for alpha, y in zip(top.roots, top.inverses):
        y = top.ring.element((y,) if top.ring.degree == 1 else y)
        assert corpus.horner(fprime, alpha) * y == top.ring.from_int(1)
        assert all(0 <= c < m for c in y.coeffs)
    padic._root_context.cache_clear()


def test_increase_precision_resumes_from_recorded_inverses():
    f = (1, 0, -10, 0, 1)
    low = padic.lift_roots(f, padic.build_unramified(7, 2, 5))
    resumed = padic.increase_precision(low, 40, low.inverses)
    fresh = padic.increase_precision(low, 40)
    assert resumed == fresh == padic.lift_roots(f, padic.build_unramified(7, 2, 40))
    assert resumed.inverses == fresh.inverses


@pytest.mark.parametrize("f, prefer, inversions", [
    ((-2, 0, 0, 0, 1), "max", 2),  # f_p = 4, one orbit: tuple arithmetic
    ((-1, -1, 0, 0, 0, 1), "min", 4),  # f_p = 2, orbits of sizes 1, 2, 2
    ((-2, 0, 1), "min", 2),  # f_p = 1, two fixed roots: plain integers
])
def test_upward_lifts_after_the_first_invert_nothing(monkeypatch, cold_contexts, f, prefer,
                                                     inversions):
    calls = []
    inverse = gf.gf_inverse

    def counting(a, modulus, p):
        calls.append(p)
        return inverse(a, modulus, p)

    residue_roots = padic.residue_roots

    def marking(*args, **kwargs):  # the inversions of the root search end here
        roots = residue_roots(*args, **kwargs)
        calls.clear()
        return roots

    monkeypatch.setattr(gf, "gf_inverse", counting)
    monkeypatch.setattr(padic, "residue_roots", marking)
    ctx = padic.root_context(f, prefer=prefer)
    ctx.roots(3)
    # the first lift inverts in the residue field f'(alpha) once per
    # Frobenius orbit, and omega'(tau) once when f_p > 1
    assert calls == [ctx.p] * inversions
    calls.clear()
    for k in (4, 9, 10, 38, 41, 100, 7):
        assert padic.valuation(corpus.horner(f, ctx.roots(k).roots[0])) >= k
    assert calls == []


def test_frobenius_power_runs_once_per_context_across_a_hull(monkeypatch, cold_contexts):
    # the context's first lift computes the Frobenius permutation, one
    # residue-field power per root, and nothing after it powers a root:
    # the permutation route only shape-checks its group (no validate_action)
    perms, powers, checks, residues, inside = [], [], [], [], []
    frobenius_perm = padic.frobenius_perm
    power = gf.power
    validate = galois.validate_action

    def counting_perm(roots):
        perms.append(roots.ring.p)
        inside.append(roots)
        try:
            return frobenius_perm(roots)
        finally:
            inside.pop()

    def counting_power(base, e, mul):
        if inside or base in residues:  # a residue-field power of a root
            powers.append(base)
        return power(base, e, mul)

    def counting_validate(sigma, roots):
        checks.append(sigma)
        return validate(sigma, roots)

    f = (-2, 0, 0, 0, 1)  # x^4 - 2: one stage-1 and two stage-2 searches
    x = matrices.companion(f)
    ctx = padic.root_context(f, prefer="max")
    monkeypatch.setattr(padic, "frobenius_perm", counting_perm)
    monkeypatch.setattr(gf, "power", counting_power)
    monkeypatch.setattr(galois, "validate_action", counting_validate)
    residues.extend(r.residue() for r in ctx.roots(1).roots)  # the first lift
    assert len(perms) == 1
    assert sorted(powers) == sorted(residues)  # one residue-field power per root
    perms.clear()
    powers.clear()
    res = hull.hull_matrix(x, route="galois", group_order=8)
    assert res.dim == 2
    assert len(res.witnesses["lambda_basis"]) == 2
    res = hull.hull_matrix(x, route="galois", group=galois.PermGroup.frobenius(ctx),
                           group_order=8)
    assert res.dim == 2
    assert checks == [] and perms == [] and powers == []
    assert ctx.frobenius == frobenius_perm(ctx.roots(1))


def test_a_context_gives_the_groups_of_its_roots(cold_contexts):
    for f in [(-2, 0, 0, 1), (1, 0, 0, 0, 1), (1, 3, -3, -4, 1, 1)]:
        ctx = padic.root_context(f, prefer="max")
        assert ctx.frobenius == padic.frobenius_perm(ctx.roots(8))
        assert galois.PermGroup.frobenius(ctx).generators == (ctx.frobenius,)


# ------------------------------------------------------------ the orbit lift

def _per_root_lift(roots, k):
    """The oracle: Newton from each root's residue on its own (the loop the
    orbit lift replaced), as (coefficient tuples, flat inverses) mod p^k."""
    f, ring = roots.poly, roots.ring
    fprime = tuple(i * f[i] for i in range(1, len(f)))
    omega, p, flat = ring.omega, ring.p, ring.degree == 1
    moduli, prec = [], 1
    while prec < k:
        prec = min(2 * prec, k)
        moduli.append(p**prec)
    coeffs, inverses = [], []
    for r in roots.roots:
        a = r.residue()
        y = padic._inverse(padic._horner(fprime, a, omega, p), omega, p)
        a, y = padic._newton(f, fprime, a[0] if flat else a, y[0] if flat else y, moduli, omega)
        coeffs.append((a,) if flat else a)
        inverses.append(y)
    return coeffs, tuple(inverses)


def _orbit_sizes(sigma):
    sizes, seen = [], set()
    for i in range(len(sigma)):
        size = 0
        while i not in seen:
            seen.add(i)
            i = sigma[i]
            size += 1
        if size:
            sizes.append(size)
    return tuple(sorted(sizes))


def test_orbit_lift_matches_per_root_newton(cold_contexts):
    # seeded random monic f with f_p > 1; every context is lifted fresh,
    # then resumed twice, then restarted from the residues
    rng = random.Random(24)
    shapes, contexts = set(), 0
    for p in (2, 3, 5, 7, 11, 13):
        found = 0
        while found < 20:
            n = rng.randint(2, 6)
            f = tuple(rng.randint(-3 * p, 3 * p) for _ in range(n)) + (1,)
            if not padic.is_admissible(f, p) or max(padic.factor_degrees(f, p)) == 1:
                continue
            found += 1
            ctx = padic.root_context(f, prime=p, seed=found % 2)
            ks = sorted(rng.sample(range(1, 60), 3))
            for k in ks:  # fresh, then resumed
                got = ctx.roots(k)
                assert ([r.coeffs for r in got.roots], got.inverses) == _per_root_lift(got, k)
            restarted = padic.increase_precision(ctx.roots(ks[0]), ks[-1] + 3)
            want = _per_root_lift(restarted, ks[-1] + 3)
            assert ([r.coeffs for r in restarted.roots], restarted.inverses) == want
            # the permutation by element powers, apart from frobenius_perm
            residues = [r.residue() for r in ctx.roots(1).roots]
            assert ctx.frobenius == tuple(residues.index((r ** p).residue())
                                          for r in ctx.roots(1).roots)
            shapes.add(_orbit_sizes(ctx.frobenius))
            contexts += 1
    assert contexts == 120
    assert any(len(set(s)) > 1 for s in shapes)  # mixed orbit sizes
    assert any(max(s) > 2 for s in shapes)


@pytest.mark.parametrize("corruption", ["not a root of omega", "another root of omega"])
def test_a_corrupted_tau_fails_the_lift_check(monkeypatch, corruption):
    f, ring = (-2, 0, 0, 0, 1), padic.build_unramified(5, 4, 9)  # one orbit of 4 roots
    newton = padic._newton
    omega_roots = [r.coeffs for r in padic.lift_roots(ring.omega, ring).roots]

    def corrupting(g, gprime, alpha, y, moduli, omega):
        alpha, y = newton(g, gprime, alpha, y, moduli, omega)
        if g == omega:  # the lift of tau
            if corruption == "not a root of omega":
                alpha = ((alpha[0] + 5) % 5**9,) + alpha[1:]
            else:  # a Frobenius power other than sigma: roots under wrong labels
                alpha = next(r for r in omega_roots if r != alpha)
        return alpha, y

    good = padic.lift_roots(f, ring)
    monkeypatch.setattr(padic, "_newton", corrupting)
    with pytest.raises(padic.PadicError, match="not a root"):
        padic.lift_roots(f, ring)
    with pytest.raises(padic.PadicError, match="not a root"):
        padic.increase_precision(good, 9)  # restarted from the residues
