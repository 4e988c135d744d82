"""The Newton state of a root context and its Frobenius permutation.

A context keeps, beside its top lift, the inverses y_i = f'(alpha_i)^-1
mod p^top, so an upward lift resumes the Newton steps without inverting
again; and it computes the Frobenius permutation of its roots once.  The
differential test compares every root a context serves, over a random
increasing sequence of precisions, with a fresh Hensel lift; the
call-count tests pin that no residue-field inversion (gf.gf_inverse) and
no Frobenius power is repeated.
"""

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


@pytest.mark.parametrize("f, prefer", [
    ((-2, 0, 0, 0, 1), "max"),  # f_p = 4: tuple arithmetic
    ((-1, -1, 0, 0, 0, 1), "min"),  # f_p = 2
    ((-2, 0, 1), "min"),  # f_p = 1: plain integers
])
def test_upward_lifts_after_the_first_invert_nothing(monkeypatch, cold_contexts, f, prefer):
    calls = []
    inverse = gf.gf_inverse

    def counting(a, modulus, p):
        calls.append(p)
        return inverse(a, modulus, p)

    monkeypatch.setattr(gf, "gf_inverse", counting)
    ctx = padic.root_context(f, prefer=prefer)
    ctx.roots(3)
    # the first lift inverts f'(alpha) in the residue field, once per root
    assert len(calls) >= len(f) - 1 and set(calls) == {ctx.p}
    calls.clear()
    for k in (4, 9, 10, 38, 41, 100, 7):
        assert padic.valuation(corpus.horner(f, ctx.roots(k).roots[0])) >= k
    assert calls == []


def test_frobenius_power_runs_once_per_context_across_a_hull(monkeypatch, cold_contexts):
    # the permutation route only shape-checks its group: no validate_action
    perms, powers, checks, residues = [], [], [], []
    frobenius_perm = padic.frobenius_perm
    power = gf.power
    validate = galois.validate_action

    def counting_perm(roots):
        perms.append(roots.ring.p)
        return frobenius_perm(roots)

    def counting_power(base, e, mul):
        if base in residues:  # a residue-field power of a root
            powers.append(base)
        return power(base, e, mul)

    def counting_validate(sigma, roots):
        checks.append(sigma)
        return validate(sigma, roots)

    f = (-2, 0, 0, 0, 1)  # x^4 - 2: one stage-1 and two stage-2 searches
    x = matrices.companion(f)
    ctx = padic.root_context(f, prefer="max")
    residues.extend(r.residue() for r in ctx.roots(1).roots)
    monkeypatch.setattr(padic, "frobenius_perm", counting_perm)
    monkeypatch.setattr(gf, "power", counting_power)
    monkeypatch.setattr(galois, "validate_action", counting_validate)
    # with no group there is no Frobenius to compute
    res = hull.hull_matrix(x, route="galois", group_order=8)
    assert res.dim == 2
    assert len(res.witnesses["lambda_basis"]) == 2
    assert checks == [] and perms == [] and powers == []
    res = hull.hull_matrix(x, route="galois", group=galois.PermGroup.frobenius(ctx),
                           group_order=8)
    assert res.dim == 2
    assert checks == []
    assert len(perms) == 1  # PermGroup.frobenius, once
    assert len(powers) == len(f) - 1  # one residue-field power per root
    assert ctx.frobenius == frobenius_perm(ctx.roots(1))


def test_a_context_gives_the_groups_of_its_roots(cold_contexts):
    for f in [(-2, 0, 0, 1), (1, 0, 0, 0, 1), (1, 3, -3, -4, 1, 1)]:
        ctx = padic.root_context(f, prefer="max")
        assert ctx.frobenius == padic.frobenius_perm(ctx.roots(8))
        assert galois.PermGroup.frobenius(ctx).generators == (ctx.frobenius,)
