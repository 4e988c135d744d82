"""The Newton state of a root context and its Frobenius permutation.

A context keeps, beside its top lift, the inverses y_i = f'(alpha_i)^-1
mod p^top, so an upward lift resumes the Newton steps without inverting
again; and it computes the Frobenius permutation of its roots once.  The
differential test compares every root a context serves, over a random
increasing sequence of precisions, with a fresh Hensel lift; the
call-count tests pin that no inversion and no Frobenius power is repeated.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from alghull import galois, hull, matrices, padic
from alghull import polynomials as pol

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
        assert (pol.evaluate(fprime, alpha) * y).coeffs == top.ring.one().coeffs
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
    inverse = padic.PadicElement.inverse

    def counting(self):
        calls.append(self.ring.k)
        return inverse(self)

    monkeypatch.setattr(padic.PadicElement, "inverse", counting)
    ctx = padic.root_context(f, prefer=prefer)
    ctx.roots(3)
    assert set(calls) == {1}  # the first lift inverts in the residue field only
    calls.clear()
    for k in (4, 9, 10, 38, 41, 100, 7):
        assert padic.valuation(pol.evaluate(f, ctx.roots(k).roots[0])) >= k
    assert calls == []


def test_frobenius_power_runs_once_per_context_across_a_hull(monkeypatch, cold_contexts):
    perms, powers, checks = [], [], []
    frobenius_perm = padic.frobenius_perm
    power = padic.PadicElement.__pow__
    validate = galois.validate_action

    def counting_perm(roots):
        perms.append(roots.ring.p)
        return frobenius_perm(roots)

    def counting_power(self, e):
        if self.ring.k == 1 and e == self.ring.p:
            powers.append(self)
        return power(self, e)

    def counting_validate(sigma, roots):
        checks.append(sigma)
        return validate(sigma, roots)

    monkeypatch.setattr(padic, "frobenius_perm", counting_perm)
    monkeypatch.setattr(padic.PadicElement, "__pow__", counting_power)
    monkeypatch.setattr(galois, "validate_action", counting_validate)
    f = (-2, 0, 0, 0, 1)  # x^4 - 2: one stage-1 and two stage-2 searches
    res = hull.hull_matrix(matrices.companion(f), route="galois", group_order=8)
    assert res.dim == 2
    assert len(res.witnesses["lambda_basis"]) == 2
    assert len(checks) == 3  # one Frobenius generator checked per search
    assert len(perms) == 1
    assert len(powers) == len(f) - 1  # one residue-field power per root
    ctx = padic.root_context(f, prefer="max")
    assert ctx.frobenius == frobenius_perm(ctx.roots(1))


def test_a_context_gives_the_groups_of_its_roots(cold_contexts):
    for f in [(-2, 0, 0, 1), (1, 0, 0, 0, 1), (1, 3, -3, -4, 1, 1)]:
        ctx = padic.root_context(f, prefer="max")
        roots = ctx.roots(galois.GROUP_PRECISION)
        assert ctx.frobenius == padic.frobenius_perm(roots)
        assert galois.group_of_kind("frobenius", ctx).generators == \
            galois.PermGroup.frobenius(roots).generators
    # x^4 + 1: the kinds that match roots read them at GROUP_PRECISION
    ctx = padic.root_context((1, 0, 0, 0, 1), prefer="max")
    assert galois.group_of_kind("power", ctx, (3, 5, 7)).generators == \
        galois.group_of_kind("power", ctx.roots(galois.GROUP_PRECISION), (3, 5, 7)).generators
    with pytest.raises(ValueError):  # x^3 - 2: roots not closed under negation
        galois.group_of_kind("pairing", padic.root_context((-2, 0, 0, 1), prefer="max"))
