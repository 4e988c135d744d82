"""Permutation groups acting on labeled p-adic roots, the orbit-length
check, the trace-zero subspace, and the trace-criterion oracle of
the tests.
"""

import pytest

import trace_criterion
from alghull import galois, matrices, padic
from alghull import relations as rel

F_QUAD = (-2, 0, 1)
F_QUARTIC_RAD = (-2, 0, 0, 0, 1)  # x^4 - 2
F_CUBIC = (-2, 0, 0, 1)  # x^3 - 2


def test_perm_utilities():
    a, b = (1, 2, 0), (0, 2, 1)
    assert galois.compose(a, b) == (1, 0, 2)
    assert galois.perm_inverse(a) == (2, 0, 1)
    assert galois.compose(a, galois.perm_inverse(a)) == (0, 1, 2)


def test_perm_group_order_and_membership():
    g = galois.PermGroup(3, [(1, 2, 0)])
    assert g.order == 3
    assert (2, 0, 1) in g
    assert (1, 0, 2) not in g
    assert galois.PermGroup(4, []).order == 1
    with pytest.raises(ValueError):
        galois.PermGroup(3, [(0, 0, 1)])


def test_frobenius_group():
    g = galois.PermGroup.frobenius(padic.root_context(F_QUAD, prime=3))
    assert g.order == 2
    assert g.generators[0] == (1, 0)


def test_subset_growth():
    g = galois.PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    s = galois.initial_subset(4)
    assert len(s.perms) == 1
    sizes = []
    for _ in range(6):
        s = galois.grow_subset(s, g)
        sizes.append(len(s.perms))
    # growth is by ceil(0.2 * #S) = 1 while the group still has elements
    assert sizes == [2, 3, 4, 4, 4, 4]


def test_subset_growth_exhausts_trivial_group():
    s = galois.grow_subset(galois.initial_subset(3), galois.PermGroup(3, []))
    assert s.perms == [(0, 1, 2)]


def _roots_as_targets(f):
    n = len(f) - 1
    return rel.TargetSet(f, tuple(rel.ExponentPolynomial.variable(i, n) for i in range(n)))


def test_validate_action():
    # validate_action checks that Frobenius orbit lengths are preserved; it
    # is not a test of Galois membership.  x^3 - 2 mod 5 = (x - 3)(deg-2
    # factor), and its Galois group is S3.
    assert padic.factor_degrees(F_CUBIC, 5) == (1, 2)
    ctx = padic.root_context(F_CUBIC, prime=5)
    frob = padic.frobenius_perm(ctx.roots(8))
    assert galois.validate_action(frob, ctx)
    fixed = next(i for i in range(3) if frob[i] == i)
    moved = next(i for i in range(3) if frob[i] != i)
    swap = list(range(3))
    swap[fixed], swap[moved] = moved, fixed
    # the swap moves the rational root into the 2-orbit, so it fails the
    # check, yet it is an element of S3, the Galois group
    assert not galois.validate_action(tuple(swap), ctx)
    targets = _roots_as_targets(F_CUBIC)
    got = rel.find_relations_galois(targets, galois.PermGroup(3, [swap, frob]), prime=5)
    assert got.rows == rel.find_relations_lll(targets, prime=5).rows == ((1, 1, 1),)


def test_a_genuine_galois_group_is_not_rejected():
    # x^4 + 8x + 12 has Galois group A4, normal in S4: the double
    # transpositions are Galois elements under any labelling of the roots.
    # At its prime of largest residue degree (p = 5, factor degrees 1, 3)
    # each moves the root Frobenius fixes, so each fails the orbit-length
    # check, and the route accepts them.
    f = (12, 8, 0, 0, 1)
    ctx = padic.root_context(f, prefer="max")
    assert (ctx.p, ctx.selection.degrees) == (5, (1, 3))
    group = galois.PermGroup.from_images(4, [[2, 1, 4, 3], [3, 4, 1, 2]])
    assert not any(galois.validate_action(g, ctx) for g in group.generators)
    targets = _roots_as_targets(f)
    got = rel.find_relations_galois(targets, group)
    assert got.rows == rel.find_relations_lll(targets).rows == ((1, 1, 1, 1),)


def test_trace_zero_subspace():
    basis = matrices.power_basis(matrices.companion(F_QUARTIC_RAD))
    traces = [matrices.trace(m) for m in basis.basis]
    assert traces == [4, 0, 0, 0]
    tz = galois.trace_zero_subspace(basis)
    assert tz.dim == 3
    assert all(matrices.trace(m) == 0 for m in tz.basis)


def test_fast_path_hull():
    oracle = trace_criterion.trace_criterion_hull
    # prime degree, irreducible, trace zero: the trace-zero power span
    x = matrices.companion((-1, -1, 0, 0, 0, 1))  # x^5 - x - 1
    span = oracle(x)
    assert span is not None and span.dim == 4
    assert all(matrices.trace(m) == 0 for m in span.basis)
    assert span == galois.trace_zero_subspace(matrices.power_basis(x))
    # prime degree, nonzero trace: the full power span
    x = matrices.companion((-1, -1, 1))
    span = oracle(x)
    assert span is not None and span.dim == 2
    # reducible characteristic polynomial: the criterion does not apply
    assert oracle(matrices.identity(2)) is None
    # non-prime degree needs the 2-transitivity assertion
    x4 = matrices.companion((2, 1, 0, 0, 1))  # x^4 + x + 2, irreducible
    assert oracle(x4) is None
    marked = oracle(x4, two_transitive=True)
    # trace is zero (no cubic term), so the asserted criterion gives the
    # trace-zero part of the four-dimensional power span
    assert marked is not None and marked.dim == 3
