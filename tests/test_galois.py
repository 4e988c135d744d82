"""Permutation groups acting on labeled p-adic roots, the action
validator, the group constructors, the trace-zero subspace, and the
trace-criterion oracle of the tests.
"""

import pytest

import trace_criterion
from alghull import galois, matrices, padic

F_QUAD = (-2, 0, 1)
F_QUARTIC_RAD = (-2, 0, 0, 0, 1)  # x^4 - 2
F_QUARTIC_CYC = (1, 0, 0, 0, 1)  # x^8/... roots are primitive 8th roots
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
    roots = padic.cached_roots(F_QUAD, 3, 2, 8, 0)
    g = galois.PermGroup.frobenius(roots)
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


def test_validate_action():
    # mixed factor degrees: x^3 - 2 mod 5 = (x - 3)(deg-2 factor)
    assert padic.factor_degrees(F_CUBIC, 5) == (1, 2)
    roots = padic.cached_roots(F_CUBIC, 5, 2, 8, 0)
    frob = padic.frobenius_perm(roots)
    assert galois.validate_action(frob, roots)
    # a permutation moving the rational root into a 2-orbit must fail
    lengths = {}
    for i in range(3):
        j, l = i, 0
        while True:
            j = frob[j]
            l += 1
            if j == i:
                break
        lengths[i] = l
    fixed = next(i for i, l in lengths.items() if l == 1)
    moved = next(i for i, l in lengths.items() if l == 2)
    bad = list(range(3))
    bad[fixed], bad[moved] = moved, fixed
    assert not galois.validate_action(tuple(bad), roots)


def test_negation_and_pairing_group():
    roots = padic.cached_roots(F_QUARTIC_RAD, 5, 4, 8, 0)
    neg = galois.negation_perm(roots)
    assert neg is not None
    assert all(neg[neg[i]] == i and neg[i] != i for i in range(4))
    g = galois.pairing_group(roots)
    # two sign flips and one pair swap generate a group of order 8
    assert g.order == 8
    # no pairing for a polynomial whose roots are not closed under negation
    golden = padic.cached_roots((-1, -1, 1), 3, 2, 8, 0)
    assert galois.negation_perm(golden) is None
    assert galois.pairing_group(golden) is None


def test_radical_group():
    roots = padic.cached_roots(F_QUARTIC_RAD, 5, 4, 8, 0)
    g = galois.radical_group(roots)
    assert g is not None
    assert g.order == 8  # rotation of order 4 plus the inversion
    for gen in g.generators:
        assert galois.validate_action(gen, roots)
    sel = padic.select_prime((-2, 0, 0, 0, 0, 1), prefer="max")
    quintic = padic.cached_roots((-2, 0, 0, 0, 0, 1), sel.p, sel.f_p, 30, 0)
    g5 = galois.radical_group(quintic)
    assert g5 is not None
    assert g5.order == 20  # full metacyclic group for x^5 - 2


def test_power_group():
    roots = padic.cached_roots(F_QUARTIC_CYC, 3, 2, 8, 0)  # primitive 8th roots
    g = galois.power_group(roots, (3, 5, 7))
    assert g is not None
    assert g.order == 4  # (Z/8)^x
    assert galois.power_group(roots, (2,)) is None  # squaring kills 8th roots
    # x -> x^3 maps each root to another root of x^4 + 1
    p3 = galois.power_perm(roots, 3)
    assert sorted(p3) == [0, 1, 2, 3]


def test_group_of_kind():
    rad = padic.cached_roots(F_QUARTIC_RAD, 5, 4, 8, 0)
    cyc = padic.cached_roots(F_QUARTIC_CYC, 3, 2, 8, 0)
    assert galois.group_of_kind("frobenius", rad).generators == \
        galois.PermGroup.frobenius(rad).generators
    assert galois.group_of_kind("radical", rad).order == 8
    assert galois.group_of_kind("pairing", rad).order == 8
    assert galois.group_of_kind("power", cyc, (3, 5, 7)).order == 4
    explicit = galois.group_of_kind("explicit", rad, images=[[2, 3, 4, 1]])
    assert explicit.generators == ((1, 2, 3, 0),) and explicit.order == 4
    for kind, args in (("sporadic", ()), ("power", ()), ("explicit", ()),
                       ("power", ((2,),)), ("pairing", ())):
        roots = padic.cached_roots((-1, -1, 1), 3, 2, 8, 0) if kind == "pairing" else cyc
        with pytest.raises(ValueError):
            galois.group_of_kind(kind, roots, *args)


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
