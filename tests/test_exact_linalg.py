"""Differential tests of the integer linear algebra against the Fraction
code it replaced (tests/fraction_linalg.py), and a guard that every
public result holds Fractions.

`linalg.Echelon`, `linalg.rref`, the Krylov loop, `lie_bracket` and
`linear_combination` compute on integers and build Fractions only for what
they return.  The residual of a vector against an echelon basis, the
reduced row echelon form and the coefficients on independent vectors are
unique, so every answer must equal the reference's exactly.  Since
Fraction(1) == 1, equality alone would not notice an int leaking out of an
integer kernel, so the results' entry types are checked as well.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fraction_linalg as ref
from alghull import hull, linalg, matrices

ENTRIES = st.one_of(
    st.integers(-5, 5),
    st.just(0),
    st.fractions(min_value=-7, max_value=7, max_denominator=12),
    st.sampled_from([2**80, -2**80, Fraction(2**80, 3), Fraction(-1, 2**80)]),
    st.integers(-2**80, 2**80),
)
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _all_fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


def _flat(m):
    return [x for row in m for x in row]


@st.composite
def vectors(draw, ncols, earlier):
    """A vector of length ncols: random, zero, or a rational combination of
    earlier vectors (so that it often lies in the span)."""
    kind = draw(st.sampled_from(("random", "zero", "combination")))
    if kind == "zero" or (kind == "combination" and not earlier):
        return tuple(draw(st.sampled_from((0, Fraction(0)))) for _ in range(ncols))
    if kind == "random":
        return tuple(draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)))
    picks = draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=3))
    coeffs = draw(st.lists(ENTRIES, min_size=len(picks), max_size=len(picks)))
    return tuple(sum((Fraction(c) * Fraction(v[j]) for c, v in zip(coeffs, picks)),
                     Fraction(0)) for j in range(ncols))


@st.composite
def echelon_programs(draw):
    ncols = draw(st.integers(0, 6))
    track = draw(st.booleans())
    ops = st.sampled_from(("add", "contains", "reduce", "copy")
                          + (("express_or_add",) * 2 if track else ("add",)))
    program, earlier = [], []
    for _ in range(draw(st.integers(1, 14))):
        op = draw(ops)
        v = draw(vectors(ncols, earlier))
        earlier.append(v)
        program.append((op, v))
    return ncols, track, program


@SETTINGS
@given(echelon_programs())
def test_echelon_matches_fraction_echelon(program):
    ncols, track, ops = program
    got, want = linalg.Echelon(ncols, track=track), ref.Echelon(ncols, track=track)
    for op, v in ops:
        if op == "copy":
            before = len(got)
            got_copy, want_copy = got.copy(), want.copy()
            assert got_copy.add(v) == want_copy.add(v)
            assert len(got) == before  # the copy does not share new rows
            got, want = got_copy, want_copy
            continue
        a, b = getattr(got, op)(v), getattr(want, op)(v)
        assert a == b, op
        if op in ("reduce", "express_or_add") and a is not None:
            assert _all_fractions(a), op
        assert len(got) == len(want)
        assert got.reduce(v) == want.reduce(v)


def test_echelon_express_needs_tracking():
    with pytest.raises(ValueError):
        linalg.Echelon(2).express_or_add((1, 0))


@st.composite
def row_lists(draw):
    """m x n rows (m in 0..5, n in 1..6), some of them combinations of
    others, drawn mixed, integer or zero."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("mixed", "integer", "zero")))
    entries = {"mixed": ENTRIES, "integer": st.integers(-9, 9), "zero": st.just(0)}[kind]
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            rows.append(draw(vectors(n, rows)))
        else:
            rows.append(tuple(draw(st.lists(entries, min_size=n, max_size=n))))
    return n, rows


@SETTINGS
@given(row_lists(), st.data())
def test_rref_kernel_rank_and_rowspace_match_fraction_code(drawn, data):
    n, rows = drawn
    reduced, pivots = linalg.rref(rows)
    assert (reduced, pivots) == ref.rref(rows)
    assert all(_all_fractions(row) for row in reduced)
    kernel = linalg.right_kernel(rows)
    assert kernel == ref.right_kernel(rows)
    assert all(_all_fractions(v) for v in kernel)
    assert linalg.rank(rows) == ref.rank(rows)
    v = data.draw(vectors(n, rows))
    assert linalg.in_rowspace(rows, v) == ref.in_rowspace(rows, v)


@SETTINGS
@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_mat_inverse_matches_fraction_code(rows):
    try:
        want = ref.mat_inverse(rows)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            matrices.mat_inverse(rows)
        return
    got = matrices.mat_inverse(rows)
    assert got == want and _all_fractions(_flat(got))


def test_rref_of_singular_and_empty_inputs():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([(), ()]) == ([], []) == ref.rref([(), ()])
    with pytest.raises(ZeroDivisionError):
        matrices.mat_inverse(((1, 2), (2, 4)))
    assert matrices.mat_inverse(()) == ()


@st.composite
def krylov_inputs(draw):
    """Scalar, nilpotent, 1 x 1, 0 x 0, integer, rational and companion
    matrices."""
    kind = draw(st.sampled_from(("scalar", "nilpotent", "1x1", "0x0", "integer",
                                 "rational", "companion")))
    n = {"1x1": 1, "0x0": 0}.get(kind) or draw(st.integers(2, 4))
    if kind == "scalar":
        c = draw(ENTRIES)
        return [[c if i == j else 0 for j in range(n)] for i in range(n)]
    if kind == "nilpotent":
        return [[draw(ENTRIES) if j > i else 0 for j in range(n)] for i in range(n)]
    if kind == "companion":
        return matrices.companion(tuple(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
                                  + (1,))
    entries = st.integers(-6, 6) if kind == "integer" else ENTRIES
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(krylov_inputs())
def test_krylov_matches_fraction_krylov(x):
    x = matrices.as_matrix(x)
    mp, d, found = matrices._krylov(x)
    want_mp, want_powers = ref.krylov(x)
    assert mp == want_mp and _all_fractions(mp)
    assert all(type(v) is int for p in found for v in _flat(p))
    assert [tuple(tuple(Fraction(v, d**i) for v in row) for row in p)
            for i, p in enumerate(found)] == want_powers
    assert matrices.min_poly(x) == want_mp
    assert matrices.powers(x, len(want_powers)) == (want_powers or [matrices.identity(0)])


def _square_pairs(n):
    square = st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(square, square)


@SETTINGS
@given(st.integers(1, 4).flatmap(_square_pairs))
def test_lie_bracket_matches_fraction_code(pair):
    a, b = pair
    got = matrices.lie_bracket(a, b)
    assert got == ref.lie_bracket(a, b) and _all_fractions(_flat(got))


@SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(st.tuples(ENTRIES, _square_pairs(n).map(lambda p: p[0])),
                                 max_size=4))))
def test_linear_combination_matches_fraction_code(drawn):
    n, terms = drawn
    coeffs = [c for c, _ in terms]
    mats = [m if i % 2 else matrices.as_matrix(m) for i, (_, m) in enumerate(terms)]
    got = matrices.linear_combination(coeffs, mats, n)
    assert got == ref.linear_combination(coeffs, mats, n) and _all_fractions(_flat(got))


def test_wide_echelon_and_rref_match_fraction_code():
    """64 rows of width 64 (56 random rational rows and 8 rational
    combinations of them), where the integer rows reach hundreds of bits."""
    rng = random.Random(20)
    width = 64
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(width)]
            for _ in range(56)]
    for _ in range(8):
        picks = rng.sample(rows, 3)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in picks]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, picks)), Fraction(0))
                     for j in range(width)])
    rng.shuffle(rows)
    got, want = linalg.Echelon(width, track=True), ref.Echelon(width, track=True)
    for row in rows:
        assert got.express_or_add(row) == want.express_or_add(row)
    assert len(got) == 56
    queries = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(width)]
               for _ in range(4)]
    for q in queries:
        assert got.reduce(q) == want.reduce(q)
    assert linalg.rref(rows) == ref.rref(rows)


# ------------------------------------------------------------ result types

def test_public_results_hold_fractions_only():
    """Integer inputs, where an int from the integer kernels would be most
    likely to leak, give Fraction entries in every public result."""
    x4 = matrices.companion((-2, 0, 0, 0, 1))  # x^4 - 2
    res = hull.hull_matrix([[int(v) for v in row] for row in x4], group_order=8)
    assert all(_all_fractions(_flat(b)) for b in res.span.basis)
    assert all(_all_fractions(g) for g in res.witnesses["upsilon_basis"])
    jordan = [[2, 1, 0], [0, 2, 0], [0, 0, 3]]
    res = hull.hull_matrix(jordan)
    assert res.dim == 2 and all(_all_fractions(_flat(b)) for b in res.span.basis)
    lie = hull.hull_lie_algebra([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    assert all(_all_fractions(_flat(b)) for b in lie.span.basis)
    for m in ([[1, 2], [3, 4]], jordan, [[5]], []):
        assert _all_fractions(matrices.min_poly(m))
        assert all(_all_fractions(_flat(p)) for p in matrices.jordan_decomposition(m))
        assert all(_all_fractions(_flat(b)) for b in matrices.power_basis(m).basis)
    span = matrices.span_of([[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[1, 1], [0, 0]]])
    assert all(_all_fractions(_flat(b)) for b in matrices.bracket_closure(span).basis)
    assert all(_all_fractions(v) for v in linalg.right_kernel([(1, 2, 3), (2, 4, 7)]))
    echelon = linalg.Echelon(3, track=True)
    assert echelon.express_or_add((1, 0, 2)) is None
    assert echelon.express_or_add((0, 1, 1)) is None
    assert _all_fractions(echelon.express_or_add((3, -2, 4)))
    assert _all_fractions(echelon.reduce((5, 7, 1)))
    assert _all_fractions(_flat(matrices.lie_bracket([[1, 2], [3, 4]], [[0, 1], [1, 0]])))
    assert _all_fractions(_flat(matrices.linear_combination([2, 0], [[[1, 2], [3, 4]]] * 2, 2)))
