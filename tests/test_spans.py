"""Differential tests of the echelon kernel against the rank-based span code
it replaced.

The reference functions below are the earlier implementations: `span_of`
decided membership by comparing `rref` ranks, `bracket_closure` rebuilt the
span with that `span_of` after every round, and `min_poly` solved for the
coefficients of each new power by a fresh elimination.  Their `rref` is
the Fraction Gauss-Jordan reference of tests/fraction_linalg.py, not the
library's, which runs on the echelon kernel.  The kernel must pick the
same basis in the same order and give the same minimal polynomial.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fraction_linalg as ref
from alghull import linalg, matrices
from alghull import polynomials as pol

# ------------------------------------------------------------- references


def _ref_rank(rows):
    return len(ref.rref(rows)[0])


def _ref_in_rowspace(rows, v):
    if not rows:
        return all(x == 0 for x in v)
    return _ref_rank(rows) == _ref_rank(list(rows) + [v])


def _ref_span_of(mats):
    basis, rows = [], []
    for m in mats:
        m = matrices.as_matrix(m)
        v = matrices.flatten(m)
        if not _ref_in_rowspace(rows, v):
            basis.append(m)
            rows.append(v)
    return tuple(basis)


def _ref_bracket_closure(basis):
    current = tuple(basis)
    while True:
        rows = [matrices.flatten(m) for m in current]
        extra = []
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                br = matrices.lie_bracket(current[i], current[j])
                if not _ref_in_rowspace(rows, matrices.flatten(br)):
                    extra.append(br)
        if not extra:
            return current
        current = _ref_span_of(list(current) + extra)


def _ref_solve_combination(rows, v):
    if not rows:
        return () if all(x == 0 for x in v) else None
    nrows = len(rows)
    ncols = len(rows[0])
    aug = [[Fraction(rows[i][j]) for i in range(nrows)] + [Fraction(v[j])]
           for j in range(ncols)]
    reduced, pivots = ref.rref(aug)
    sol = [Fraction(0)] * nrows
    for row, pj in zip(reduced, pivots):
        if pj == nrows:
            return None
        sol[pj] = row[nrows]
    for j in range(ncols):
        if sum(sol[i] * Fraction(rows[i][j]) for i in range(nrows)) != Fraction(v[j]):
            return None
    return tuple(sol)


def _ref_min_poly(x):
    n = len(x)
    powers = [matrices.identity(n)]
    rows = [matrices.flatten(powers[0])]
    while True:
        nxt = matrices.mat_mul(powers[-1], x)
        coeffs = _ref_solve_combination(rows, matrices.flatten(nxt))
        if coeffs is not None:
            return tuple(-c for c in coeffs) + (Fraction(1),)
        powers.append(nxt)
        rows.append(matrices.flatten(nxt))


# ------------------------------------------------------------- strategies

ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def _square(n):
    return st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def matrix_lists(draw, n, bases=(1, 3), extra=(0, 4)):
    """Some base matrices together with repeats of them, rational
    combinations of two of them and zero matrices, in a drawn order."""
    base = draw(st.lists(_square(n), min_size=bases[0], max_size=bases[1]))
    out = [matrices.as_matrix(b) for b in base]
    for _ in range(draw(st.integers(*extra))):
        kind = draw(st.sampled_from(("repeat", "combination", "zero")))
        if kind == "zero":
            out.append(matrices.zero(n))
            continue
        a = draw(st.sampled_from(out))
        if kind == "combination":
            b = draw(st.sampled_from(out))
            c, d = draw(ENTRIES), draw(ENTRIES)
            a = matrices.mat_add(matrices.mat_scale(a, c), matrices.mat_scale(b, d))
        out.append(a)
    return draw(st.permutations(out))


@st.composite
def square_matrices(draw):
    """Square matrices, many with repeated eigenvalues or low-degree
    minimal polynomials."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("random", "triangular", "scalar", "blocks")))
    if kind == "random":
        return matrices.as_matrix(draw(_square(n)))
    if kind == "scalar":
        return matrices.mat_scale(matrices.identity(n), draw(ENTRIES))
    if kind == "triangular":
        m = [list(row) for row in draw(_square(n))]
        eigen = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2))
        for i in range(n):
            m[i][i] = eigen[i % len(eigen)]
            for j in range(i):
                m[i][j] = 0
        return matrices.as_matrix(m)
    # a repeated block: diag(A, A) (n = 4) or diag(A, a) (n = 2, 3)
    a = matrices.as_matrix(draw(_square(2)))
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i // 2 == j // 2:
                m[i][j] = a[i % 2][j % 2]
    return matrices.as_matrix(m)


SIZES = st.integers(2, 4)
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# ------------------------------------------------------------------ tests


@SETTINGS
@given(st.data())
def test_span_of_matches_reference(data):
    n = data.draw(SIZES)
    mats = data.draw(matrix_lists(n))
    span = matrices.span_of(mats, n=n)
    assert span.basis == _ref_span_of(mats)
    assert span.n == n


@SETTINGS
@given(st.data())
def test_span_sum_matches_reference(data):
    n = data.draw(SIZES)
    s1 = matrices.span_of(data.draw(matrix_lists(n)), n=n)
    s2 = matrices.span_of(data.draw(matrix_lists(n)), n=n)
    total = matrices.span_sum(s1, s2)
    assert total.basis == _ref_span_of(s1.basis + s2.basis)
    # the summands' echelon bases are not changed by the sum
    assert s1.basis == _ref_span_of(s1.basis)
    assert all(s1.contains(m) for m in s1.basis)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_bracket_closure_matches_reference(data):
    n = data.draw(st.integers(2, 3))
    gens = data.draw(matrix_lists(n, bases=(2, 3), extra=(0, 2)))
    closed = matrices.bracket_closure(matrices.span_of(gens, n=n))
    assert closed.basis == _ref_bracket_closure(_ref_span_of(gens))


# 4 x 4 closures of dimension 15 or 16 take the reference seconds each, so
# the 4 x 4 cases are fixed: a solvable pair, a pair generating a 10-dim
# algebra, and a rational pair generating gl(4).
CLOSURES_4X4 = {
    "triangular": ([[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, 3, 1], [0, 0, 0, 4]],
                   [[0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]]),
    "shifts": ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
               [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
    "rational": ([[0, Fraction(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, Fraction(-2, 3)],
                  [1, 0, 0, 0]],
                 [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
}


@pytest.mark.parametrize("label", sorted(CLOSURES_4X4))
def test_bracket_closure_matches_reference_4x4(label):
    gens = list(CLOSURES_4X4[label])
    gens.append(matrices.mat_add(gens[0], gens[1]))  # a dependent generator
    closed = matrices.bracket_closure(matrices.span_of(gens, n=4))
    assert closed.basis == _ref_bracket_closure(_ref_span_of(gens))
    assert closed.dim == {"triangular": 3, "shifts": 10, "rational": 16}[label]


@SETTINGS
@given(st.data())
def test_contains_agrees_with_rref_rank(data):
    n = data.draw(SIZES)
    mats = data.draw(matrix_lists(n))
    span = matrices.span_of(mats, n=n)
    rows = [matrices.flatten(m) for m in span.basis]
    candidates = data.draw(matrix_lists(n)) + mats
    for m in candidates:
        assert span.contains(m) == _ref_in_rowspace(rows, matrices.flatten(m))
        assert linalg.in_rowspace(rows, matrices.flatten(m)) == span.contains(m)
    assert linalg.rank([matrices.flatten(m) for m in candidates]) == \
        _ref_rank([matrices.flatten(m) for m in candidates])
    other = matrices.span_of(list(reversed(mats)), n=n)
    assert (span == other) and (other == span)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(square_matrices())
def test_min_poly_matches_reference(x):
    mp = matrices.min_poly(x)
    assert mp == _ref_min_poly(x)
    assert all(type(c) is Fraction for c in mp)
    assert matrices.is_zero_matrix(matrices.eval_poly(mp, x))
    _, r = pol.divmod_poly(matrices.char_poly(x), mp)
    assert not any(r)
