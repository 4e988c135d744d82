"""Differential tests of the shared kernels against the implementations
they replaced.

The reference functions below are the earlier, separate implementations:
`hnf` and `kernel_int` each ran their own integer elimination loop,
`mat_inverse` ran its own Gauss-Jordan on [A | I], and `eval_target` raised
roots to powers with an inline square-and-multiply that started from 1.
The kernels must give the same output, and `eval_target` must not take
more ring multiplications than before.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpus
from alghull import lattice, matrices, padic
from alghull.relations import ExponentPolynomial

# ------------------------------------------------------------- references


def _ref_hnf(rows):
    m = [[int(x) for x in r] for r in rows]
    if not m:
        return ()
    ncols = len(m[0])
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for i in range(row + 1, len(m)):
            while m[i][col]:
                q = m[i][col] // m[row][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[row])]
                if m[i][col]:
                    m[row], m[i] = m[i], m[row]
        if m[row][col] < 0:
            m[row] = [-a for a in m[row]]
        for i in range(row):
            q = m[i][col] // m[row][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[row])]
        row += 1
        if row == len(m):
            break
    return tuple(tuple(r) for r in m[:row])


def _ref_kernel_int(rows):
    m = [[int(x) for x in r] for r in rows]
    nrows = len(m)
    if nrows == 0:
        return ()
    ncols = len(m[0])
    aug = [m[i] + [1 if j == i else 0 for j in range(nrows)] for i in range(nrows)]
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        for i in range(row + 1, nrows):
            while aug[i][col]:
                q = aug[i][col] // aug[row][col]
                aug[i] = [a - q * b for a, b in zip(aug[i], aug[row])]
                if aug[i][col]:
                    aug[row], aug[i] = aug[i], aug[row]
        row += 1
        if row == nrows:
            break
    return tuple(tuple(r[ncols:]) for r in aug[row:] if all(x == 0 for x in r[:ncols]))


def _ref_saturate(rows):
    frac = [[Fraction(x) for x in r] for r in rows]
    frac = [r for r in frac if any(r)]
    if not frac:
        return ()
    ncols = len(frac[0])
    ints = []
    for r in frac:
        d = 1
        for x in r:
            d = d * x.denominator // math.gcd(d, x.denominator)
        ints.append([int(x * d) for x in r])
    ann = _ref_kernel_int([list(col) for col in zip(*ints)])
    if not ann:
        return _ref_hnf([[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)])
    return _ref_hnf(_ref_kernel_int([list(col) for col in zip(*ann)]))


def _ref_mat_inverse(a):
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(1) if i == k else Fraction(0)
                                                    for k in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n:]) for i in range(n))


def _ref_eval_target(g, roots):
    ring = roots.ring
    acc = ring.zero()
    for coeff, exps in g.terms:
        term = ring.from_int(coeff)
        for alpha, e in zip(roots.roots, exps):
            if e:
                base, ee, powed = alpha, e, ring.from_int(1)
                while ee:
                    if ee & 1:
                        powed = powed * base
                    base = base * base
                    ee >>= 1
                term = term * powed
        acc = acc + term
    return acc


# ------------------------------------------------------------- strategies

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def int_matrices(draw, max_rows=6, max_cols=6, bound=30):
    """Integer matrices, some with dependent or repeated rows."""
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=ncols,
                                  max_size=ncols), min_size=1, max_size=max_rows))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([c * x + d * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


ENTRIES = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def square_matrices(draw):
    """Square matrices, singular ones among them (a row repeated or zeroed)."""
    n = draw(st.integers(1, 5))
    m = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("random", "repeat", "zero")))
    if kind != "random" and n > 1:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i] = [0] * n if kind == "zero" else list(m[j]) if i != j else m[i]
    return matrices.as_matrix(m)


# ------------------------------------------------------------------ tests


@SETTINGS
@given(int_matrices())
def test_hnf_matches_reference(rows):
    assert lattice.hnf(rows) == _ref_hnf(rows)


@SETTINGS
@given(int_matrices())
def test_kernel_int_matches_reference(rows):
    assert lattice.kernel_int(rows) == _ref_kernel_int(rows)


@SETTINGS
@given(int_matrices(max_rows=5, max_cols=5, bound=12))
def test_saturate_matches_reference(rows):
    assert lattice.saturate(rows) == _ref_saturate(rows)
    halves = [[Fraction(x, 2) for x in row] for row in rows]
    assert lattice.saturate(halves) == _ref_saturate(halves)


def test_empty_inputs_match_reference():
    for fn, ref in ((lattice.hnf, _ref_hnf), (lattice.kernel_int, _ref_kernel_int),
                    (lattice.saturate, _ref_saturate)):
        assert fn([]) == ref([]) == ()
        assert fn([[0, 0]]) == ref([[0, 0]])


@SETTINGS
@given(square_matrices())
def test_mat_inverse_matches_reference(a):
    try:
        want = _ref_mat_inverse(a)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            matrices.mat_inverse(a)
        return
    got = matrices.mat_inverse(a)
    assert got == want
    assert all(type(x) is Fraction for row in got for x in row)


@st.composite
def targets(draw, n):
    terms = draw(st.lists(
        st.tuples(st.integers(-50, 50), st.lists(st.integers(0, 40), min_size=n, max_size=n)),
        min_size=1, max_size=4))
    return ExponentPolynomial(tuple(terms))


def _counting_multiplications(monkeypatch):
    count = [0]
    mul = padic.PadicElement.__mul__

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(padic.PadicElement, "__mul__", counted)
    return count


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.data())
def test_eval_target_matches_reference(monkeypatch, data):
    entry = data.draw(st.sampled_from(corpus.CORPUS))
    n = len(entry.poly) - 1
    roots = padic.root_context(entry.poly).roots(data.draw(st.integers(1, 30)))
    g = data.draw(targets(n))
    with monkeypatch.context() as patch:
        count = _counting_multiplications(patch)
        got = padic.eval_target(g, roots)
        used = count[0]
        want = _ref_eval_target(g, roots)
        assert used <= count[0] - used
    assert got == want


@pytest.mark.parametrize("e", [0, 1, 2, 3, 7, 8, 40, 1025])
def test_pow_matches_repeated_multiplication(e):
    roots = padic.root_context(corpus.CORPUS[3].poly).roots(12)
    alpha = roots.roots[0]
    want = roots.ring.from_int(1)
    for _ in range(e):
        want = want * alpha
    assert alpha ** e == want
    with pytest.raises(ValueError):
        alpha ** -1


def test_p_valuation():
    assert [lattice.p_valuation(x, 3) for x in (1, -3, 18, 3**40 * 7)] == [0, 1, 2, 40]
    for x, p in ((0, 3), (5, 1)):
        with pytest.raises(ValueError):
            lattice.p_valuation(x, p)
