"""Exact polynomial and matrix arithmetic: worked examples checked by
hand, plus property tests with independent oracles (sympy) for the
characteristic/minimal polynomial and the Jordan decomposition.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from alghull import linalg, matrices
from alghull import polynomials as pol

# ------------------------------------------------------------ polynomials

X2_M2 = (Fraction(-2), Fraction(0), Fraction(1))  # x^2 - 2


def test_poly_arithmetic_examples():
    assert pol.degree((0, 0, 3)) == 2
    assert pol.degree(()) == -1
    assert pol.derivative((5, 0, 3)) == (0, 6)


def test_divmod_example():
    # x^3 + 1 = (x + 1)(x^2 - x + 1)
    q, r = pol.divmod_poly((1, 0, 0, 1), (1, 1))
    assert q == (1, -1, 1)
    assert not any(r)


def test_gcd_and_squarefree_part():
    sq = (2, -3, 0, 1)  # (x-1)^2 (x+2)
    assert pol.squarefree_part(sq) == (-2, 1, 1)  # (x-1)(x+2)
    assert pol.monic(pol.gcd((-1, 0, 1), (1, 1))) == (1, 1)


def test_integral_scaling_clears_denominators():
    f = (Fraction(1, 4), Fraction(-1, 2), Fraction(1))  # x^2 - x/2 + 1/4
    c = pol.integral_scaling(f)
    scaled = pol.scale_roots(f, c)
    ints = pol.to_int_coeffs(scaled)
    assert all(isinstance(v, int) for v in ints)
    assert ints[-1] == 1
    # the roots of the scaled polynomial are c times the roots of f:
    # check via the evaluation identity c^deg f(x) = scaled(c x)
    for x in (Fraction(1, 3), Fraction(-2), Fraction(5, 7)):
        value = sum(a * (c * x) ** i for i, a in enumerate(scaled))
        assert value == c ** pol.degree(f) * sum(a * x**i for i, a in enumerate(f))


X = sympy.symbols("x")


def _sympy_poly(f):
    return sympy.Poly(list(reversed(f)) or [0], X, domain="QQ")


def _fraction(c):
    return Fraction(int(c.p), int(c.q))


def _from_sympy(p):
    return pol.normalize(tuple(_fraction(c) for c in reversed(p.all_coeffs())))


@st.composite
def small_polys(draw, max_deg=4):
    deg = draw(st.integers(0, max_deg))
    coeffs = [draw(st.integers(-9, 9)) for _ in range(deg)] + [draw(st.integers(1, 9))]
    return tuple(coeffs)


@given(small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_divmod_invariant(f, g):
    q, r = pol.divmod_poly(f, g)
    assert _sympy_poly(q) * _sympy_poly(g) + _sympy_poly(r) == _sympy_poly(f)
    assert pol.degree(r) < pol.degree(g) or pol.degree(r) <= 0


@given(small_polys(3), small_polys(3), small_polys(2))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(f, g, h):
    f = _from_sympy(_sympy_poly(f) * _sympy_poly(h))
    g = _from_sympy(_sympy_poly(g) * _sympy_poly(h))
    d = pol.gcd(f, g)
    _, r1 = pol.divmod_poly(f, d)
    _, r2 = pol.divmod_poly(g, d)
    assert not any(r1) and not any(r2)


# ----------------------------------------------------------------- linalg

def test_rref_and_rank():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    assert linalg.rank(rows) == 2
    assert linalg.in_rowspace(rows, (1, 3, 4))
    assert not linalg.in_rowspace(rows, (0, 0, 1))


def test_echelon_combination_roundtrip():
    basis = linalg.Echelon(3, track=True)
    assert basis.express_or_add((1, 0, 2)) is None
    assert basis.express_or_add((0, 1, 1)) is None
    v = (3, -2, 4)  # 3*r0 - 2*r1
    assert basis.express_or_add(v) == (3, -2)
    assert basis.reduce(v) == (0, 0, 0)
    assert basis.express_or_add((0, 0, 1)) is None  # kept: outside the span
    assert len(basis) == 3


def test_echelon_rows_are_echelon():
    basis = linalg.Echelon(4)
    assert basis.add((0, 2, 4, 6))
    assert not basis.add((0, 1, 2, 3))
    assert not basis.add((0, 0, 0, 0))
    assert basis.add((1, 1, 0, 0))
    copy = basis.copy()
    assert copy.add((0, 0, 0, 5))
    assert len(basis) == 2 and len(copy) == 3
    # the residual is zero at every pivot (columns 1 and 0)
    assert basis.reduce((7, 3, 0, 1)) == (0, 0, 8, 13)
    with pytest.raises(ValueError):
        basis.add((1, 2, 3))
    with pytest.raises(ValueError):
        linalg.in_rowspace([(1, 0, 0), (0, 1)], (0, 0, 1))


def test_right_kernel_property():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
                for _ in range(m)]
        ker = linalg.right_kernel(rows)
        assert len(ker) == n - linalg.rank(rows)
        for v in ker:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0


# --------------------------------------------------------------- matrices

def test_companion_char_poly_roundtrip():
    f = (3, -1, 4, 1)  # monic cubic
    c = matrices.companion(f)
    assert matrices.char_poly(c) == tuple(Fraction(v) for v in f)
    with pytest.raises(ValueError):
        matrices.companion((1, 2))  # not monic


def test_min_poly_examples():
    d = matrices.as_matrix([[2, 0], [0, 2]])
    assert matrices.min_poly(d) == (Fraction(-2), Fraction(1))
    j = matrices.as_matrix([[2, 1], [0, 2]])
    assert matrices.min_poly(j) == (Fraction(4), Fraction(-4), Fraction(1))


def _random_matrix(rng, n, lo=-5, hi=5):
    return matrices.as_matrix(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def _random_rational_matrix(rng, n):
    """Entries 0, integers and fractions; each row is zero with chance 1/4."""
    def entry():
        return rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
    return [[entry() for _ in range(n)] if rng.random() < 0.75 else [0] * n for _ in range(n)]


def test_char_poly_against_sympy():
    rng = random.Random(11)
    for n in range(9):
        for _ in range(12):
            m = _random_rational_matrix(rng, n)
            sym = sympy.Matrix(n, n, [sympy.Rational(str(x)) for row in m for x in row])
            theirs = tuple(_fraction(c) for c in reversed(sym.charpoly().all_coeffs()))
            assert matrices.char_poly(m) == theirs


def test_eval_poly_against_sympy():
    rng = random.Random(23)
    for n in range(6):
        for trial in range(8):
            m = _random_rational_matrix(rng, n)
            f = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(rng.randint(1, 6) if trial else 0))
            sym = sympy.Matrix(n, n, [sympy.Rational(str(x)) for row in m for x in row])
            theirs = sympy.zeros(n, n)
            for i, c in enumerate(f):
                theirs += sympy.Rational(c.numerator, c.denominator) * sym**i
            want = tuple(tuple(_fraction(theirs[i, j]) for j in range(n)) for i in range(n))
            assert matrices.eval_poly(f, m) == want


def test_min_poly_against_sympy():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, -3, 3)
        ours = matrices.min_poly(m)
        x = sympy.symbols("x")
        sym = sympy.Matrix([[int(v) for v in row] for row in m])
        theirs = tuple(reversed(sympy.Poly(sym.charpoly(x).as_expr() /
                                           sympy.gcd(sym.charpoly(x).as_expr(),
                                                     1), x).all_coeffs()))
        # independent check: our min poly annihilates m and divides charpoly
        assert matrices.is_zero_matrix(matrices.eval_poly(ours, m))
        q, r = pol.divmod_poly(matrices.char_poly(m), ours)
        assert all(c == 0 for c in pol.normalize(r)) or pol.normalize(r) == (0,)
        assert theirs  # sympy charpoly computed without error


def test_cayley_hamilton():
    rng = random.Random(17)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 4))
        assert matrices.is_zero_matrix(matrices.eval_poly(matrices.char_poly(m), m))


def test_jordan_examples():
    s, n = matrices.jordan_decomposition(matrices.as_matrix([[1, 1], [0, 1]]))
    assert s == matrices.identity(2)
    assert n == matrices.as_matrix([[0, 1], [0, 0]])
    # already semisimple: N = 0
    d = matrices.as_matrix([[1, 0], [0, 2]])
    s, n = matrices.jordan_decomposition(d)
    assert s == d and matrices.is_zero_matrix(n)


def check_jordan_postconditions(x):
    s, n = matrices.jordan_decomposition(x)
    assert matrices.mat_add(s, n) == x, "S + N != X"
    assert matrices.mat_mul(s, n) == matrices.mat_mul(n, s), \
        "S and N do not commute"
    power = n
    for _ in range(len(x)):
        power = matrices.mat_mul(power, n)
    assert matrices.is_zero_matrix(power), "N is not nilpotent"
    mp = matrices.min_poly(s)
    assert pol.degree(pol.squarefree_part(mp)) == pol.degree(mp), \
        "S is not semisimple"
    # both parts are polynomials in X (they live in the unital power span)
    span = [matrices.flatten(matrices.identity(len(x)))]
    power = matrices.identity(len(x))
    for _ in range(len(x) - 1):
        power = matrices.mat_mul(power, x)
        span.append(matrices.flatten(power))
    assert linalg.in_rowspace(span, matrices.flatten(s))


def test_jordan_postconditions_random():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 4)
        x = _random_matrix(rng, n, -3, 3)
        # bias towards non-semisimple inputs half the time
        if rng.random() < 0.5:
            t = [[x[i][j] for j in range(n)] for i in range(n)]
            for i in range(n - 1):
                t[i][i + 1] = t[i][i]
            x = matrices.as_matrix(t)
        check_jordan_postconditions(x)


def test_bracket_closure_sl2():
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    span = matrices.span_of([matrices.as_matrix(e), matrices.as_matrix(f)])
    closed = matrices.bracket_closure(span)
    assert closed.dim == 3
    h = matrices.as_matrix([[1, 0], [0, -1]])
    assert closed.contains(h)


def test_matrix_span_basics():
    s = matrices.span_of([matrices.identity(2), matrices.mat_scale(matrices.identity(2), 2)])
    assert s.dim == 1
    with pytest.raises(ValueError):
        matrices.MatrixSpan([matrices.identity(2), matrices.identity(2)])


def test_matrix_span_rejects_shape_mismatches():
    span = matrices.MatrixSpan([[[1, 0], [0, 0]]])
    with pytest.raises(matrices.DimensionError):
        span.contains([[1, 0, 0], [0, 0, 0]])  # 2 x 3, same first row
    with pytest.raises(matrices.DimensionError):
        span.contains([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(matrices.DimensionError):
        matrices.MatrixSpan([[[1, 0], [0, 0]]], n=3)
    with pytest.raises(matrices.DimensionError):
        matrices.span_of([[[1, 0], [0, 0]]], n=3)
