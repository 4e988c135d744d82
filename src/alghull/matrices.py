"""Exact matrix algebra over Q: characteristic/minimal polynomials,
Jordan decomposition, and spans of matrices with Lie bracket closure.

Matrices are tuples of row tuples with Fraction (or int) entries.
Products, brackets, linear combinations and the Krylov loop run on
integer matrices: a rational matrix is d A for its least common
denominator d, one integer product core (`_product`) multiplies, and
one Fraction is built per output entry.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from . import polynomials as pol

Mat = tuple  # tuple of row tuples


class DimensionError(ValueError):
    pass


def as_matrix(rows: Iterable[Iterable]) -> Mat:
    """rows as a tuple of row tuples of Fractions; a matrix that already is
    one is returned as it is."""
    if type(rows) is tuple and all(
        type(row) is tuple and all(type(x) is Fraction for x in row) for row in rows
    ):
        m = rows
    else:
        m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise DimensionError("ragged matrix")
    return m


def is_square(m: Mat) -> bool:
    return all(len(row) == len(m) for row in m)


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def zero(n: int) -> Mat:
    return tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Mat, c) -> Mat:
    return tuple(tuple(x * c for x in row) for row in a)


def _numerators(a: Mat) -> tuple[int, list[list[int]]]:
    """(d, integer matrix d A) for the least common denominator d of A."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in a]


def _fractions(a, d: int) -> Mat:
    """The integer matrix A over d, one Fraction per entry."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in a)


def _product(a, b) -> list[list[int]]:
    """The integer matrix product A B: the one product core of mat_mul,
    lie_bracket, powers and the Krylov loop."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _combine(terms, n: int) -> Mat:
    """sum(c * M for c, M in terms) for rational c and integer n x n M: one
    integer accumulation over the least common denominator of the c, one
    Fraction per entry."""
    terms = [(c, m) for c, m in terms if c]
    d = math.lcm(*(c.denominator for c, _ in terms))
    acc = [[0] * n for _ in range(n)]
    for c, m in terms:
        k = c.numerator * (d // c.denominator)
        acc = [[x + k * y for x, y in zip(ra, rm)] for ra, rm in zip(acc, m)]
    return _fractions(acc, d)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact product, fraction-free: the integer numerators of A and B over
    one common denominator each are multiplied, and each output entry
    becomes one Fraction."""
    if len(a[0]) != len(b):
        raise DimensionError("incompatible shapes for multiplication")
    da, na = _numerators(a)
    db, nb = _numerators(b)
    return _fractions(_product(na, nb), da * db)


def is_zero_matrix(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def trace(a: Mat):
    return sum(a[i][i] for i in range(len(a)))


def flatten(a: Mat) -> tuple:
    return tuple(x for row in a for x in row)


def unflatten(v: Sequence, n: int) -> Mat:
    return tuple(tuple(Fraction(x) for x in v[i * n : (i + 1) * n]) for i in range(n))


def mat_inverse(a: Mat) -> Mat:
    """Exact inverse: the reduced echelon form of [A | I] is [I | A^-1].
    Raises ZeroDivisionError on singular input."""
    n = len(a)
    reduced, pivots = linalg.rref(
        [tuple(row) + tuple(1 if i == j else 0 for j in range(n)) for i, row in enumerate(a)]
    )
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def _int_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _powers(x: Mat, count: int) -> tuple[int, list[list[list[int]]]]:
    """(d, [P_0, ..., P_(count-1)]) with P_i = (dX)^i as integer matrices
    and d the least common denominator of X (P_0 = I even for count 0)."""
    d, dx = _numerators(x)
    out = [_int_identity(len(x))]
    for _ in range(count - 1):
        out.append(_product(out[-1], dx))
    return d, out


def powers(x: Mat, count: int) -> list[Mat]:
    """[I, X, ..., X^(count-1)]."""
    d, out = _powers(x, count)
    return [_fractions(p, d**i) for i, p in enumerate(out)]


def linear_combination(coeffs: Sequence, mats: Sequence[Mat], n: int) -> Mat:
    """sum(c_i * M_i) over n x n matrices."""
    terms = []
    for c, m in zip(coeffs, mats):
        if c:
            d, nm = _numerators(m)
            terms.append((Fraction(c, d), nm))
    return _combine(terms, n)


def eval_poly(f, x: Mat) -> Mat:
    """Evaluate a polynomial (constant first) at a square matrix."""
    n = len(x)
    acc = zero(n)
    for c in reversed(f):
        acc = mat_mul(acc, x) if not is_zero_matrix(acc) else acc
        if c != 0:
            acc = mat_add(acc, mat_scale(identity(n), c))
    return acc


def char_poly(x: Mat):
    """Monic characteristic polynomial det(tI - X), exact over Q.

    Uses similarity reduction to Hessenberg form followed by the standard
    recurrence on leading principal Hessenberg blocks.
    """
    if not is_square(x):
        raise DimensionError("characteristic polynomial needs a square matrix")
    n = len(x)
    if n == 0:
        return (1,)
    h = [[Fraction(v) for v in row] for row in x]
    # Hessenberg reduction by similarity transformations.
    for j in range(n - 2):
        pivot = next((i for i in range(j + 1, n) if h[i][j] != 0), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            h[j + 1], h[pivot] = h[pivot], h[j + 1]
            for row in h:
                row[j + 1], row[pivot] = row[pivot], row[j + 1]
        for i in range(j + 2, n):
            if h[i][j] != 0:
                c = h[i][j] / h[j + 1][j]
                h[i] = [a - c * b for a, b in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] += c * row[i]
    # p_m(t) = charpoly of the leading m x m block.
    polys = [(Fraction(1),)]  # p_0 = 1
    for m in range(1, n + 1):
        term = pol.mul(pol.sub((Fraction(0), Fraction(1)), (h[m - 1][m - 1],)), polys[m - 1])
        prod = Fraction(1)
        for i in range(m - 2, -1, -1):
            prod *= h[i + 1][i]
            term = pol.sub(term, pol.scale(polys[i], h[i][m - 1] * prod))
        polys.append(term)
    return polys[n]


def min_poly(x: Mat):
    """Monic minimal polynomial: the first power X^(t+1) that lies in the
    span of I, X, ..., X^t, written in terms of them (a Krylov loop with
    one reduction per power)."""
    return _krylov(x)[0]


def _krylov(x: Mat) -> tuple[tuple, int, list[list[list[int]]]]:
    """(min_poly(X), d, [P_0, ..., P_t]) with t+1 the degree of the minimal
    polynomial, d the least common denominator of X and P_i = (dX)^i: the
    integer powers the Krylov loop makes on the way, one product per
    power."""
    if not is_square(x):
        raise DimensionError("minimal polynomial needs a square matrix")
    n = len(x)
    if n == 0:
        return (Fraction(1),), 1, []
    d, dx = _numerators(x)
    echelon = linalg.Echelon(n * n, track=True)
    power, found = _int_identity(n), []
    while True:
        dependency = echelon._express([y for row in power for y in row])
        if dependency is not None:
            # P_m = -sum(a_i P_i) / b, m = t+1, so X^m = -sum(a_i X^i) /
            # (b d^(m-i)) and the min poly is x^m + sum(a_i x^i / (b d^(m-i)))
            a, b = dependency
            m = len(a)
            return (tuple(Fraction(ai, b * d ** (m - i)) for i, ai in enumerate(a))
                    + (Fraction(1),), d, found)
        found.append(power)
        power = _product(power, dx)


def power_basis(x: Mat) -> "MatrixSpan":
    """[I, X, ..., X^t] with t+1 the degree of the minimal polynomial."""
    _, d, found = _krylov(x)
    return MatrixSpan([_fractions(p, d**i) for i, p in enumerate(found)], n=len(x))


def jordan_decomposition(x: Mat) -> tuple[Mat, Mat]:
    """Chevalley-Jordan decomposition X = S + N over Q.

    S is semisimple, N nilpotent, S N = N S, and both are polynomials in X.
    S is computed by Newton iteration on the squarefree part g of the
    minimal polynomial: S <- S - g(S) g'(S)^-1, staying inside A_Q(X).
    """
    x = as_matrix(x)
    if not is_square(x):
        raise DimensionError("Jordan decomposition needs a square matrix")
    mp = min_poly(x)
    return _jordan_decomposition(x, mp, pol.squarefree_part(mp))


def _jordan_decomposition(x: Mat, mp, g) -> tuple[Mat, Mat]:
    """jordan_decomposition for a square X whose minimal polynomial is mp,
    with g = pol.squarefree_part(mp) (the minimal polynomial of S), which
    the caller computes once and may reuse."""
    n = len(x)
    if pol.degree(g) == pol.degree(mp):
        return x, zero(n)
    gp = pol.derivative(g)
    s = x
    for _ in range(max(1, math.ceil(math.log2(max(n, 2)))) + 1):
        gs = eval_poly(g, s)
        if is_zero_matrix(gs):
            break
        s = mat_sub(s, mat_mul(gs, mat_inverse(eval_poly(gp, s))))
    if not is_zero_matrix(eval_poly(g, s)):
        raise RuntimeError("Newton iteration for the semisimple part did not converge")
    return s, mat_sub(x, s)


def companion(f) -> Mat:
    """Companion matrix of a monic polynomial (constant term first)."""
    if not pol.is_monic(f):
        raise ValueError("companion matrix needs a monic polynomial")
    n = pol.degree(f)
    return as_matrix(
        [
            [
                -f[i] if j == n - 1 else (1 if j == i - 1 else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def lie_bracket(a: Mat, b: Mat) -> Mat:
    """AB - BA: two integer products over one common denominator."""
    if len(a) != len(b) or not is_square(a) or not is_square(b):
        raise DimensionError("Lie bracket needs square matrices of equal size")
    da, na = _numerators(a)
    db, nb = _numerators(b)
    d = da * db
    return tuple(tuple(Fraction(x - y, d) for x, y in zip(ra, rb))
                 for ra, rb in zip(_product(na, nb), _product(nb, na)))


def _ambient_dimension(mats: list, n: int | None) -> int:
    if not mats:
        if n is None:
            raise DimensionError("empty span needs an explicit ambient dimension")
        return n
    m = len(mats[0])
    if n is not None and n != m:
        raise DimensionError(f"span elements are {m} x {m}, not {n} x {n}")
    if any(len(a) != m or not is_square(a) for a in mats):
        raise DimensionError("span elements must be square and equally sized")
    return m


class MatrixSpan:
    """A Q-span of n x n matrices, stored as a linearly independent basis
    together with the echelon basis of its flattened elements."""

    def __init__(self, mats: Iterable[Mat], n: int | None = None):
        mats = [as_matrix(m) for m in mats]
        n = _ambient_dimension(mats, n)
        echelon = linalg.Echelon(n * n)
        if not all(echelon.add(flatten(m)) for m in mats):
            raise ValueError("span basis is linearly dependent")
        self.n = n
        self.basis = tuple(mats)
        self._echelon = echelon

    def _extended(self, mats: Iterable[Mat]) -> "MatrixSpan":
        """This span plus the matrices (of the right shape) outside it, in
        order; the basis is this basis followed by the matrices kept."""
        echelon = self._echelon.copy()
        kept = tuple(m for m in mats if echelon.add(flatten(m)))
        if not kept:
            return self
        new = MatrixSpan.__new__(MatrixSpan)
        new.n = self.n
        new.basis = self.basis + kept
        new._echelon = echelon
        return new

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, a: Mat) -> bool:
        a = as_matrix(a)
        if len(a) != self.n or not is_square(a):
            raise DimensionError("dimension mismatch")
        return self._echelon.contains(flatten(a))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixSpan):
            return NotImplemented
        return (
            self.n == other.n
            and self.dim == other.dim
            and all(self._echelon.contains(flatten(m)) for m in other.basis)
        )

    def __hash__(self):
        raise TypeError("MatrixSpan is unhashable")


def span_of(mats: Iterable[Mat], n: int | None = None) -> MatrixSpan:
    """Span of arbitrary (possibly dependent) matrices."""
    mats = [as_matrix(m) for m in mats]
    n = _ambient_dimension(mats, n)
    return MatrixSpan([], n=n)._extended(mats)


def span_sum(s1: MatrixSpan, s2: MatrixSpan) -> MatrixSpan:
    if s1.n != s2.n:
        raise DimensionError("dimension mismatch")
    return s1._extended(s2.basis)


def bracket_closure(s: MatrixSpan) -> MatrixSpan:
    """Smallest Lie subalgebra of gl(n, Q) containing the span.

    Each round brackets, in lexicographic order, only the pairs (i, j)
    with j beyond the previous round's basis: the brackets of older pairs
    already lie in the span, so skipping them keeps the same basis."""
    current, old = s, 0
    while True:
        basis = current.basis
        nxt = current._extended(
            lie_bracket(basis[i], basis[j])
            for i in range(len(basis)) for j in range(max(i + 1, old), len(basis))
        )
        if nxt is current:
            return current
        current, old = nxt, len(basis)
