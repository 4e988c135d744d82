"""Fraction references for alghull's integer linear algebra.

These are the Fraction implementations that `linalg.Echelon`,
`linalg.rref`, `matrices.mat_mul`, `matrices.lie_bracket`,
`matrices.linear_combination` and the Krylov loop of `matrices._krylov`
replaced: every entry is a normalised Fraction and every row operation
works on them.  They serve as oracles only; `right_kernel`, `rank`,
`in_rowspace` and `mat_inverse` are rebuilt here on the reference `rref`
and `Echelon`, as the library builds them on its own.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def rref(rows):
    """Reduced row echelon form by Gauss-Jordan on Fractions; returns
    (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for j in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][j] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][j]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j] != 0:
                c = m[i][j]
                m[i] = [a - c * b for a, b in zip(m[i], m[r])]
        pivots.append(j)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


class Echelon:
    """Echelon basis over Q with a 1 at each stored pivot."""

    def __init__(self, ncols, track=False):
        self.ncols = ncols
        self._rows = []
        self._coeffs = [] if track else None

    def __len__(self):
        return len(self._rows)

    def copy(self):
        new = Echelon(self.ncols)
        new._rows = list(self._rows)
        new._coeffs = None if self._coeffs is None else list(self._coeffs)
        return new

    def _reduce(self, v):
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        r = [Fraction(x) for x in v]
        multipliers = []
        for pivot, tail in self._rows:
            a = r[pivot]
            multipliers.append(a)
            if a:
                r[pivot] = _ZERO
                for j, b in tail:
                    r[j] -= a * b
        return r, multipliers

    def _combination(self, multipliers):
        out = [_ZERO] * len(multipliers)
        for a, coeffs in zip(multipliers, self._coeffs):
            if a:
                for j, c in enumerate(coeffs):
                    out[j] += a * c
        return tuple(out)

    def _keep(self, r, multipliers):
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        inv = 1 / r[pivot]
        self._rows.append(
            (pivot, tuple((j, r[j] * inv) for j in range(pivot + 1, self.ncols) if r[j]))
        )
        if self._coeffs is not None:
            coeffs = [-c * inv for c in self._combination(multipliers)]
            coeffs.append(inv)
            self._coeffs.append(coeffs)
        return True

    def reduce(self, v):
        return tuple(self._reduce(v)[0])

    def contains(self, v):
        return not any(self._reduce(v)[0])

    def add(self, v):
        return self._keep(*self._reduce(v))

    def express_or_add(self, v):
        r, multipliers = self._reduce(v)
        if self._keep(r, multipliers):
            return None
        return self._combination(multipliers)


def rank(rows):
    return len(rref(rows)[0])


def in_rowspace(rows, v):
    basis = Echelon(len(v))
    for row in rows:
        basis.add(row)
    return basis.contains(v)


def right_kernel(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    basis = []
    for fj in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[fj] = Fraction(1)
        for row, pj in zip(reduced, pivots):
            v[pj] = -row[fj]
        basis.append(tuple(v))
    return basis


def mat_inverse(a):
    n = len(a)
    reduced, pivots = rref(
        [tuple(row) + tuple(1 if i == j else 0 for j in range(n)) for i, row in enumerate(a)]
    )
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def mat_mul(a, b):
    return tuple(tuple(sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)),
                           Fraction(0))
                       for col in zip(*b)) for row in a)


def lie_bracket(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(ab, ba))


def linear_combination(coeffs, mats, n):
    acc = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    for c, m in zip(coeffs, mats):
        if c:
            acc = tuple(tuple(x + Fraction(c) * Fraction(y) for x, y in zip(ra, rm))
                        for ra, rm in zip(acc, m))
    return acc


def krylov(x):
    """(minimal polynomial, [I, X, ..., X^t]): the Fraction Krylov loop."""
    n = len(x)
    if n == 0:
        return (Fraction(1),), []
    echelon = Echelon(n * n, track=True)
    power = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    found = []
    while True:
        coeffs = echelon.express_or_add(tuple(v for row in power for v in row))
        if coeffs is not None:
            return tuple(-c for c in coeffs) + (Fraction(1),), found
        found.append(power)
        power = mat_mul(power, x)
