"""Integer lattices and modular linear algebra.

Integral LLL reduction (integer Gram determinants, no rationals), row
Hermite normal form, nullspaces over Z/p^k (Howell form, which handles the
zero divisors correctly), a p-adic rank bound from the elementary divisors
mod p^k, rational reconstruction, and saturation of rational row spans to
Z-bases.

Matrices are tuples of row tuples of ints (rationals for saturate input).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _int_rows(rows) -> list[list[int]]:
    return [[int(x) for x in r] for r in rows]


# -------------------------------------------------------------------- LLL

def lll_reduce(rows: Sequence[Sequence[int]], delta: Fraction = Fraction(3, 4)):
    """LLL-reduced basis of the lattice generated by the rows.

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.6.7): it keeps the Gram determinants d[0] = 1, d[i+1] of rows
    0..i, and lam[i][j] = d[j+1] mu[i][j], all integers, so every division
    is exact and no rational is formed.  mu[i][j] is rounded half to even,
    as round() does on a Fraction.  Rows must have equal length and be
    linearly independent.  With the default delta = 3/4 every output row
    b_i satisfies ||b_i||^2 <= 2^(n-1) M^2 whenever the lattice contains n
    independent vectors of norm at most M.
    """
    return _lll(rows, delta)[0]


def _lll(rows, delta: Fraction = Fraction(3, 4)):
    """lll_reduce, returning the reduced basis and its Gram determinants
    d[0] = 1, ..., d[n] (d[i] / d[i-1] is the squared norm of the i-th
    Gram-Schmidt vector, from 1)."""
    delta = Fraction(delta)
    if not (Fraction(1, 4) < delta < 1):
        raise ValueError("delta must lie in (1/4, 1)")
    b = [[int(x) for x in row] for row in rows]
    if len({len(row) for row in b}) > 1:
        raise ValueError("lll_reduce needs rows of equal length")
    n = len(b)
    d, lam = _gram_data(b)

    def reduce_row(i, j):
        dj = d[j + 1]
        if 2 * abs(lam[i][j]) > dj:
            q, r = divmod(lam[i][j], dj)
            if 2 * r > dj or (2 * r == dj and q % 2):
                q += 1
            b[i] = [x - q * y for x, y in zip(b[i], b[j])]
            for l in range(j):
                lam[i][l] -= q * lam[j][l]
            lam[i][j] -= q * dj

    i = 1
    while i < n:
        reduce_row(i, i - 1)
        m = lam[i][i - 1]
        if delta.denominator * (d[i + 1] * d[i - 1] + m * m) >= delta.numerator * d[i] ** 2:
            for j in range(i - 2, -1, -1):
                reduce_row(i, j)
            i += 1
        else:
            # swap rows i-1, i; every update below is an exact division
            new_d = (d[i + 1] * d[i - 1] + m * m) // d[i]
            b[i - 1], b[i] = b[i], b[i - 1]
            for j in range(i - 1):
                lam[i - 1][j], lam[i][j] = lam[i][j], lam[i - 1][j]
            for l in range(i + 1, n):
                t = lam[l][i]
                lam[l][i] = (d[i + 1] * lam[l][i - 1] - m * t) // d[i]
                lam[l][i - 1] = (new_d * t + m * lam[l][i]) // d[i + 1]
            d[i] = new_d
            i = max(i - 1, 1)
    return tuple(tuple(row) for row in b), d


def _gram_data(b: list[list[int]]):
    """Integer Gram-Schmidt data of independent rows b (Cohen, Alg. 2.6.7):
    d[0] = 1, d[i+1] the Gram determinant of rows 0..i, and lam[i][j] =
    d[j+1] mu[i][j] for j < i."""
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
        if d[i + 1] == 0:
            raise ValueError("lll_reduce needs linearly independent rows")
    return d, lam


def gram_schmidt_data(rows: Sequence[Sequence[int]]):
    """(mu, squared norms of the orthogonalized rows), exact over Q.

    Rational Gram-Schmidt, independent of lll_reduce's integer data; it is
    what is_lll_reduced checks against.
    """
    n = len(rows)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = []
    norms = []
    for i in range(n):
        v = [Fraction(x) for x in rows[i]]
        for j in range(i):
            mu[i][j] = sum(Fraction(x) * y for x, y in zip(rows[i], bstar[j])) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def is_lll_reduced(rows, delta: Fraction = Fraction(3, 4)) -> bool:
    mu, norms = gram_schmidt_data(rows)
    n = len(rows)
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    for i in range(1, n):
        if norms[i] < (Fraction(delta) - mu[i][i - 1] ** 2) * norms[i - 1]:
            return False
    return True


# -------------------------------------------------------------------- HNF

def _echelon_int(m: list[list[int]], ncols: int) -> list[int]:
    """Bring the first ncols columns of the integer rows m to row echelon
    form in place, by gcd elimination with unimodular row operations;
    return the pivot columns (pivot i sits in row i)."""
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for i in range(row + 1, len(m)):
            while m[i][col]:
                q = m[i][col] // m[row][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[row])]
                if m[i][col]:
                    m[row], m[i] = m[i], m[row]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return pivots


def hnf(rows: Sequence[Sequence[int]]):
    """Row Hermite normal form (zero rows dropped).

    Canonical: two generating sets span the same lattice iff their HNFs
    are identical.  Pivots are positive, entries above a pivot reduced to
    [0, pivot).
    """
    m = _int_rows(rows)
    if not m:
        return ()
    pivots = _echelon_int(m, len(m[0]))
    for row, col in enumerate(pivots):
        if m[row][col] < 0:
            m[row] = [-a for a in m[row]]
        for i in range(row):
            q = m[i][col] // m[row][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[row])]
    return tuple(tuple(r) for r in m[:len(pivots)])


def kernel_int(rows: Sequence[Sequence[int]]):
    """Z-basis of the left integer kernel {x in Z^m : x rows = 0}.

    Works by running HNF column elimination on [rows | I] and collecting
    the transform rows whose image part vanished.  The result generates a
    saturated sublattice of Z^m (it is the full kernel).
    """
    m = _int_rows(rows)
    nrows = len(m)
    if nrows == 0:
        return ()
    ncols = len(m[0])
    aug = [m[i] + [1 if j == i else 0 for j in range(nrows)] for i in range(nrows)]
    rank = len(_echelon_int(aug, ncols))
    return tuple(tuple(r[ncols:]) for r in aug[rank:] if all(x == 0 for x in r[:ncols]))


# ------------------------------------------------------------------ Z/p^k

def p_valuation(x: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer x."""
    if x == 0 or p < 2:
        raise ValueError(f"the {p}-adic valuation of {x} is unbounded")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def rank_lower_bound(rows: Sequence[Sequence[int]], p: int, k: int) -> int:
    """Number of elementary divisors of the integer matrix `rows` over Z_p
    with valuation below k: a lower bound on its rank over Q_p, read off
    the matrix mod p^k alone.

    Elimination mod p^k that pivots on an entry u p^v (u a unit) of least
    valuation in the whole remaining matrix: that entry divides every other
    one, so row and column operations split off p^v and leave the rest,
    and a pivot found mod p^k has v < k.  A row is scaled by the unit u
    rather than the pivot by u^-1, which spares an inverse mod p^k.
    (Howell pivots can outnumber the rank: [[p, 1]] mod p^2 has two of
    them and rank 1.)
    """
    pk = p**k
    m = [[x % pk for x in row] for row in rows]
    count = 0
    while True:
        entries = [(p_valuation(x, p), i, j)
                   for i, row in enumerate(m) for j, x in enumerate(row) if x]
        if not entries:
            return count
        v, i, j = min(entries)
        pivot = m.pop(i)
        u = pivot[j] // p**v
        for row in m:
            if row[j]:
                q = row[j] // p**v
                row[:] = [(u * a - q * b) % pk for a, b in zip(row, pivot)]
        count += 1


def howell(rows: Sequence[Sequence[int]], p: int, k: int):
    """Howell (strong echelon) form of the row module over Z/p^k.

    Canonical generating set: every element of the row module whose first
    nonzero coordinate is in column j is reachable from the rows with
    pivot column >= j.  Needed because Z/p^k has zero divisors.
    """
    mod = p**k
    m = [[x % mod for x in r] for r in rows]
    if not m:
        return ()
    ncols = len(m[0])
    work = list(m)
    out = []
    for col in range(ncols):
        # pick row with minimal p-valuation in this column
        best = None
        for i, r in enumerate(work):
            if r[col]:
                v = p_valuation(r[col], p)
                if best is None or v < best[1]:
                    best = (i, v)
        if best is None:
            continue
        i, v = best
        r = work.pop(i)
        # normalize pivot to p^v (multiply by inverse of the unit part)
        unit = r[col] // p**v
        inv = pow(unit, -1, mod)
        r = [(x * inv) % mod for x in r]
        # eliminate this column in remaining rows
        for j, w in enumerate(work):
            if w[col]:
                q = w[col] // p**v
                work[j] = [(a - q * b) % mod for a, b in zip(w, r)]
        # torsion complement: p^(k-v) * r has pivot 0, keep its tail
        if v > 0:
            t = [(x * p ** (k - v)) % mod for x in r]
            if any(t):
                work.append(t)
        out.append(r)
    # reduce above pivots
    for idx in range(len(out) - 1, -1, -1):
        r = out[idx]
        col = next(c for c, x in enumerate(r) if x)
        pv = r[col]
        for jdx in range(idx):
            w = out[jdx]
            if w[col]:
                q = w[col] // pv
                out[jdx] = [(a - q * b) % mod for a, b in zip(w, r)]
    return tuple(tuple(r) for r in out)


def nullspace_mod(rows: Sequence[Sequence[int]], p: int, k: int):
    """Generators of {v : v rows = 0 mod p^k}, in Howell form.

    Runs Howell on the augmented block [rows | I]; augmented rows whose
    image block vanished generate the left nullspace (including torsion
    generators such as p^j times a unit vector).  They are the Howell
    rows with pivot past the image block, so they are in Howell form
    already.
    """
    mod = p**k
    m = [[x % mod for x in r] for r in rows]
    nrows = len(m)
    if nrows == 0:
        return ()
    ncols = len(m[0])
    aug = [tuple(m[i]) + tuple(1 if j == i else 0 for j in range(nrows)) for i in range(nrows)]
    h = howell(aug, p, k)
    return tuple(r[ncols:] for r in h if all(x == 0 for x in r[:ncols]))


def rational_reconstruction(a: int, m: int):
    """Unique u/v with |u|, v <= floor(sqrt(m/2)), gcd(v, m) = 1 and
    u = a v mod m, or None when no such fraction exists.

    Half-extended Euclid on (m, a) with early stop at the bound.
    """
    if not 0 <= a < m:
        raise ValueError("need 0 <= a < m")
    bound = math.isqrt(m // 2)
    r0, r1 = m, a
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    u, v = r1, t1
    if v < 0:
        u, v = -u, -v
    if v == 0 or v > bound or abs(u) > bound or math.gcd(v, m) != 1:
        return None
    if (u - a * v) % m != 0:
        return None
    return Fraction(u, v)


# -------------------------------------------------------------- saturation

def saturate(rows: Sequence[Sequence]):
    """Z-basis of V ∩ Z^s for the Q-span V of the rows.

    Clears denominators, then replaces the resulting lattice by its
    saturation via the transpose-kernel method: the integer kernel of the
    transposed relation matrix is automatically saturated, so computing
    ker(ker(A)^T restricted appropriately) recovers V ∩ Z^s exactly.
    """
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
    # annihilator of V in Z^ncols, then its integer kernel: a saturated
    # lattice with Q-span exactly V.
    ann = kernel_int([list(col) for col in zip(*ints)])
    if not ann:
        return hnf([[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)])
    sat = kernel_int([list(col) for col in zip(*ann)])
    return hnf(sat)
