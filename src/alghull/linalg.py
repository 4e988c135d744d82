"""Exact linear algebra over Q on row vectors (tuples of Fractions).

Spans are handled by one kernel, `Echelon`: an echelon basis of a row
space that grows one vector at a time.  Stored row k has a 1 at its pivot
column and a 0 in every column before it, so it is also 0 at the pivot of
every earlier row.  `Echelon.reduce` clears the pivots in insertion order;
the residual is zero exactly when the vector lies in the span.
`Echelon.add` keeps a vector only when its residual is nonzero.  With
`track=True` every stored row also carries its coefficients on the vectors
kept so far, so a vector of the span can be written in terms of them
(`Echelon.express_or_add`, the Krylov step of `matrices.min_poly`).
`rank`, `in_rowspace` and every span operation of `matrices` run on it.
`rref` (reduced row echelon form of a whole matrix) serves `right_kernel`
and `matrices.mat_inverse`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)


def _frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in r] for r in rows]


def rref(rows: Sequence[Sequence]) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = _frac_rows(rows)
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
    """Echelon basis of a subspace of Q^ncols, grown one vector at a time."""

    __slots__ = ("ncols", "_rows", "_coeffs")

    def __init__(self, ncols: int, track: bool = False):
        self.ncols = ncols
        # (pivot, ((column, entry), ...)): the nonzero entries after the 1
        self._rows: list[tuple[int, tuple]] = []
        # with tracking, row k as coefficients on the first k+1 kept vectors
        self._coeffs: list[list[Fraction]] | None = [] if track else None

    def __len__(self) -> int:
        return len(self._rows)

    def copy(self) -> "Echelon":
        new = Echelon(self.ncols)
        new._rows = list(self._rows)
        new._coeffs = None if self._coeffs is None else list(self._coeffs)
        return new

    def _reduce(self, v) -> tuple[list[Fraction], list[Fraction]]:
        if len(v) != self.ncols:
            raise ValueError(f"vector of length {len(v)} in a space of dimension {self.ncols}")
        r = [x if type(x) is Fraction else Fraction(x) for x in v]
        multipliers = []
        for pivot, tail in self._rows:
            a = r[pivot]
            multipliers.append(a)
            if a:
                r[pivot] = _ZERO
                for j, b in tail:
                    r[j] -= a * b
        return r, multipliers

    def _combination(self, multipliers) -> tuple[Fraction, ...]:
        """Coefficients on the kept vectors of sum(multipliers[k] * row k)."""
        out = [_ZERO] * len(multipliers)
        for a, coeffs in zip(multipliers, self._coeffs):
            if a:
                for j, c in enumerate(coeffs):
                    out[j] += a * c
        return tuple(out)

    def _keep(self, r, multipliers) -> bool:
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        inv = 1 / r[pivot]
        self._rows.append(
            (pivot, tuple((j, r[j] * inv) for j in range(pivot + 1, self.ncols) if r[j]))
        )
        if self._coeffs is not None:
            # row = (v - sum(multipliers[k] * row k)) / r[pivot]
            coeffs = [-c * inv for c in self._combination(multipliers)]
            coeffs.append(inv)
            self._coeffs.append(coeffs)
        return True

    def reduce(self, v) -> tuple[Fraction, ...]:
        """v minus its combination of the stored rows; zero iff v is in the span."""
        return tuple(self._reduce(v)[0])

    def contains(self, v) -> bool:
        return not any(self._reduce(v)[0])

    def add(self, v) -> bool:
        """Keep v when it is outside the span; return whether it was kept."""
        return self._keep(*self._reduce(v))

    def express_or_add(self, v) -> tuple[Fraction, ...] | None:
        """Coefficients of v on the kept vectors when v is in the span;
        otherwise keep v and return None.  Needs track=True."""
        if self._coeffs is None:
            raise ValueError("express_or_add needs an Echelon built with track=True")
        r, multipliers = self._reduce(v)
        if self._keep(r, multipliers):
            return None
        return self._combination(multipliers)


def _echelon(rows: Sequence[Sequence], ncols: int) -> Echelon:
    basis = Echelon(ncols)
    for row in rows:
        basis.add(row)
    return basis


def rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0])))


def in_rowspace(rows: Sequence[Sequence], v: Sequence) -> bool:
    return _echelon(rows, len(v)).contains(v)


def right_kernel(rows: Sequence[Sequence]) -> list[tuple]:
    """Basis of {x : rows . x = 0} as row vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fj in free:
        v = [Fraction(0)] * ncols
        v[fj] = Fraction(1)
        for row, pj in zip(reduced, pivots):
            v[pj] = -row[fj]
        basis.append(tuple(v))
    return basis
