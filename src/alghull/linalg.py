"""Exact linear algebra over Q on row vectors, computed on integers.

Spans are handled by one kernel, `Echelon`: an echelon basis of a row
space that grows one vector at a time.  A vector comes in with int or
Fraction entries and is scaled once by the least common denominator of
its entries; all further work is on Python integers.  Stored row k is a
primitive integer vector (the gcd of its entries is 1) with a positive
entry, its pivot value, at its pivot column and 0 in every column before
it, so it is also 0 at the pivot of every earlier row.  `Echelon.reduce`
clears the pivots in insertion order by gcd-scaled integer row
operations: with a the entry at the pivot and b the pivot value, the
working vector r becomes (b/g) r - (a/g) row, g = gcd(a, b), and after a
step that scaled r it is divided by its content.  The true residual is r
over the accumulated scale; it is zero exactly when the vector lies in
the span.  `Echelon.add` keeps a vector only when its residual is
nonzero.  With `track=True` every stored row also carries integer
coefficients that write it in terms of the vectors kept so far, so a
vector of the span can be written in terms of them
(`Echelon.express_or_add`, the Krylov step of `matrices.min_poly`).
`rank`, `in_rowspace` and every span operation of `matrices` run on it,
and so does `rref` (reduced row echelon form of a whole matrix, for
`right_kernel` and `matrices.mat_inverse`): the echelon rows sorted by
pivot and cleared above the pivots.  Fractions are built only for the
values returned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def _integer_vector(v) -> tuple[int, list[int]]:
    """(d, d v) for the least common denominator d of the entries of v."""
    if all(type(x) is int for x in v):
        return 1, list(v)
    q = [x if type(x) is Fraction else Fraction(x) for x in v]
    d = math.lcm(*(x.denominator for x in q))
    return d, [x.numerator * (d // x.denominator) for x in q]


class Echelon:
    """Echelon basis of a subspace of Q^ncols, grown one vector at a time."""

    __slots__ = ("ncols", "_rows", "_track")

    def __init__(self, ncols: int, track: bool = False):
        self.ncols = ncols
        # (pivot, pivot value, row, coefficients): row is a primitive
        # integer vector; with tracking, row = sum(coefficients[j] * v_j)
        # over the kept vectors v_0, ..., v_k, otherwise coefficients is ()
        self._rows: list[tuple[int, int, tuple, tuple]] = []
        self._track = track

    def __len__(self) -> int:
        return len(self._rows)

    def copy(self) -> "Echelon":
        new = Echelon(self.ncols, self._track)
        new._rows = list(self._rows)
        return new

    def _reduce(self, v, scale: bool) -> tuple[list[int], list[int]]:
        """(r, c) with r the integer residual of v.  With scale, c holds
        integers with r = sum(c[j] * v_j) + c[-1] * v over the kept vectors
        v_j (all of c[:-1] is 0 without tracking), so that the true
        residual is r / c[-1]; otherwise c is empty."""
        if len(v) != self.ncols:
            raise ValueError(f"vector of length {len(v)} in a space of dimension {self.ncols}")
        d, r = _integer_vector(v)
        if not scale:
            c = []
        elif self._track:
            c = [0] * len(self._rows) + [d]
        else:
            c = [d]
        gcd = math.gcd
        for pivot, b, row, coeffs in self._rows:
            a = r[pivot]
            if not a:
                continue
            g = gcd(a, b)
            a //= g
            m = b // g
            r = [m * x - a * y for x, y in zip(r, row)]
            if c:
                c = [m * x - a * y for x, y in zip(c, coeffs)] + [m * x for x in c[len(coeffs):]]
            if m > 1:
                g = gcd(gcd(*r), *c)
                if g > 1:
                    r = [x // g for x in r]
                    c = [x // g for x in c]
        return r, c

    def _keep(self, r, c) -> bool:
        """Store the residual r (with its coefficients c) when it is nonzero."""
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        coeffs = tuple(c) if self._track else ()
        g = math.gcd(math.gcd(*r), *coeffs)
        if r[pivot] < 0:
            g = -g
        self._rows.append((pivot, r[pivot] // g, tuple(x // g for x in r),
                           tuple(x // g for x in coeffs)))
        return True

    def _express(self, v) -> tuple[list[int], int] | None:
        """(x, y) with v = -sum(x[j] * v_j) / y over the kept vectors when v
        is in the span; otherwise keep v and return None.  Needs track=True."""
        if not self._track:
            raise ValueError("express_or_add needs an Echelon built with track=True")
        r, c = self._reduce(v, True)
        if self._keep(r, c):
            return None
        return c[:-1], c[-1]

    def reduce(self, v) -> tuple[Fraction, ...]:
        """v minus its combination of the stored rows; zero iff v is in the span."""
        r, c = self._reduce(v, True)
        return tuple(Fraction(x, c[-1]) for x in r)

    def contains(self, v) -> bool:
        return not any(self._reduce(v, False)[0])

    def add(self, v) -> bool:
        """Keep v when it is outside the span; return whether it was kept."""
        return self._keep(*self._reduce(v, self._track))

    def express_or_add(self, v) -> tuple[Fraction, ...] | None:
        """Coefficients of v on the kept vectors when v is in the span;
        otherwise keep v and return None.  Needs track=True."""
        found = self._express(v)
        if found is None:
            return None
        x, y = found
        return tuple(Fraction(-a, y) for a in x)


def _echelon(rows: Sequence[Sequence], ncols: int) -> Echelon:
    basis = Echelon(ncols)
    for row in rows:
        basis.add(row)
    return basis


def rref(rows: Sequence[Sequence]) -> tuple[list[tuple], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The echelon rows of `Echelon`, sorted by pivot, are cleared above the
    pivots from the last row up, on integers; each row then becomes
    Fractions over its pivot value."""
    if not rows:
        return [], []
    ordered = sorted(_echelon(rows, len(rows[0]))._rows)
    pivots = [pivot for pivot, _, _, _ in ordered]
    reduced = [list(row) for _, _, row, _ in ordered]
    values = [b for _, b, _, _ in ordered]
    gcd = math.gcd
    for i in range(len(ordered) - 2, -1, -1):
        r = reduced[i]
        for j in range(i + 1, len(ordered)):
            a = r[pivots[j]]
            if a:
                g = gcd(a, values[j])
                a //= g
                m = values[j] // g
                r = [m * x - a * y for x, y in zip(r, reduced[j])]
        g = gcd(*r)
        reduced[i] = [x // g for x in r]
        values[i] = reduced[i][pivots[i]]
    return [tuple(Fraction(x, b) for x in row) for row, b in zip(reduced, values)], pivots


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
