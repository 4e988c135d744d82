"""Permutation groups of labeled p-adic roots, plus the two helpers the
closed-form hulls use: the irreducibility test over Q and the trace-zero
part of a span.

Permutations are 0-indexed tuples of images: sigma maps i to sigma[i].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import linalg, matrices, padic


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Permutation a after b: (a*b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inverse(a: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _check_perm(p: Sequence[int], n: int) -> tuple[int, ...]:
    p = tuple(int(x) for x in p)
    if len(p) != n or sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of {{0..{n-1}}}: {p}")
    return p


class PermGroup:
    """Group generated by permutations of {0..n-1}.

    Elements are enumerated lazily by closure (capped, since only small
    groups are of interest here); sampling of random elements uses seeded
    random words in the generators.
    """

    MAX_ENUMERATED = 20000

    def __init__(self, degree: int, generators: Sequence[Sequence[int]]):
        self.degree = degree
        self.generators = tuple(_check_perm(g, degree) for g in generators)
        self._elements: tuple | None = None

    @classmethod
    def frobenius(cls, ctx: padic.RootContext) -> "PermGroup":
        """Cyclic group generated by the Frobenius permutation of the
        context's labeled roots."""
        return cls(len(ctx.frobenius), [ctx.frobenius])

    @classmethod
    def from_images(cls, degree: int, images) -> "PermGroup":
        """Group generated by 1-indexed one-line images (the CLI format)."""
        return cls(degree, [tuple(int(i) - 1 for i in im) for im in images])

    def elements(self) -> tuple[tuple[int, ...], ...]:
        if self._elements is None:
            ident = identity_perm(self.degree)
            seen = {ident}
            frontier = [ident]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.generators:
                        y = compose(g, x)
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                            if len(seen) > self.MAX_ENUMERATED:
                                raise ValueError("group too large to enumerate")
                frontier = nxt
            self._elements = tuple(sorted(seen))
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())

    def __contains__(self, perm) -> bool:
        return tuple(perm) in self.elements()

    def random_element(self, rng: random.Random) -> tuple[int, ...]:
        if not self.generators:
            return identity_perm(self.degree)
        x = identity_perm(self.degree)
        for _ in range(rng.randrange(1, 16)):
            g = rng.choice(self.generators)
            if rng.random() < 0.5:
                g = perm_inverse(g)
            x = compose(g, x)
        return x


@dataclass
class Subset:
    """A subset of group elements used by the relation search."""

    perms: list


def initial_subset(n: int) -> Subset:
    return Subset([identity_perm(n)])


def grow_subset(s: Subset, group: PermGroup, seed: int = 0) -> Subset:
    """Add at most ceil(0.2 * #S) fresh group elements (seeded sampling).

    Returns a new Subset, with the same elements when the group has none
    outside S.
    """
    want = -(-len(s.perms) // 5)  # ceil(0.2 #S)
    have = set(s.perms)
    rng = random.Random((seed, len(s.perms), group.degree).__hash__())
    added = []
    # seeded random words first, with an exhaustive fallback for tiny groups
    for _ in range(50 * want):
        if len(added) == want:
            break
        x = group.random_element(rng)
        if x not in have:
            have.add(x)
            added.append(x)
    if len(added) < want:
        for x in group.elements():
            if len(added) == want:
                break
            if x not in have:
                have.add(x)
                added.append(x)
    return Subset(list(s.perms) + added)


def validate_action(sigma: Sequence[int], ctx: padic.RootContext) -> bool:
    """Whether sigma maps each labeled root of the context to a root in a
    Frobenius orbit of the same length.

    This checks orbit-length preservation only and is not a test of
    Galois membership: a Galois element sigma maps the orbits of
    Frobenius F to those of sigma F sigma^-1, not of F, so genuine Galois
    elements can fail it (x^4 + 8x + 12, group A4, at p = 5).  The
    relation search does not call it; perfbench's tracer still names it.
    """
    frob = ctx.frobenius
    n = len(frob)
    sigma = _check_perm(sigma, n)
    # orbit length of each index under Frobenius
    lengths = [0] * n
    for i in range(n):
        j, l = i, 0
        while True:
            j = frob[j]
            l += 1
            if j == i:
                break
        lengths[i] = l
    return all(lengths[sigma[i]] == lengths[i] for i in range(n))


# ------------------------------------------------- closed-form helpers

def _is_irreducible_over_q(f) -> bool:
    import sympy  # deferred: only the closed-form oracles use it, and it is slow to import

    x = sympy.symbols("x")
    expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(f))
    return sympy.Poly(expr, x, domain="QQ").is_irreducible


def trace_zero_subspace(basis: matrices.MatrixSpan) -> matrices.MatrixSpan:
    """Elements of the span with trace zero."""
    traces = [matrices.trace(m) for m in basis.basis]
    return matrices.MatrixSpan(
        [matrices.linear_combination(gamma, basis.basis, basis.n)
         for gamma in linalg.right_kernel([traces])],
        n=basis.n,
    )
