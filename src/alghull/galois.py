"""Permutation actions on labeled p-adic roots, with validation, plus the
two helpers the closed-form hulls use: the irreducibility test over Q and
the trace-zero part of a span.

Permutations are 0-indexed tuples of images: sigma maps i to sigma[i].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from . import linalg, matrices, padic


def _frobenius(roots) -> tuple[int, ...]:
    """The Frobenius permutation of labeled roots: those of a RootContext,
    which computes it once, or ApproxRoots."""
    if isinstance(roots, padic.RootContext):
        return roots.frobenius
    return padic.frobenius_perm(roots)


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

    def __init__(self, degree: int, generators: Sequence[Sequence[int]],
                 provenance: str = "user-supplied"):
        self.degree = degree
        self.generators = tuple(_check_perm(g, degree) for g in generators)
        self.provenance = provenance
        self._elements: tuple | None = None

    @classmethod
    def frobenius(cls, roots) -> "PermGroup":
        """Cyclic group generated by the Frobenius permutation of the
        labeled roots (a RootContext or ApproxRoots, see _frobenius)."""
        frob = _frobenius(roots)
        return cls(len(frob), [frob], provenance="frobenius")

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


def validate_action(sigma: Sequence[int], roots) -> bool:
    """Necessary Galois-consistency check for a permutation of the labeled
    roots (a RootContext or ApproxRoots, see _frobenius).

    A genuine Galois element commutes with Frobenius on root labels and
    therefore preserves Frobenius orbits setwise up to relabeling; in
    particular it must map each root to one lying in a mod-p factor of
    the same degree.  That factor-degree (orbit-length) preservation is
    what is checked here; it is a necessary condition, not a full
    sufficiency proof.
    """
    frob = _frobenius(roots)
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


def negation_perm(roots: "padic.ApproxRoots"):
    """Permutation pairing each root with its negative, or None.

    When the root set of an (even) polynomial is closed under negation,
    the pairing is induced by a field automorphism and is safe to feed to
    the permutation-based relation search.  Matching is done at the
    roots' stored precision, so use a comfortably large one.
    """
    rs = list(roots.roots)
    images = []
    for a in rs:
        j = next((idx for idx, b in enumerate(rs) if (a + b).is_zero()), None)
        if j is None:
            return None
        images.append(j)
    perm = tuple(images)
    return perm if sorted(perm) == list(range(len(rs))) else None


def power_perm(roots: "padic.ApproxRoots", u: int):
    """Permutation sending each root to its u-th power, or None.

    Exists for roots of unity (and scaled variants) where x -> x^u is a
    field automorphism permuting the roots; matched at stored precision.
    """
    rs = list(roots.roots)
    images = []
    for a in rs:
        val = a ** u
        j = next((idx for idx, b in enumerate(rs) if (val - b).is_zero()), None)
        if j is None:
            return None
        images.append(j)
    perm = tuple(images)
    return perm if sorted(perm) == list(range(len(rs))) else None


def pairing_group(roots: "padic.ApproxRoots"):
    """Signed permutations of the root pairs of an even polynomial, or
    None when the roots are not closed under negation.

    Generated by the transpositions swapping each root with its negative
    together with the swaps exchanging whole pairs.  Safe for the
    relation search whenever the relation lattice is spanned by the pair
    sums (the even irreducible quartic case): every generator then maps
    pair sums to pair sums, so no genuine relation is lost, while the
    pair swaps contribute the cross-pair constraints that the sign flips
    alone cannot see.
    """
    neg = negation_perm(roots)
    if neg is None:
        return None
    n = len(roots.roots)
    pairs = [(i, neg[i]) for i in range(n) if neg[i] > i]
    gens = []
    for i, j in pairs:
        t = list(range(n))
        t[i], t[j] = j, i
        gens.append(tuple(t))
    for (a1, a2), (b1, b2) in zip(pairs, pairs[1:]):
        t = list(range(n))
        t[a1], t[b1] = b1, a1
        t[a2], t[b2] = b2, a2
        gens.append(tuple(t))
    return PermGroup(n, gens, provenance="user-supplied")


def radical_group(roots: "padic.ApproxRoots"):
    """Dihedral Galois action for f = x^n - a (a != 0), or None.

    The roots are r, r z, ..., r z^(n-1) for a primitive n-th root of
    unity z; labels are indexed by matching the unit ratios a_i / a_0
    against powers of z at the residue level (distinct since f is
    squarefree mod p).  Generators: the rotation index -> index + 1
    (a Kummer automorphism over Q(z)) and the multipliers index -> u*index
    for u coprime to n (z -> z^u fixing a real radical root; genuine
    because the degrees of Q(root) and Q(z) are coprime or the root is
    real, so the cyclotomic action lifts).  The result contains the
    Galois group of x^n - a.
    """
    rs = list(roots.roots)
    n = len(rs)
    if n < 2:
        return None
    base = rs[0]
    try:
        inv = base.inverse()
    except ZeroDivisionError:
        return None
    ratios = [r * inv for r in rs]
    # find a ratio of multiplicative order exactly n
    zeta = None
    for cand in ratios:
        powers = [cand]
        for _ in range(n - 1):
            powers.append(powers[-1] * cand)
        if (powers[n - 1] - 1).is_zero() and all(
            not (powers[m] - 1).is_zero() for m in range(n - 1)
        ):
            zeta = cand
            zpowers = [roots.ring.one()] + powers[:-1]
            break
    if zeta is None:
        return None
    index = {}
    for i, rho in enumerate(ratios):
        j = next((j for j, zp in enumerate(zpowers) if (rho - zp).is_zero()), None)
        if j is None:
            return None
        index[i] = j
    label_of = {j: i for i, j in index.items()}
    if len(label_of) != n:
        return None
    gens = [tuple(label_of[(index[i] + 1) % n] for i in range(n))]
    for u in range(2, n):
        if math.gcd(u, n) == 1:
            gens.append(tuple(label_of[(u * index[i]) % n] for i in range(n)))
    if n > 1:
        gens.append(tuple(label_of[(-index[i]) % n] for i in range(n)))
    return PermGroup(n, gens, provenance="user-supplied")


def power_group(roots: "padic.ApproxRoots", exponents) -> "PermGroup | None":
    """Group generated by the maps x -> x^u for the given exponents.

    Genuine Galois elements when the roots are roots of unity; returns
    None if any exponent fails to permute the roots.
    """
    gens = []
    for u in exponents:
        g = power_perm(roots, u)
        if g is None:
            return None
        gens.append(g)
    return PermGroup(len(roots.roots), gens, provenance="user-supplied")


# Precision at which group_of_kind matches the roots of a RootContext.
GROUP_PRECISION = 8


def group_of_kind(kind: str, roots, exponents=None, images=None) -> PermGroup:
    """The permutation group of the named kind on labeled roots:
    "frobenius", "radical", "pairing", "power" (the maps x -> x^u for the
    given exponents) or "explicit" (generated by 1-indexed one-line
    images).  roots is ApproxRoots or a RootContext; a context gives its
    Frobenius permutation, and its roots at GROUP_PRECISION to the other
    kinds.  Raises ValueError for an unknown kind, a missing argument of
    its kind, or when the roots do not admit the construction."""
    if kind == "frobenius":
        g = PermGroup.frobenius(roots)
    elif isinstance(roots, padic.RootContext):
        return group_of_kind(kind, roots.roots(GROUP_PRECISION), exponents, images)
    elif kind == "radical":
        g = radical_group(roots)
    elif kind == "pairing":
        g = pairing_group(roots)
    elif kind == "power":
        if exponents is None:
            raise ValueError("a power group needs exponents")
        g = power_group(roots, exponents)
    elif kind == "explicit":
        if images is None:
            raise ValueError("an explicit group needs images")
        g = PermGroup.from_images(len(roots.roots), images)
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    if g is None:
        raise ValueError(f"could not build a {kind} group on these roots")
    return g


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
