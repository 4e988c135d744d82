"""Shared test corpus: polynomials with known Galois data and known
hull dimensions for their companion matrices, plus the working prime and
permutation group of the permutation route.

Polynomials are coefficient tuples, constant term first.
"""

from dataclasses import dataclass

from alghull import galois, padic
from alghull import relations as rel


@dataclass(frozen=True)
class Entry:
    label: str
    poly: tuple
    group_order: int  # order of the actual Galois group (degree bound r)
    expected_dim: int  # hull dimension of the companion matrix


CORPUS = (
    Entry("x^2-2", (-2, 0, 1), 2, 1),
    Entry("x^2+1", (1, 0, 1), 2, 1),
    Entry("x^2-x-1", (-1, -1, 1), 2, 2),
    Entry("x^4-2", (-2, 0, 0, 0, 1), 8, 2),
    Entry("x^4+1", (1, 0, 0, 0, 1), 4, 2),
    Entry("x^4+x^3+x^2+x+1", (1, 1, 1, 1, 1), 4, 4),
    Entry("x^4-10x^2+1", (1, 0, -10, 0, 1), 4, 2),
    Entry("x^4+4x^2+2", (2, 0, 4, 0, 1), 4, 2),
    Entry("x^4-x^2+2", (2, 0, -1, 0, 1), 8, 2),
    Entry("x^5+x^4-4x^3-3x^2+3x+1", (1, 3, -3, -4, 1, 1), 5, 5),
    Entry("x^5-2", (-2, 0, 0, 0, 0, 1), 20, 4),
    Entry("x^6-2", (-2, 0, 0, 0, 0, 0, 1), 12, 2),
    Entry("x^6+x^3+1", (1, 0, 0, 1, 0, 0, 1), 6, 4),
    Entry("x^8+1", (1, 0, 0, 0, 0, 0, 0, 0, 1), 8, 4),
    Entry("x^8-x^4+1", (1, 0, 0, 0, -1, 0, 0, 0, 1), 8, 4),
)


def prime_for(entry: Entry) -> int:
    """The prime the permutation route picks (largest residue degree)."""
    return padic.root_context(entry.poly, prefer="max").p


def group_for(entry: Entry, seed: int = 0):
    """The Frobenius group of the context the permutation route uses.  The
    route only validates a group's generators, so a larger group would
    change no answer."""
    return galois.PermGroup.frobenius(
        padic.root_context(entry.poly, prefer="max", seed=seed))


def horner(f, alpha):
    """f(alpha) for an integral f (constant term first) at a PadicElement
    alpha, by element * and + only: the Hensel-residual oracle, apart from
    padic's own Horner kernel (padic._horner)."""
    ring = alpha.ring
    acc = ring.from_int(f[-1])
    for c in reversed(f[:-1]):
        acc = acc * alpha + ring.from_int(c)
    return acc


def combination(targets, e):
    """The target sum e_1 g_1 + ... + e_s g_s, for the public zero test."""
    return rel.ExponentPolynomial(tuple(
        (int(c) * tc, exps) for c, g in zip(e, targets.targets) if c for tc, exps in g.terms))
