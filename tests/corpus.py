"""Shared test corpus: polynomials with known Galois data and known
hull dimensions for their companion matrices, plus helpers to build the
permutation groups the relation search needs.

Polynomials are coefficient tuples, constant term first.
"""

from dataclasses import dataclass

from alghull import galois, padic
from alghull import relations as rel


@dataclass(frozen=True)
class Entry:
    label: str
    poly: tuple
    group_kind: str  # "frobenius" | "radical" | "pairing" | "power"
    group_order: int  # order of the actual Galois group (degree bound r)
    expected_dim: int  # hull dimension of the companion matrix
    exponents: tuple = ()  # for group_kind == "power"


CORPUS = (
    Entry("x^2-2", (-2, 0, 1), "frobenius", 2, 1),
    Entry("x^2+1", (1, 0, 1), "frobenius", 2, 1),
    Entry("x^2-x-1", (-1, -1, 1), "frobenius", 2, 2),
    Entry("x^4-2", (-2, 0, 0, 0, 1), "radical", 8, 2),
    Entry("x^4+1", (1, 0, 0, 0, 1), "power", 4, 2, (3, 5, 7)),
    Entry("x^4+x^3+x^2+x+1", (1, 1, 1, 1, 1), "power", 4, 4, (2, 3, 4)),
    Entry("x^4-10x^2+1", (1, 0, -10, 0, 1), "pairing", 4, 2),
    Entry("x^4+4x^2+2", (2, 0, 4, 0, 1), "pairing", 4, 2),
    Entry("x^4-x^2+2", (2, 0, -1, 0, 1), "pairing", 8, 2),
    Entry("x^5+x^4-4x^3-3x^2+3x+1", (1, 3, -3, -4, 1, 1), "frobenius", 5, 5),
    Entry("x^5-2", (-2, 0, 0, 0, 0, 1), "radical", 20, 4),
    Entry("x^6-2", (-2, 0, 0, 0, 0, 0, 1), "radical", 12, 2),
    Entry("x^6+x^3+1", (1, 0, 0, 1, 0, 0, 1), "power", 6, 4, (2, 4, 5, 7, 8)),
    Entry("x^8+1", (1, 0, 0, 0, 0, 0, 0, 0, 1), "power", 8, 4, (3, 5, 7)),
    Entry("x^8-x^4+1", (1, 0, 0, 0, -1, 0, 0, 0, 1), "power", 8, 4, (5, 7, 11)),
)


def prime_for(entry: Entry) -> int:
    """The prime the permutation route picks (largest residue degree)."""
    return padic.root_context(entry.poly, prefer="max").p


def group_for(entry: Entry, seed: int = 0):
    """Permutation group for the entry, built from the labeled roots of the
    context the permutation route uses."""
    return galois.group_of_kind(
        entry.group_kind, padic.root_context(entry.poly, prefer="max", seed=seed),
        entry.exponents)


def combination(targets, e):
    """The target sum e_1 g_1 + ... + e_s g_s, for the public zero test."""
    return rel.ExponentPolynomial(tuple(
        (int(c) * tc, exps) for c, g in zip(e, targets.targets) if c for tc, exps in g.terms))
