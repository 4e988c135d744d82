"""Integer relations among algebraic numbers, with certified bounds.

Given a monic squarefree integral polynomial f with roots a_1..a_n and
integral expressions g_1..g_s in the roots, this module decides provably
whether a single expression vanishes and computes a Z-basis of

    Lambda = {e in Z^s : e_1 g_1(a) + ... + e_s g_s(a) = 0}.

Everything runs through approximate roots in an unramified extension of
Q_p; no splitting field is ever constructed.  Two routes are available.
The LLL route reduces the relation lattice mod p^k,

    L_k = {e in Z^s : e_1 g_1(a) + ... + e_s g_s(a) = 0 mod p^k},

which contains Lambda, climbing to k in rungs and pruning the rows too
long to matter, and keeps its short rows.  The permutation route climbs
the same ladder on a lattice with more constraints: the relation must
also hold at the roots permuted by each element of a subset of a
permutation group.  Each row returned passes a zero test at a precision
picked from a norm bound, so the answers are unconditionally correct.
mode="heuristic" is accepted by both routes and runs the proven search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from . import galois as galois_mod
from . import lattice, padic


class EscalationExhausted(RuntimeError):
    """The iterative relation search hit its round cap before converging."""


def check_mode(mode: str) -> None:
    """Reject an unknown mode before any work: some inputs (a zero target)
    never reach the code that branches on it."""
    if mode not in ("proven", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")


# ------------------------------------------------------------------ types

@dataclass(frozen=True)
class ExponentPolynomial:
    """Integer-coefficient sparse polynomial in x_1..x_n.

    terms is a tuple of (coefficient, exponent-vector) pairs; all
    exponent vectors have the same length n.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((int(c), tuple(int(e) for e in exps)) for c, exps in self.terms)
        if terms:
            n = len(terms[0][1])
            if any(len(exps) != n for _, exps in terms):
                raise ValueError("inconsistent exponent vector lengths")
            if any(e < 0 for _, exps in terms for e in exps):
                raise ValueError("negative exponent")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def variable(cls, i: int, n: int) -> "ExponentPolynomial":
        """The target x_{i+1} (0-indexed i) in n variables."""
        return cls(((1, tuple(1 if j == i else 0 for j in range(n))),))

    @classmethod
    def power_sum(cls, coeffs: Sequence[int], power: int) -> "ExponentPolynomial":
        """sum_k coeffs[k] * x_{k+1}^power."""
        n = len(coeffs)
        return cls(
            tuple(
                (int(c), tuple(power if j == k else 0 for j in range(n)))
                for k, c in enumerate(coeffs)
                if c
            )
        )

    @property
    def nvars(self) -> int:
        return len(self.terms[0][1]) if self.terms else 0

    def is_zero_poly(self) -> bool:
        return all(c == 0 for c, _ in self.terms)


@dataclass(frozen=True)
class TargetSet:
    f: tuple
    targets: tuple

    def __post_init__(self):
        f = tuple(int(c) for c in self.f)
        if not f or f[-1] != 1:
            raise ValueError("f must be monic with integer coefficients")
        targets = tuple(self.targets)
        if not targets:
            raise ValueError("need at least one target")
        n = len(f) - 1
        for g in targets:
            if g.terms and g.nvars != n:
                raise ValueError("target variable count must equal deg f")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "targets", targets)

    @property
    def s(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class BoundData:
    """The certified quantities behind a relation computation.

    M_prime bounds every complex root of f; M bounds every complex
    embedding of every target; r bounds the degree of the field the
    targets live in; N bounds the sup-norm of some Z-basis of Lambda;
    k is the p-adic precision exponent actually used: the LLL route's
    k_proven, or the precision of the permutation route's last round.
    p and f_p are the working prime and its residue degree.
    """

    M_prime: int
    M: int
    r: int
    N: int
    k: int
    p: int
    f_p: int


@dataclass(frozen=True)
class RelationBasis:
    rows: tuple
    certification: str  # "proven"
    bounds: BoundData

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def verification_k(self) -> None:
        """Always None: every answer is proven, none rests on a
        heuristic precision.  Kept for the CLI's "verification_k" key."""
        return None


# ----------------------------------------------------------------- bounds

def complex_root_bound(f: Sequence[int]) -> int:
    """Cauchy bound 1 + max|a_i| on the complex roots of monic f."""
    f = tuple(int(c) for c in f)
    if f[-1] != 1:
        raise ValueError("f must be monic")
    return 1 + max((abs(c) for c in f[:-1]), default=0)


def embedding_bound(g: ExponentPolynomial, m_prime: int) -> int:
    """Bound on |g(y_1..y_n)| over all complex y_i with |y_i| <= m_prime."""
    return sum(abs(c) * m_prime ** sum(exps) for c, exps in g.terms)


def degree_bound(f: Sequence[int], group_order: int | None = None, f_p: int = 1,
                 f_p_lcm: int | None = None) -> int:
    """Upper bound on the degree of the splitting field of f over Q.  A
    group order must be a multiple of f_p, the order of Frobenius at the
    working prime, and of f_p_lcm, the lcm of the orders of Frobenius at
    the primes the prime scan factored f at (f_p when it is None)."""
    if group_order is not None:
        if group_order < 1:
            raise ValueError("group order must be positive")
        if group_order % f_p:
            raise ValueError(f"group order {group_order} is not a multiple of "
                             f"f_p = {f_p}, the order of Frobenius at the working prime")
        if f_p_lcm is not None and group_order % f_p_lcm:
            raise ValueError(f"group order {group_order} is not a multiple of "
                             f"{f_p_lcm}, the lcm of the orders of Frobenius at the "
                             f"primes the prime scan factored f at")
        return int(group_order)
    return math.factorial(max(len(f) - 1, 1))


def masser_bound(s: int, m: int) -> int:
    """N = s^(s-1) M^(s-1): some Z-basis of Lambda has sup-norm <= N."""
    if s < 1 or m < 1:
        raise ValueError("need s >= 1 and M >= 1")
    return s ** (s - 1) * m ** (s - 1)


def proven_precision(p: int, f_p: int, base: int, r: int) -> int:
    """Least k >= 1 with p^(k f_p) > base^r.

    Any nonzero algebraic integer with all conjugates bounded by `base`
    and degree at most r has |norm| <= base^r, so vanishing mod p^k in a
    degree-f_p unramified ring at this k forces true vanishing.
    """
    target = max(int(base), 1) ** r
    k = max(1, math.floor(r * math.log(max(base, 2)) / (f_p * math.log(p))) - 2)
    while p ** (k * f_p) <= target:
        k += 1
    while k > 1 and p ** ((k - 1) * f_p) > target:
        k -= 1
    return k


# -------------------------------------------------------------- zero test

def zero_test(
    g: ExponentPolynomial,
    f: Sequence[int],
    mode: str = "proven",
    prime: int | None = None,
    group_order: int | None = None,
    k: int | None = None,
    seed: int = 0,
) -> tuple[bool, BoundData]:
    """Decide whether g vanishes at the root vector of f.

    Proven mode chooses the precision from the norm bound and the answer
    is certified both ways.  Heuristic mode uses the caller-supplied k
    (required) and the answer is only as good as that precision.
    """
    check_mode(mode)
    f = tuple(int(c) for c in f)
    ctx = padic.root_context(f, prime, seed=seed)
    sel = ctx.selection
    r = degree_bound(f, group_order, sel.f_p, _scan_lcm(sel, prime))
    if g.is_zero_poly():
        return True, BoundData(1, 1, 1, 1, 1, sel.p, sel.f_p)
    m_prime = complex_root_bound(f)
    m = max(embedding_bound(g, m_prime), 1)
    k_proven = proven_precision(sel.p, sel.f_p, m, r)
    if mode == "proven":
        k_use = k_proven
    else:
        if k is None:
            raise ValueError("heuristic mode needs an explicit precision k")
        k_use = min(int(k), k_proven)
    value = padic.eval_target(g, ctx.roots(k_use))
    answer = padic.valuation(value) >= k_use
    bounds = BoundData(m_prime, m, r, 1, k_use, sel.p, sel.f_p)
    return answer, bounds


def is_zero(g, f, mode: str = "proven", prime: int | None = None, **kw) -> bool:
    return zero_test(g, f, mode=mode, prime=prime, **kw)[0]


def _combination(targets: TargetSet, e: Sequence[int]) -> ExponentPolynomial:
    terms = []
    for c, g in zip(e, targets.targets):
        if c:
            terms.extend((int(c) * tc, exps) for tc, exps in g.terms)
    return ExponentPolynomial(tuple(terms))


def _is_proven_relation(e, targets: TargetSet, prime, group_order, seed) -> bool:
    """Whether sum(e_i g_i) vanishes, by the proven zero test."""
    return is_zero(_combination(targets, e), targets.f, mode="proven",
                   prime=prime, group_order=group_order, seed=seed)


# ------------------------------------------------- ladder of both routes

def _scan_lcm(sel: padic.PrimeSelection, prime) -> int | None:
    """The f_p_lcm a group order is checked against: that of the prime
    scan behind an automatic prime, none at a fixed prime (whose f_p check
    stays as it was)."""
    return sel.f_p_lcm if prime is None else None


def _shared_bounds(targets: TargetSet, group_order, f_p: int, f_p_lcm: int | None = None):
    """M', M, r, N and the squared-norm threshold of both routes' ladders.

    Lambda has a basis of sup-norm <= N, so a reduced basis of any lattice
    between Lambda and L_k (dimension at most s) starts with rank Lambda
    rows of squared 2-norm at most 2^(s-1) * s * N^2 (the LLL bound for
    delta = 3/4, the reduction every search here runs).  The threshold
    allows the larger bound of dimension s + f_p, and the LLL route's
    k_proven follows from it: a tighter threshold would lower the
    certified precision and change which rows each rung keeps.
    """
    m_prime = complex_root_bound(targets.f)
    m = max(max((embedding_bound(g, m_prime) for g in targets.targets)), 1)
    r = degree_bound(targets.f, group_order, f_p, f_p_lcm)
    n_bound = masser_bound(targets.s, m)
    threshold_sq = 2 ** (targets.s + f_p - 1) * targets.s * n_bound**2
    return m_prime, m, r, n_bound, threshold_sq


def _relation_lattice(b_rows, p: int, k: int):
    """HNF basis of L_k = {e in Z^s : e B = 0 mod p^k}, B the s rows
    b_rows.  It has s rows, and its entries lie in [0, p^k].

    It is read off the Howell form of the nullspace of B mod p^k.  By the
    Howell property, the elements of L_k with zeros before column j have
    j-th entry in p^v Z when a Howell row has pivot p^v in column j, and
    in p^k Z when none does.  So the lifted Howell rows, sorted by pivot,
    with p^k e_j for each column j without a pivot, are a triangular basis
    of L_k with the HNF's diagonal; reducing above the pivots, column by
    column from the left, leaves the HNF.
    """
    pk = p**k
    s = len(b_rows)
    by_pivot = {next(j for j, x in enumerate(row) if x): list(row)
                for row in lattice.nullspace_mod(b_rows, p, k)}
    rows = [by_pivot.get(j) or [pk if i == j else 0 for i in range(s)] for j in range(s)]
    for j, row in enumerate(rows):
        for i in range(j):
            q = rows[i][j] // row[j]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], row)]
    return tuple(tuple(row) for row in rows)


# Bits of p^k that one rung of the precision ladder climbs (see _climb).
RUNG_BITS = 128


def _climb(b_rows, p: int, k: int, threshold_sq: int):
    """The precision ladder from Z^s up to L_k.

    b_rows is B at precision k or higher.  The ladder keeps an LLL-reduced
    basis of a lattice M with Lambda <= M <= L_k' at each rung k', from
    M = Z^s at k' = 0.  Each rung from k' to k'' (p^(k''-k') about
    2^RUNG_BITS) reduces B mod p^k'': W_i = (M_i B mod p^k'') / p^k' is
    integral because M <= L_k', and with C = _relation_lattice(W, p,
    k''-k') the rows of C M are a basis of M meet L_k''.  After LLL, each
    trailing row whose Gram-Schmidt vector has squared norm above
    threshold_sq is dropped.  That keeps every vector v of squared norm at
    most threshold_sq, since ||v|| >= ||b_h*|| for the last row b_h that v
    uses, and Lambda is generated by vectors of squared norm at most
    s N^2 <= threshold_sq; so Lambda <= M on every rung.
    """
    s = len(b_rows)
    basis = tuple(tuple(int(i == j) for j in range(s)) for i in range(s))
    step = max(1, int(RUNG_BITS / math.log2(p)))
    k_from, shift = 0, 1
    while basis and k_from < k:
        k_to = min(k_from + step, k)
        pk = p**k_to
        w = [tuple((sum(m * b for m, b in zip(row, col) if m) % pk) // shift
                   for col in zip(*b_rows))
             for row in basis]
        cols = tuple(zip(*basis))
        basis = lattice.lll_reduce(
            [[sum(x * y for x, y in zip(crow, col) if x) for col in cols]
             for crow in _relation_lattice(w, p, k_to - k_from)])
        d = lattice.gram_determinants(basis)
        keep = len(basis)
        while keep and d[keep] > threshold_sq * d[keep - 1]:
            keep -= 1
        basis = basis[:keep]
        k_from, shift = k_to, pk
    return basis


def _finalize(rows):
    if not rows:
        return ()
    sat = lattice.saturate(rows)
    return lattice.lll_reduce(sat) if sat else ()


# -------------------------------------------------------------- LLL route

def find_relations_lll(
    targets: TargetSet,
    mode: str = "proven",
    prime: int | None = None,
    group_order: int | None = None,
    seed: int = 0,
) -> RelationBasis:
    """Z-basis of the relation lattice via LLL on L_k.

    B_i is the coefficient vector of the lifted value of g_i, and L_k =
    {e : sum e_i B_i = 0 mod p^k} contains Lambda.  One precision ladder
    per search (_climb) keeps an LLL-reduced basis of a lattice M with
    Lambda <= M <= L_k, in dimension at most s.  At proven precision the
    rows of M under the size threshold are relations and include
    rank(Lambda) independent ones, so their saturation is Lambda; each is
    re-verified independently anyway.  mode="heuristic" is accepted and
    runs the same search: the answer is "proven" in both modes.
    """
    check_mode(mode)
    ctx = padic.root_context(targets.f, prime, seed=seed)
    sel = ctx.selection
    m_prime, m, r, n_bound, threshold_sq = _shared_bounds(
        targets, group_order, sel.f_p, _scan_lcm(sel, prime))
    # Precision so that any row of L_k under the threshold is a certified
    # relation, not just a mod-p^k coincidence.
    t_bound = math.isqrt(threshold_sq) + 1
    k_proven = proven_precision(sel.p, sel.f_p, t_bound * m * targets.s, r)

    roots = ctx.roots(k_proven)
    b_rows = [padic.eval_target(g, roots).coeffs for g in targets.targets]
    basis = _climb(b_rows, sel.p, k_proven, threshold_sq)
    final = _finalize([e for e in basis if sum(x * x for x in e) <= threshold_sq
                       and _is_proven_relation(e, targets, sel.p, group_order, seed)])
    bounds = BoundData(m_prime, m, r, n_bound, k_proven, sel.p, sel.f_p)
    return RelationBasis(tuple(final), "proven", bounds)


# ------------------------------------------------------ permutation route

def _eval_permuted(g: ExponentPolynomial, roots: padic.ApproxRoots, sigma):
    permuted = padic.ApproxRoots(
        roots.ring, tuple(roots.roots[sigma[j]] for j in range(len(sigma))), roots.poly
    )
    return padic.eval_target(g, permuted)


# Escalation rounds of find_relations_galois before it gives up.
MAX_ROUNDS = 60


def find_relations_galois(
    targets: TargetSet,
    group: "galois_mod.PermGroup",
    mode: str = "proven",
    prime: int | None = None,
    group_order: int | None = None,
    seed: int = 0,
) -> RelationBasis:
    """Z-basis of the relation lattice via a permutation action on roots.

    For every sigma in a growing subset S of the group, the coefficient
    block of each g_i evaluated at the sigma-permuted roots is appended
    as extra columns, and the LLL route's precision ladder (_climb) runs
    on the stacked matrix mod p^k.  Pruning keeps Lambda <= M, so once
    every kept row passes the proven zero test, M = Lambda and its
    saturation is returned.  Otherwise S grows by at most 20 percent and
    k by 20 percent, for at most MAX_ROUNDS rounds.  mode="heuristic" is
    accepted and runs the same search: the answer is "proven" in both
    modes.
    """
    check_mode(mode)
    n = len(targets.f) - 1
    if group.degree != n:
        raise ValueError("group degree must equal deg f")
    ctx = padic.root_context(targets.f, prime, prefer="max", seed=seed)
    sel = ctx.selection
    m_prime, m, r, n_bound, threshold_sq = _shared_bounds(
        targets, group_order, sel.f_p, _scan_lcm(sel, prime))
    k = max(2, math.ceil(1.5 * math.log(max(n_bound, 2)) / math.log(sel.p)))

    # escalation rounds meet rows again: test each row once per search
    is_relation = functools.cache(
        lambda e: _is_proven_relation(e, targets, sel.p, group_order, seed))
    for g in group.generators:
        if not galois_mod.validate_action(g, ctx):
            raise ValueError(f"permutation {g} fails the root-action check")
    subset = galois_mod.initial_subset(n)
    for rnd in range(MAX_ROUNDS):
        roots = ctx.roots(k)
        b_rows = []
        for g in targets.targets:
            row = []
            for sig in subset.perms:
                row.extend(_eval_permuted(g, roots, sig).coeffs)
            b_rows.append(tuple(row))
        basis = _climb(b_rows, sel.p, k, threshold_sq)
        if all(is_relation(e) for e in basis):
            bounds = BoundData(m_prime, m, r, n_bound, k, sel.p, sel.f_p)
            return RelationBasis(tuple(_finalize(basis)), "proven", bounds)
        subset = galois_mod.grow_subset(subset, group, seed=seed + rnd)
        k = math.ceil(1.2 * k)
    raise EscalationExhausted(
        f"relation search did not converge in {MAX_ROUNDS} rounds (last k={k})"
    )
