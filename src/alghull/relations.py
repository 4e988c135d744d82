"""Integer relations among algebraic numbers, with certified bounds.

Given a monic squarefree integral polynomial f with roots a_1..a_n and
integral expressions g_1..g_s in the roots, this module decides provably
whether a single expression vanishes and computes a Z-basis of

    Lambda = {e in Z^s : e_1 g_1(a) + ... + e_s g_s(a) = 0}.

Everything runs through approximate roots in an unramified extension of
Q_p; no splitting field is ever constructed.  Both routes run one search
on the relation lattice mod p^k,

    L_k = {e in Z^s : e_1 g_1(a) + ... + e_s g_s(a) = 0 mod p^k},

which contains Lambda.  It climbs a precision ladder in rungs, pruning
the rows too long to matter, and stops at the first rung where every
kept row e is certified: e lies in L_k, and k is at least the precision
at which the zero test of sum e_i g_i is proven.  The ladder never
climbs past a ceiling at which every short row is certified, so the
answers are unconditionally correct.  The LLL route searches at the
working prime of least residue degree, the permutation route at that of
largest residue degree; the permutation route's group is only
shape-checked (see find_relations_galois).  mode="heuristic" is accepted
by both routes and runs the proven search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from . import galois as galois_mod
from . import lattice, padic


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
    k is the p-adic precision exponent of the rung where the relation
    search stopped (the precision picked for a zero test).
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


# ------------------------------------------------------ the one search

def _scan_lcm(sel: padic.PrimeSelection, prime) -> int | None:
    """The f_p_lcm a group order is checked against: that of the prime
    scan behind an automatic prime, none at a fixed prime (whose f_p check
    stays as it was)."""
    return sel.f_p_lcm if prime is None else None


def _shared_bounds(targets: TargetSet, group_order, f_p: int, f_p_lcm: int | None = None):
    """M', M, r, N and the squared-norm threshold of the relation search.

    Lambda has a basis of sup-norm <= N, so a reduced basis of any lattice
    between Lambda and L_k (dimension at most s) starts with rank Lambda
    rows of squared 2-norm at most 2^(s-1) * s * N^2 (the LLL bound for
    delta = 3/4, the reduction every search here runs).  The threshold
    allows the larger bound of dimension s + f_p, and the ladder's
    ceiling k_cap follows from it: a tighter threshold would lower the
    ceiling and change which rows each rung keeps.
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


# Bits of p^k that one rung of the precision ladder climbs (see _search).
RUNG_BITS = 128


def _rung(basis, b_rows, p: int, k_from: int, k_to: int, threshold_sq: int):
    """One rung of the precision ladder, from L_k_from to L_k_to.

    basis is an LLL-reduced basis of a lattice M with Lambda <= M <=
    L_k_from, and b_rows is B at precision k_to or higher.  W_i = (M_i B
    mod p^k_to) / p^k_from is integral because M <= L_k_from, and with C =
    _relation_lattice(W, p, k_to - k_from) the rows of C M are a basis of
    M meet L_k_to.  After LLL, each trailing row whose Gram-Schmidt vector
    has squared norm above threshold_sq is dropped.  That keeps every
    vector v of squared norm at most threshold_sq, since ||v|| >= ||b_h*||
    for the last row b_h that v uses, and Lambda is generated by vectors
    of squared norm at most s N^2 <= threshold_sq; so Lambda <= M on every
    rung.
    """
    pk, shift = p**k_to, p**k_from
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
    return basis[:keep]


def _finalize(rows):
    if not rows:
        return ()
    sat = lattice.saturate(rows)
    return lattice.lll_reduce(sat) if sat else ()


def _search(targets: TargetSet, ctx: padic.RootContext, bounds) -> RelationBasis:
    """The relation search of both routes: climb the precision ladder and
    stop at the first certified rung.

    The ladder keeps an LLL-reduced basis of a lattice M with Lambda <= M
    <= L_k', from M = Z^s at k' = 0.  Each rung (p^(k''-k') about
    2^RUNG_BITS) lifts the roots to k'', evaluates each target once and
    runs _rung, so Lambda <= M holds on every rung.  A row e of M is
    certified at k' when k_e <= k', where k_e = proven_precision(p, f_p,
    sum |e_i| embedding_bound(g_i), r) is the precision zero_test picks
    for sum e_i g_i: e lies in L_k', so that sum vanishes mod p^k_e, and
    hence vanishes.  Once every row is certified, M <= Lambda too, so M =
    Lambda and the search stops.

    The ceiling k_cap is the precision at which every row under the
    threshold of _shared_bounds is certified; the ladder never climbs
    past it.  There the rows with k_e <= k_cap include rank(Lambda)
    independent relations, so their saturation is Lambda.  BoundData.k is
    the rung where the search stopped.  Before returning, each certified
    row is checked against the B of that rung mod p^k_e.
    """
    m_prime, m, r, n_bound, threshold_sq = bounds
    p, f_p, s = ctx.p, ctx.f_p, targets.s
    # proven_precision builds base^r, so each base is priced once per search
    k_of = functools.cache(lambda base: proven_precision(p, f_p, base, r))
    k_cap = k_of((math.isqrt(threshold_sq) + 1) * m * s)
    sizes = [embedding_bound(g, m_prime) for g in targets.targets]

    def k_row(e):
        return k_of(max(sum(abs(c) * b for c, b in zip(e, sizes)), 1))

    basis = tuple(tuple(int(i == j) for j in range(s)) for i in range(s))
    step = max(1, int(RUNG_BITS / math.log2(p)))
    k = 0
    while True:
        k_from, k = k, min(k + step, k_cap)
        roots = ctx.roots(k)
        b_rows = [padic.eval_target(g, roots).coeffs for g in targets.targets]
        basis = _rung(basis, b_rows, p, k_from, k, threshold_sq)
        certified = [(e, k_e) for e in basis if (k_e := k_row(e)) <= k]
        if k == k_cap or len(certified) == len(basis):
            break
    for e, k_e in certified:
        pk = p**k_e
        if any(sum(c * x for c, x in zip(e, col)) % pk for col in zip(*b_rows)):
            raise RuntimeError(f"certified row {e} is not a relation mod p^{k_e}")
    rows = _finalize([e for e, _ in certified])
    return RelationBasis(tuple(rows), "proven",
                         BoundData(m_prime, m, r, n_bound, k, p, f_p))


# ------------------------------------------------------------------ routes

def find_relations_lll(
    targets: TargetSet,
    mode: str = "proven",
    prime: int | None = None,
    group_order: int | None = None,
    seed: int = 0,
) -> RelationBasis:
    """Z-basis of the relation lattice at the context of least residue
    degree (prefer="min", f_p = 1 where some prime splits f).

    B_i is the coefficient vector of the lifted value of g_i, and L_k =
    {e : sum e_i B_i = 0 mod p^k} contains Lambda; _search climbs to the
    first rung where every kept row is a certified relation.
    mode="heuristic" is accepted and runs the same search: the answer is
    "proven" in both modes.
    """
    check_mode(mode)
    ctx = padic.root_context(targets.f, prime, seed=seed)
    bounds = _shared_bounds(targets, group_order, ctx.f_p, _scan_lcm(ctx.selection, prime))
    return _search(targets, ctx, bounds)


def find_relations_galois(
    targets: TargetSet,
    group: "galois_mod.PermGroup",
    mode: str = "proven",
    prime: int | None = None,
    group_order: int | None = None,
    seed: int = 0,
) -> RelationBasis:
    """Z-basis of the relation lattice at the context of largest residue
    degree (prefer="max"), for a permutation group of the roots.

    The group must have degree deg f (ValueError otherwise), and PermGroup
    has checked that each generator is a permutation; then the search is
    _search, as on the LLL route.  The group adds no constraint.
    Frobenius is a Z/p^k-linear automorphism of the unramified ring, so
    the condition at the roots permuted by a power of it is the same as
    at the roots themselves; and any other permutation is only trusted,
    not proven, so a group larger than the Galois group would cut true
    relations out.  mode="heuristic" is accepted and runs the same
    search: the answer is "proven" in both modes.
    """
    check_mode(mode)
    if group.degree != len(targets.f) - 1:
        raise ValueError("group degree must equal deg f")
    ctx = padic.root_context(targets.f, prime, prefer="max", seed=seed)
    bounds = _shared_bounds(targets, group_order, ctx.f_p, _scan_lcm(ctx.selection, prime))
    return _search(targets, ctx, bounds)
