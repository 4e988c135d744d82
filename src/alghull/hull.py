"""Algebraic hull of matrices and matrix Lie algebras over Q.

For a single semisimple X the hull is cut out of the power span
I, X, ..., X^t by rational constraints coming from the integer relations
among the eigenvalues: for each relation e, the hull coefficients gamma
must reproduce every rational dependency among the weighted power sums
D_i(e) = sum_k e_k a_k^i.  General X splits as S + N (Jordan) with
hull(X) = hull(S) + span{N}; a Lie algebra is handled by alternating
bracket closure with hulls of basis elements until stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import galois as galois_mod
from . import lattice, linalg, matrices, padic
from . import polynomials as pol
from . import relations as rel


@dataclass
class HullResult:
    span: matrices.MatrixSpan
    certification: str
    route: str  # "relation-based"
    witnesses: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.span.dim


def _relation_basis(targets, route, group, mode="proven", prime=None, seed=0,
                    delta=Fraction(3, 4), group_order=None):
    if route == "galois":
        if group is None:
            ctx = padic.root_context(targets.f, prime, prefer="max", seed=seed)
            group = galois_mod.PermGroup.frobenius(ctx.roots(4))
        return rel.find_relations_galois(
            targets, group, mode=mode, prime=prime,
            group_order=group_order, seed=seed,
        )
    if route != "lll":
        raise ValueError(f"unknown route {route!r}")
    return rel.find_relations_lll(
        targets, mode=mode, prime=prime,
        group_order=group_order, seed=seed, delta=delta,
    )


def hull_semisimple(x, mode: str = "proven", route: str = "lll",
                    group=None, **config) -> HullResult:
    """Hull of span{X} for semisimple X (squarefree minimal polynomial).

    The eigenvalue relations are computed for an integer-scaled copy of
    X (scaling leaves the hull unchanged) and the answer is mapped back
    to powers of X.
    """
    x = matrices.as_matrix(x)
    return _hull_semisimple(x, matrices.min_poly(x), mode, route, group, config)


def _hull_semisimple(x, mp, mode, route, group, config) -> HullResult:
    """hull_semisimple for a matrix X whose minimal polynomial is mp."""
    if pol.degree(pol.squarefree_part(mp)) != pol.degree(mp):
        raise ValueError(
            "matrix is not semisimple; use hull_matrix for the general case"
        )
    c = pol.integral_scaling(mp)
    f = pol.to_int_coeffs(pol.scale_roots(mp, c))
    xs = matrices.mat_scale(x, c)
    m = len(f) - 1
    t = m - 1
    powers = [matrices.identity(len(x))]
    for _ in range(t):
        powers.append(matrices.mat_mul(powers[-1], xs))

    targets1 = rel.TargetSet(f, tuple(rel.ExponentPolynomial.variable(i, m)
                                      for i in range(m)))
    lam_basis = _relation_basis(targets1, route, group,
                                mode=mode, **config)
    certification = lam_basis.certification

    if not lam_basis.rows:
        upsilon = [tuple(Fraction(1) if i == j else Fraction(0) for i in range(t + 1))
                   for j in range(t + 1)]
    else:
        annihilators = []
        for e in lam_basis.rows:
            targets2 = rel.TargetSet(
                f, tuple(rel.ExponentPolynomial.power_sum(e, i) for i in range(t + 1))
            )
            me = _relation_basis(targets2, route, group, mode=mode, **config)
            if me.certification != "proven":
                certification = me.certification
            rows = [tuple(Fraction(v) for v in row) for row in me.rows]
            annihilators.extend(linalg.right_kernel(rows) if rows
                                else linalg.right_kernel([(0,) * (t + 1)]))
        if annihilators:
            upsilon = linalg.right_kernel(annihilators)
        else:
            upsilon = [tuple(Fraction(1) if i == j else Fraction(0)
                             for i in range(t + 1)) for j in range(t + 1)]

    basis = []
    for gamma in upsilon:
        acc = matrices.zero(len(x))
        for g, p in zip(gamma, powers):
            if g:
                acc = matrices.mat_add(acc, matrices.mat_scale(p, g))
        basis.append(acc)
    span = matrices.MatrixSpan(basis, n=len(x))
    # report the coefficient vectors relative to powers of X itself
    upsilon_x = [tuple(Fraction(g) * Fraction(c) ** i for i, g in enumerate(gamma))
                 for gamma in upsilon]
    return HullResult(
        span, certification, "relation-based",
        witnesses={
            "lambda_basis": lam_basis.rows,
            "upsilon_basis": tuple(upsilon_x),
            "prime": lam_basis.bounds.p,
            "f_p": lam_basis.bounds.f_p,
            "precision": lam_basis.bounds.k,
            "scaling": c,
        },
    )


def hull_matrix(x, mode: str = "proven", route: str = "lll",
                group=None, **config) -> HullResult:
    """Hull of span{X} for arbitrary square X over Q."""
    x = matrices.as_matrix(x)
    # One minimal polynomial serves both parts: that of S is the squarefree
    # part of that of X.
    mp = matrices.min_poly(x)
    s, n_part = matrices._jordan_decomposition(x, mp)
    if matrices.is_zero_matrix(n_part):
        return _hull_semisimple(x, mp, mode, route, group, config)
    if matrices.is_zero_matrix(s):
        span = matrices.MatrixSpan([n_part], n=len(x))
        return HullResult(span, "proven", "relation-based",
                          witnesses={"nilpotent_part": True})
    semi = _hull_semisimple(s, pol.squarefree_part(mp), mode, route, group, config)
    span = matrices.span_sum(semi.span, matrices.MatrixSpan([n_part], n=len(x)))
    return HullResult(span, semi.certification, semi.route,
                      witnesses=dict(semi.witnesses, nilpotent_part=True))


def hull_lie_algebra(generators: Sequence, mode: str = "proven",
                     route: str = "lll", **config) -> HullResult:
    """Smallest algebraic Lie algebra containing the span of the
    generators: alternate bracket closure with hulls of basis elements
    until the dimension stabilizes."""
    gens = [matrices.as_matrix(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    current = matrices.bracket_closure(matrices.span_of(gens, n=n))
    cache: dict = {}
    certification = "proven"
    while True:
        pieces = [current]
        for y in current.basis:
            if y not in cache:
                res = hull_matrix(y, mode=mode, route=route, **config)
                if res.certification != "proven":
                    certification = res.certification
                cache[y] = res.span
            pieces.append(cache[y])
        total = pieces[0]
        for p in pieces[1:]:
            total = matrices.span_sum(total, p)
        nxt = matrices.bracket_closure(total)
        if nxt.dim == current.dim:
            return HullResult(current, certification, "relation-based",
                              witnesses={"hulls_computed": len(cache)})
        current = nxt


def is_algebraic(generators: Sequence, mode: str = "proven", **config) -> bool:
    """True iff the Lie algebra generated by the matrices equals its hull."""
    gens = [matrices.as_matrix(g) for g in generators]
    span = matrices.bracket_closure(matrices.span_of(gens, n=len(gens[0])))
    result = hull_lie_algebra(gens, mode=mode, **config)
    return result.dim == span.dim and all(span.contains(b) for b in result.span.basis)


# ------------------------------------------------------ closed-form oracles

@dataclass(frozen=True)
class OracleHull:
    """Symbolic hull description: either explicit coefficient vectors on
    powers of X, the trace-zero part of the power span, or all of it."""

    kind: str  # "span" | "trace-zero" | "full"
    gammas: tuple = ()
    case: str = ""

    def materialize(self, x) -> matrices.MatrixSpan:
        x = matrices.as_matrix(x)
        basis = matrices.power_basis(x)
        if self.kind == "full":
            return basis
        if self.kind == "trace-zero":
            return galois_mod.trace_zero_subspace(basis)
        out = []
        for gamma in self.gammas:
            acc = matrices.zero(len(x))
            cur = matrices.identity(len(x))
            for i, g in enumerate(gamma):
                if i:
                    cur = matrices.mat_mul(cur, x)
                if g:
                    acc = matrices.mat_add(acc, matrices.mat_scale(cur, Fraction(g)))
            out.append(acc)
        return matrices.span_of(out, n=len(x))


def _require_irreducible(f, degree):
    f = tuple(Fraction(c) for c in f)
    if len(f) - 1 != degree or f[-1] != 1:
        raise ValueError(f"need a monic polynomial of degree {degree}")
    if not galois_mod._is_irreducible_over_q(f):
        raise ValueError("polynomial is reducible over Q")
    return f


def closed_form_deg4(f, assert_group: bool = False) -> OracleHull:
    """Hull of the companion matrix of an irreducible quartic, in closed
    form, valid when the Galois group is not S4 or A4 (caller-asserted).

    Writing f = x^4 + a x^3 + b x^2 + c x + d and D = a^3 - 4ab + 8c:
    a = 0, D != 0 -> trace-zero part of the power span; a = 0, D = 0 ->
    span{X, X^3}; a != 0, D != 0 -> the full power span; a != 0, D = 0 ->
    span{I, X, X^2 + (4/(3a)) X^3}.
    """
    if not assert_group:
        raise ValueError("closed form needs the caller to assert the group condition")
    f = _require_irreducible(f, 4)
    a, b, c = f[3], f[2], f[1]
    disc = a**3 - 4 * a * b + 8 * c
    if a == 0:
        if disc != 0:
            return OracleHull("trace-zero", case="a=0, a^3-4ab+8c!=0")
        return OracleHull("span", ((0, 1, 0, 0), (0, 0, 0, 1)), case="a=0, a^3-4ab+8c=0")
    if disc != 0:
        return OracleHull("full", case="a!=0, a^3-4ab+8c!=0")
    return OracleHull(
        "span",
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, Fraction(4, 3 * a))),
        case="a!=0, a^3-4ab+8c=0",
    )


def closed_form_deg6(f, assert_group: bool = False) -> OracleHull:
    """Hull of the companion matrix of an irreducible sextic, in closed
    form, valid for the caller-asserted family of transitive groups.

    With f = x^6 + a x^5 + b x^4 + c x^3 + d x^2 + e x + g, set
    r1 = c + (5/27)(a^3 - (18/5) a b) and
    r2 = e - a^5/81 + a^3 b/27 - a d/3.  If r1 = r2 = 0 the hull is
    span{I, X, (a/2)X^2 + X^3, (-5a^3/54)X^2 + (5a/6)X^4 + X^5};
    otherwise it is the full power span when a != 0 and its trace-zero
    part when a = 0.
    """
    if not assert_group:
        raise ValueError("closed form needs the caller to assert the group condition")
    f = _require_irreducible(f, 6)
    a = f[5]
    r1, r2 = sextic_invariants(f)
    if r1 == 0 and r2 == 0:
        return OracleHull(
            "span",
            (
                (1, 0, 0, 0, 0, 0),
                (0, 1, 0, 0, 0, 0),
                (0, 0, Fraction(a, 2), 1, 0, 0),
                (0, 0, Fraction(-5 * a**3, 54), 0, Fraction(5 * a, 6), 1),
            ),
            case="r1=r2=0",
        )
    if a != 0:
        return OracleHull("full", case="r1,r2 not both 0, a!=0")
    return OracleHull("trace-zero", case="r1,r2 not both 0, a=0")


def sextic_invariants(f) -> tuple[Fraction, Fraction]:
    """The pair (r1, r2) used by closed_form_deg6, exposed for testing."""
    f = tuple(Fraction(c) for c in f)
    a, b, c, d, e = f[5], f[4], f[3], f[2], f[1]
    r1 = c + Fraction(5, 27) * (a**3 - Fraction(18, 5) * a * b)
    r2 = e - Fraction(a**5, 81) + Fraction(a**3 * b, 27) - Fraction(a * d, 3)
    return r1, r2
