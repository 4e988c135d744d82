"""Algebraic hull of matrices and matrix Lie algebras over Q.

For a single semisimple X the hull is cut out of the power span
I, X, ..., X^t by rational constraints coming from the integer relations
among the eigenvalues: for each relation e, the hull coefficients gamma
must reproduce every rational dependency among the weighted power sums
D_i(e) = sum_k e_k a_k^i.  General X splits as S + N (Jordan) with
hull(X) = hull(S) + span{N}.  In characteristic 0 the Lie algebra
generated by algebraic Lie algebras is algebraic (Chevalley; Borel,
*Linear Algebraic Groups* §7), so the hull of a Lie algebra is the
bracket closure of the hulls of a basis of its generators' span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import galois as galois_mod
from . import linalg, matrices
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


def _check_options(mode, route):
    """Reject an unknown mode or route before any work: some inputs (a
    nilpotent X, zero generators) never reach the relation search."""
    rel.check_mode(mode)
    if route not in ("lll", "galois"):
        raise ValueError(f"unknown route {route!r}")


def _relation_basis(targets, route, group, mode, config):
    """Relation search on either route; config holds prime, seed and
    group_order.  With no group the permutation route gets the trivial
    group of degree deg f."""
    if route == "galois":
        if group is None:
            group = galois_mod.PermGroup(len(targets.f) - 1, [])
        return rel.find_relations_galois(targets, group, mode=mode, **config)
    return rel.find_relations_lll(targets, mode=mode, **config)


def hull_semisimple(x, mode: str = "proven", route: str = "lll", group=None, *,
                    prime: int | None = None, seed: int = 0,
                    group_order: int | None = None) -> HullResult:
    """Hull of span{X} for semisimple X (squarefree minimal polynomial).

    The eigenvalue relations are computed for an integer-scaled copy of
    X (scaling leaves the hull unchanged) and the answer is mapped back
    to powers of X.
    """
    _check_options(mode, route)
    x = matrices.as_matrix(x)
    config = dict(prime=prime, seed=seed, group_order=group_order)
    mp, powers = matrices._krylov(x)
    if pol.degree(pol.squarefree_part(mp)) != pol.degree(mp):
        raise ValueError(
            "matrix is not semisimple; use hull_matrix for the general case"
        )
    return _hull_semisimple(x, mp, mode, route, group, config, powers)


def _hull_semisimple(x, mp, mode, route, group, config, powers=None) -> HullResult:
    """hull_semisimple for a matrix X whose minimal polynomial mp is
    squarefree (the caller checks); powers, when given, are I, X, ...,
    X^(deg mp - 1)."""
    c = pol.integral_scaling(mp)
    f = pol.to_int_coeffs(pol.scale_roots(mp, c))
    m = len(f) - 1
    t = m - 1
    # right_kernel of a zero row is the identity basis: no constraint
    no_constraint = [(0,) * (t + 1)]

    targets1 = rel.TargetSet(f, tuple(rel.ExponentPolynomial.variable(i, m)
                                      for i in range(m)))
    lam_basis = _relation_basis(targets1, route, group, mode, config)
    certification = lam_basis.certification

    annihilators = []
    for e in lam_basis.rows:
        targets2 = rel.TargetSet(
            f, tuple(rel.ExponentPolynomial.power_sum(e, i) for i in range(t + 1))
        )
        me = _relation_basis(targets2, route, group, mode, config)
        if me.certification != "proven":
            certification = me.certification
        rows = [tuple(Fraction(v) for v in row) for row in me.rows]
        annihilators.extend(linalg.right_kernel(rows or no_constraint))
    upsilon = linalg.right_kernel(annihilators or no_constraint)

    # the coefficient vectors relative to powers of X itself: gamma_i (cX)^i
    # = (gamma_i c^i) X^i
    upsilon_x = [tuple(Fraction(g) * Fraction(c) ** i for i, g in enumerate(gamma))
                 for gamma in upsilon]
    if powers is None:
        powers = matrices.powers(x, t + 1)
    basis = [matrices.linear_combination(gamma, powers, len(x)) for gamma in upsilon_x]
    span = matrices.MatrixSpan(basis, n=len(x))
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


def hull_matrix(x, mode: str = "proven", route: str = "lll", group=None, *,
                prime: int | None = None, seed: int = 0,
                group_order: int | None = None) -> HullResult:
    """Hull of span{X} for arbitrary square X over Q."""
    _check_options(mode, route)
    x = matrices.as_matrix(x)
    config = dict(prime=prime, seed=seed, group_order=group_order)
    # One minimal polynomial and one squarefree part serve both parts: the
    # minimal polynomial of S is the squarefree part g of that of X.  When X
    # is semisimple (N = 0, so g = mp) its hull is built from the powers of
    # X the minimal polynomial's Krylov loop made.
    mp, powers = matrices._krylov(x)
    g = pol.squarefree_part(mp)
    s, n_part = matrices._jordan_decomposition(x, mp, g)
    if matrices.is_zero_matrix(n_part):
        return _hull_semisimple(x, mp, mode, route, group, config, powers)
    if matrices.is_zero_matrix(s):
        span = matrices.MatrixSpan([n_part], n=len(x))
        return HullResult(span, "proven", "relation-based",
                          witnesses={"nilpotent_part": True})
    semi = _hull_semisimple(s, g, mode, route, group, config)
    span = matrices.span_sum(semi.span, matrices.MatrixSpan([n_part], n=len(x)))
    return HullResult(span, semi.certification, semi.route,
                      witnesses=dict(semi.witnesses, nilpotent_part=True))


def hull_lie_algebra(generators: Sequence, mode: str = "proven",
                     route: str = "lll", *, prime: int | None = None,
                     seed: int = 0, group_order: int | None = None,
                     group=None) -> HullResult:
    """Smallest algebraic Lie algebra containing the generators.

    In characteristic 0 the Lie algebra generated by algebraic Lie
    algebras is algebraic (Chevalley; Borel, *Linear Algebraic Groups*
    §7).  The Lie algebra generated by hull(y) over a basis y of the
    generators' span contains the generators and lies in every algebraic
    Lie algebra that contains them, so it is the hull: one hull_matrix
    per basis element, then one bracket closure.
    """
    _check_options(mode, route)
    if group is not None:
        raise ValueError(
            "hull_lie_algebra takes no group: a permutation group acts on the "
            "roots of one polynomial, and each basis element has its own"
        )
    gens = [matrices.as_matrix(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    base = matrices.span_of(gens, n=len(gens[0]))
    total = base
    certification = "proven"
    for y in base.basis:
        res = hull_matrix(y, mode=mode, route=route, prime=prime, seed=seed,
                          group_order=group_order)
        if res.certification != "proven":
            certification = res.certification
        total = matrices.span_sum(total, res.span)
    return HullResult(matrices.bracket_closure(total), certification,
                      "relation-based", witnesses={"hulls_computed": base.dim})


def is_algebraic(generators: Sequence, mode: str = "proven", route: str = "lll", *,
                 prime: int | None = None, seed: int = 0,
                 group_order: int | None = None) -> bool:
    """True iff the Lie algebra generated by the matrices equals its hull
    (the hull contains it, so equal dimensions suffice)."""
    gens = [matrices.as_matrix(g) for g in generators]
    hull_dim = hull_lie_algebra(gens, mode=mode, route=route, prime=prime, seed=seed,
                                group_order=group_order).dim
    return hull_dim == matrices.bracket_closure(matrices.span_of(gens)).dim


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
        powers = matrices.powers(x, max((len(g) for g in self.gammas), default=0))
        out = [matrices.linear_combination(gamma, powers, len(x)) for gamma in self.gammas]
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
