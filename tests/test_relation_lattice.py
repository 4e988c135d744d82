"""The relation search reduces the relation lattice mod p^k directly.

For targets g_1..g_s with lifted values B_1..B_s (coefficient vectors in
an unramified extension of degree f_p), both routes search

    L_k = {e in Z^s : e_1 B_1 + ... + e_s B_s = 0 mod p^k}

by a precision ladder (`_rung`, one rung at a time): an LLL-reduced basis
of a lattice M with Lambda <= M <= L_k is carried from rung to rung, rows
whose Gram-Schmidt vectors are too long to matter are pruned, and the
search stops at the first rung where every kept row is certified.
`_block_extract` below is the construction the LLL route started from:
reduce the (s + f_p)-dimensional block matrix [I | lam B ; 0 | lam p^k I]
at the ladder's ceiling k_cap and keep the reduced rows whose trailing
block vanishes and which pass the public zero test.  Both must give the
same lattice, wherever the search stops.
Brute-force enumerations of (Z/p^k)^s check the basis of L_k itself and
that pruning keeps every short vector of L_k, and a structural guard
checks that LLL only ever sees s columns, one rung of precision at a time.
"""

import itertools
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import corpus
from alghull import galois, lattice, padic
from alghull import polynomials as pol
from alghull import relations as rel

# ------------------------------------------------------------- reference


def _block_extract(targets, ctx, k, threshold_sq):
    """The block-matrix pass: columns scaled by lam, rows with a zero
    trailing block under the threshold."""
    s, f_p = targets.s, ctx.f_p
    n_bound = rel._shared_bounds(targets, None, f_p)[3]  # N does not depend on r
    lam = max(n_bound**2 * 2 ** (s - 1), math.isqrt(threshold_sq) + 2)
    roots = ctx.roots(k)
    b_rows = [padic.eval_target(g, roots).coeffs for g in targets.targets]
    pk = ctx.p**k
    big = [tuple(1 if j == i else 0 for j in range(s)) + tuple(lam * c for c in b_rows[i])
           for i in range(s)]
    big += [(0,) * s + tuple(lam * pk if l == j else 0 for l in range(f_p))
            for j in range(f_p)]
    found = []
    for row in lattice.lll_reduce(big):
        lead, tail = row[:s], row[s:]
        if not any(tail) and any(lead) and sum(x * x for x in lead) <= threshold_sq:
            found.append(lead)
    return found


def _variables(f):
    n = len(f) - 1
    return rel.TargetSet(tuple(f), tuple(rel.ExponentPolynomial.variable(i, n)
                                         for i in range(n)))


def _power_sums(f, e):
    """The stage-2 targets of the hull for the stage-1 row e."""
    return rel.TargetSet(tuple(f), tuple(rel.ExponentPolynomial.power_sum(e, i)
                                         for i in range(len(e))))


def _search(targets, route, group=None, group_order=None):
    """The route's context and relation basis; the permutation route
    takes the Frobenius group of its context when no group is given."""
    ctx = padic.root_context(targets.f, prefer="min" if route == "lll" else "max")
    if route == "lll":
        return ctx, rel.find_relations_lll(targets, group_order=group_order)
    group = group or galois.PermGroup.frobenius(ctx)
    return ctx, rel.find_relations_galois(targets, group, group_order=group_order)


def _check_search_matches_reference(targets, route, group=None, group_order=None):
    """Run the route's search, and redo it at the ladder's ceiling k_cap
    with the block matrix: the rows under the threshold that pass the
    public zero test must span the same saturated lattice.  Returns the
    result."""
    ctx, res = _search(targets, route, group, group_order)
    _, m, r, _, threshold_sq = rel._shared_bounds(targets, group_order, ctx.f_p)
    k_cap = rel.proven_precision(ctx.p, ctx.f_p,
                                 (math.isqrt(threshold_sq) + 1) * m * targets.s, r)
    assert (res.bounds.p, res.certification) == (ctx.p, "proven")
    assert 1 <= res.bounds.k <= k_cap
    ref = [e for e in _block_extract(targets, ctx, k_cap, threshold_sq)
           if rel.is_zero(corpus.combination(targets, e), targets.f, prime=ctx.p,
                          group_order=group_order)]
    assert lattice.hnf(res.rows) == lattice.hnf(lattice.saturate(ref)), k_cap
    return res


# -------------------------------------------------------- differential


@st.composite
def squarefree_polys(draw):
    """Monic integral squarefree polynomials of degree 1..5, constant
    term first, coefficients in [-4, 4]."""
    n = draw(st.integers(1, 5))
    f = tuple(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))) + (1,)
    assume(pol.degree(pol.squarefree_part(f)) == n)
    return f


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(squarefree_polys(), st.sampled_from(["stage 1", "stage 2"]),
       st.sampled_from(["lll", "galois"]))
def test_relation_lattice_matches_block_matrix(f, stage, route):
    targets = _variables(f)
    if stage == "stage 2":
        # the hull's stage-2 targets for a stage-1 row (all ones if none)
        rows = _search(targets, route)[1].rows
        targets = _power_sums(f, rows[0] if rows else (1,) * (len(f) - 1))
    _check_search_matches_reference(targets, route)


@pytest.mark.parametrize("entry", corpus.CORPUS, ids=lambda e: e.label)
def test_relation_lattice_matches_block_matrix_on_corpus(entry):
    for route in ("lll", "galois"):
        group = corpus.group_for(entry) if route == "galois" else None
        res = _check_search_matches_reference(_variables(entry.poly), route, group,
                                              entry.group_order)
        for e in res.rows[:1]:
            _check_search_matches_reference(_power_sums(entry.poly, e), route, group,
                                            entry.group_order)


# ------------------------------------------------------- brute force


def _brute_force_hnf(b_rows, m):
    """HNF of L = {e : e B = 0 mod m} from all of (Z/m)^s: row i of a
    triangular basis is a solution with zeros before column i and the
    least positive entry in column i (m e_i when there is none)."""
    s = len(b_rows)
    cols = list(zip(*b_rows))
    sols = [v for v in itertools.product(range(m), repeat=s)
            if all(sum(x * c for x, c in zip(v, col)) % m == 0 for col in cols)]
    basis = []
    for i in range(s):
        cands = [v for v in sols if not any(v[:i]) and v[i]]
        basis.append(min(cands, key=lambda v: v[i]) if cands
                     else tuple(m if j == i else 0 for j in range(s)))
    return lattice.hnf(basis)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_relation_lattice_basis_matches_brute_force(data):
    # p^k <= 125, s <= 3, and at most 125^2 vectors enumerated
    s = data.draw(st.integers(1, 3), label="s")
    p, k = data.draw(st.sampled_from([(p, k) for p in (2, 3, 5, 7, 11)
                                      for k in range(1, 8)
                                      if p**k <= 125 and (p**k) ** s <= 125**2]),
                     label="p, k")
    f_p = data.draw(st.integers(1, 2), label="f_p")
    m = p**k
    b_rows = data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=f_p,
                                         max_size=f_p), min_size=s, max_size=s),
                       label="B")
    basis = rel._relation_lattice(b_rows, p, k)
    assert len(basis) == s
    assert all(0 <= x <= m for row in basis for x in row)
    assert basis == _brute_force_hnf(b_rows, m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relation_lattice_is_the_hnf_of_its_generators(data):
    # L_k read off the Howell rows equals the HNF of the generators it
    # comes from: the nullspace of B mod p^k together with p^k I
    s = data.draw(st.integers(1, 6), label="s")
    p = data.draw(st.sampled_from([2, 3, 5, 7, 31, 67]), label="p")
    k = data.draw(st.integers(1, 40), label="k")
    f_p = data.draw(st.integers(1, 3), label="f_p")
    m = p**k
    entry = st.tuples(st.integers(0, m - 1), st.integers(0, k)).map(
        lambda xa: xa[0] * p ** xa[1] % m)  # zero divisors as well as units
    b_rows = data.draw(st.lists(st.lists(entry, min_size=f_p, max_size=f_p),
                                min_size=s, max_size=s), label="B")
    gens = list(lattice.nullspace_mod(b_rows, p, k))
    gens.extend(tuple(m if j == i else 0 for j in range(s)) for i in range(s))
    assert rel._relation_lattice(b_rows, p, k) == lattice.hnf(gens)


# ------------------------------------------------------------- pruning


def _in_lattice(v, b_rows, m):
    return all(sum(x * c for x, c in zip(v, col)) % m == 0 for col in zip(*b_rows))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pruning_keeps_every_short_vector(data):
    # p^k <= 125, s <= 3: the ladder's rungs, climbed as one rung or one
    # rung per power of p, keep an LLL-reduced basis of a sublattice of L_k
    # that holds every v in L_k with ||v||^2 <= T
    s = data.draw(st.integers(1, 3), label="s")
    p, k = data.draw(st.sampled_from([(p, k) for p in (2, 3, 5, 7, 11)
                                      for k in range(1, 8) if p**k <= 125]),
                     label="p, k")
    f_p = data.draw(st.integers(1, 2), label="f_p")
    m = p**k
    b_rows = data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=f_p,
                                         max_size=f_p), min_size=s, max_size=s),
                       label="B")
    threshold_sq = data.draw(st.integers(1, 60), label="T")
    step = data.draw(st.sampled_from([k, 1]), label="rung length")
    basis = tuple(tuple(int(i == j) for j in range(s)) for i in range(s))
    for k_from in range(0, k, step):
        if basis:
            basis = rel._rung(basis, b_rows, p, k_from, min(k_from + step, k), threshold_sq)
    assert all(_in_lattice(row, b_rows, m) for row in basis)
    assert lattice.is_lll_reduced(basis)
    kept = lattice.hnf(basis)
    r = math.isqrt(threshold_sq)
    for v in itertools.product(range(-r, r + 1), repeat=s):
        if sum(x * x for x in v) <= threshold_sq and _in_lattice(v, b_rows, m):
            assert lattice.hnf(list(basis) + [v]) == kept, v


# ------------------------------------------------------- structural guard


@pytest.mark.parametrize("poly, prime, f_p", [
    ((-2, 0, 1), 7, 1),                # x^2 - 2 at 7
    ((-1, -1, 0, 0, 0, 1), None, 2),   # x^5 - x - 1 (at 67)
    ((1, 0, 0, 0, 1), 3, 2),           # x^4 + 1 at 3
    ((1, 1, 1, 1, 1), 2, 4),           # x^4 + x^3 + x^2 + x + 1 at 2
])
def test_lll_sees_s_columns_below_p_to_the_k(poly, prime, f_p):
    targets = _variables(poly)
    seen = []
    real = lattice._lll

    # each rung reduces through lattice._lll, which keeps its Gram
    # determinants, and the final rows through lll_reduce, which wraps it
    def recorded(rows, *args, **kwargs):
        seen.append([tuple(r) for r in rows])
        return real(rows, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_lll", recorded)
        res = rel.find_relations_lll(targets, prime=prime)
    b = res.bounds
    assert b.f_p == f_p
    pk = b.p**b.k
    assert seen
    for rows in seen:
        assert len(rows) <= targets.s
        assert all(len(r) == targets.s for r in rows)
        assert all(abs(x) <= pk for r in rows for x in r)
    # the first rung reduces an HNF basis of L_k1, with p^k1 at most
    # 2^RUNG_BITS: s rows, entries in [0, p^k1]
    step = max(1, int(rel.RUNG_BITS / math.log2(b.p)))
    pk1 = b.p ** min(step, b.k)
    assert pk1 <= 2**rel.RUNG_BITS
    assert len(seen[0]) == targets.s
    assert all(0 <= x <= pk1 for r in seen[0] for x in r)
    # one reduction per rung and one of the final rows; Lambda <= M keeps
    # every rung's basis nonempty when Lambda is not 0
    rungs = -(-b.k // step)
    assert len(seen) <= rungs + 1
    if res.rows:
        assert len(seen) == rungs + 1
