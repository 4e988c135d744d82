"""Integer lattice machinery: LLL, HNF, Howell form, nullspaces mod p^k,
rational reconstruction and saturation.

Oracles: integral LLL must match, byte for byte, a rational-arithmetic LLL
that runs the same loop (kept here only as the reference); shortest vectors
for small dimensions come from exhaustive enumeration over a certified
coefficient box; HNF canonicity is checked against random unimodular
re-generations of the same lattice.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import alghull
from alghull import lattice, linalg


def _random_basis(rng, r, n, lo, hi):
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(r)]
        if linalg.rank(rows) == r:
            return rows


def _unimodular(rng, r, steps=12):
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(steps):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def _mat_mul_int(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# -------------------------------------------------------------------- LLL

def test_lll_identity_fixed_point():
    rows = [(1, 0), (0, 1)]
    assert lattice.lll_reduce(rows) == ((1, 0), (0, 1))


def test_lll_classic_example():
    # reduces to vectors much shorter than the input
    rows = [(1, 1, 1), (-1, 0, 2), (3, 5, 6)]
    red = lattice.lll_reduce(rows)
    assert lattice.is_lll_reduced(red)
    assert lattice.hnf(red) == lattice.hnf(rows)


def _rational_lll(rows, delta):
    """LLL with exact rational Gram-Schmidt data, updated in place on a
    swap; the same loop and the same half-even rounding of mu as
    lattice.lll_reduce."""
    b = [list(row) for row in rows]
    n = len(b)
    mu, norms = lattice.gram_schmidt_data(b)

    def reduce_row(i, j):
        if abs(mu[i][j]) > Fraction(1, 2):
            q = round(mu[i][j])
            b[i] = [x - q * y for x, y in zip(b[i], b[j])]
            for l in range(j):
                mu[i][l] -= q * mu[j][l]
            mu[i][j] -= q

    i = 1
    while i < n:
        reduce_row(i, i - 1)
        if norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]:
            for j in range(i - 2, -1, -1):
                reduce_row(i, j)
            i += 1
        else:
            m = mu[i][i - 1]
            new_norm = norms[i] + m * m * norms[i - 1]
            mu[i][i - 1] = m * norms[i - 1] / new_norm
            norms[i] = norms[i - 1] * norms[i] / new_norm
            norms[i - 1] = new_norm
            b[i - 1], b[i] = b[i], b[i - 1]
            for j in range(i - 1):
                mu[i - 1][j], mu[i][j] = mu[i][j], mu[i - 1][j]
            for l in range(i + 1, n):
                t = mu[l][i]
                mu[l][i] = mu[l][i - 1] - m * t
                mu[l][i - 1] = t + mu[i][i - 1] * mu[l][i]
            i = max(i - 1, 1)
    return tuple(tuple(row) for row in b)


@st.composite
def _independent_bases(draw):
    r = draw(st.integers(1, 5))
    bits = draw(st.sampled_from([3, 64, 200]))
    entry = st.integers(-2**bits, 2**bits)
    if draw(st.booleans()):
        # [I | c ; 0 | m]: the HNF basis of the relation lattice L_k
        # mod m = p^k that the relation search reduces, for one constraint
        # with a unit coefficient
        col = draw(st.lists(st.integers(0, 2**bits), min_size=r - 1, max_size=r - 1))
        m = draw(st.integers(1, 2**bits))
        return ([[int(i == j) for j in range(r - 1)] + [c] for i, c in enumerate(col)]
                + [[0] * (r - 1) + [m]])
    n = draw(st.integers(r, 6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    assume(linalg.rank(rows) == r)
    return rows


@given(_independent_bases(),
       st.sampled_from([Fraction(51, 100), Fraction(3, 4), Fraction(99, 100)]))
@settings(max_examples=150, deadline=None)
def test_integral_lll_matches_rational_reference(rows, delta):
    red = lattice.lll_reduce(rows, delta)
    assert red == _rational_lll(rows, delta)
    assert lattice.is_lll_reduced(red, delta)


@given(_independent_bases())
@settings(max_examples=100, deadline=None)
def test_lll_returns_the_gram_determinants_of_its_basis(rows):
    # the relation search prunes with these d; d[i] / d[i-1] is the
    # squared norm of the i-th Gram-Schmidt vector of the output
    red, d = lattice._lll(rows)
    assert red == lattice.lll_reduce(rows)
    norms = lattice.gram_schmidt_data(red)[1]
    assert d[0] == 1 and len(d) == len(red) + 1
    assert all(Fraction(d[i + 1], d[i]) == norms[i] for i in range(len(red)))


def test_lll_rounds_half_integers_to_even():
    # mu = 5/2 rounds to 2, as round() does: (5, 1) - 2 (2, 0) = (1, 1);
    # rounding up to 3 would give (-1, 1) and the output ((-1, 1), (1, 1))
    assert lattice.lll_reduce([(2, 0), (5, 1)]) == ((1, 1), (1, -1))
    # mu = 7/2 rounds up to 4, giving (-1, 1); mu = -5/2 rounds to -2,
    # giving (-1, 1) as well
    assert lattice.lll_reduce([(2, 0), (7, 1)]) == ((-1, 1), (1, 1))
    assert lattice.lll_reduce([(2, 0), (-5, 1)]) == ((-1, 1), (1, 1))
    rng = random.Random(59)
    for _ in range(300):
        r = rng.randint(2, 4)
        rows = _random_basis(rng, r, rng.randint(r, 4), -3, 3)
        rows[0] = [2 * x for x in rows[0]]  # even entries make mu often a half-integer
        assert lattice.lll_reduce(rows) == _rational_lll(rows, Fraction(3, 4))


DEPENDENT = [
    [(1, 2), (2, 4)],
    [(0, 0, 0), (1, 2, 3)],  # zero row first
    [(1, 2, 3), (0, 0, 0)],  # zero row last
    [(1, 0, 2, 1), (0, 1, 1, 1), (3, 1, 4, 1), (4, 2, 7, 3)],  # only the last row
    [(1, 0), (0, 1), (1, 1)],  # more rows than columns
]


def test_lll_rejects_dependent_rows():
    for rows in DEPENDENT:
        with pytest.raises(ValueError, match="linearly independent"):
            lattice.lll_reduce(rows)


def test_cli_lll_rejects_dependent_rows_under_optimisation():
    # python -O strips asserts: the check must be an explicit error
    src = os.path.dirname(os.path.dirname(alghull.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-m", "alghull.cli", "lll", "-"],
                          input=json.dumps(DEPENDENT[3]), capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 2
    assert "linearly independent" in done.stderr


def test_lll_rejects_ragged_rows():
    for rows in ([(3, 0, 0), (5, 1)], [(1, 0), (0, 1, 0)], [(1,), ()]):
        with pytest.raises(ValueError, match="equal length"):
            lattice.lll_reduce(rows)


def test_lll_delta_domain():
    with pytest.raises(ValueError):
        lattice.lll_reduce([(1, 0), (0, 1)], delta=Fraction(1, 8))


def test_lll_reduction_properties_random():
    rng = random.Random(23)
    for _ in range(120):
        r = rng.randint(1, 6)
        n = rng.randint(r, 8)
        rows = _random_basis(rng, r, n, -50, 50)
        red = lattice.lll_reduce(rows)
        assert lattice.is_lll_reduced(red)
        assert lattice.hnf(red) == lattice.hnf(rows)


def test_lll_large_entries():
    rng = random.Random(29)
    for _ in range(10):
        rows = _random_basis(rng, 4, 5, -10**6, 10**6)
        red = lattice.lll_reduce(rows)
        assert lattice.is_lll_reduced(red)
        assert lattice.hnf(red) == lattice.hnf(rows)


def _shortest_norm_sq(rows):
    """Exhaustive shortest-vector oracle for small full lattices.

    Any shortest vector x = c B satisfies |c_i| <= ||x|| * ||col_i(B^-1)||,
    and ||x|| is at most the shortest input row, which bounds the box.
    """
    r = len(rows)
    best = min(sum(x * x for x in row) for row in rows)
    # inverse of B B^T gives the coefficient bound via c = x B^T (B B^T)^-1
    gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in rows] for ri in rows]
    aug = [[Fraction(gram[i][j]) for j in range(r)]
           + [Fraction(1 if i == k else 0) for k in range(r)] for i in range(r)]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col]:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    inv = [row[r:] for row in aug]
    bounds = []
    for i in range(r):
        # |c_i| <= ||x|| ||row_i of B (BB^T)^-1|| <= sqrt(best) * that norm
        vec = [sum(Fraction(rows[l][j]) * inv[l][i] for l in range(r))
               for j in range(len(rows[0]))]
        norm_sq = sum(v * v for v in vec)
        bounds.append(math.isqrt(math.ceil(best * norm_sq)) + 1)

    coeffs = [0] * r
    found = [best]

    def rec(i):
        if i == r:
            if any(coeffs):
                v = [sum(c * row[j] for c, row in zip(coeffs, rows))
                     for j in range(len(rows[0]))]
                found[0] = min(found[0], sum(x * x for x in v))
            return
        for c in range(-bounds[i], bounds[i] + 1):
            coeffs[i] = c
            rec(i + 1)
        coeffs[i] = 0

    rec(0)
    return found[0]


def test_lll_first_vector_approximation():
    # ||b_1||^2 <= 2^(r-1) * lambda_1^2 against the enumeration oracle
    rng = random.Random(31)
    for _ in range(30):
        r = rng.randint(1, 3)
        n = rng.randint(r, 4)
        rows = _random_basis(rng, r, n, -9, 9)
        red = lattice.lll_reduce(rows)
        b1 = sum(x * x for x in red[0])
        assert b1 <= 2 ** (r - 1) * _shortest_norm_sq(rows)


# -------------------------------------------------------------------- HNF

def test_hnf_examples():
    assert lattice.hnf([[2, 3, 1], [4, 1, 3], [0, 0, 0]]) == ((2, 3, 1), (0, 5, -1))
    assert lattice.hnf([[0, 0], [0, 0]]) == ()
    assert lattice.hnf([[-1, 0], [0, -1]]) == ((1, 0), (0, 1))


def test_hnf_pivots_positive_and_reduced():
    rng = random.Random(37)
    for _ in range(50):
        r, n = rng.randint(1, 4), rng.randint(1, 5)
        h = lattice.hnf([[rng.randint(-20, 20) for _ in range(n)] for _ in range(r)])
        pivots = []
        for row in h:
            col = next(c for c, x in enumerate(row) if x)
            assert row[col] > 0
            pivots.append((col, row[col]))
        for i, (col, pv) in enumerate(pivots):
            for j in range(i):
                assert 0 <= h[j][col] < pv


def test_hnf_canonical_under_unimodular_change():
    rng = random.Random(41)
    for _ in range(40):
        r = rng.randint(1, 4)
        n = rng.randint(r, 5)
        rows = _random_basis(rng, r, n, -15, 15)
        other = _mat_mul_int(_unimodular(rng, r), rows)
        assert lattice.hnf(rows) == lattice.hnf(other)


def test_kernel_int():
    rows = [[1, 2], [2, 4], [0, 1]]
    ker = lattice.kernel_int(rows)
    assert len(ker) == 1
    for v in ker:
        for j in range(2):
            assert sum(v[i] * rows[i][j] for i in range(3)) == 0
    # kernel generators are primitive (the kernel lattice is saturated)
    assert math.gcd(*ker[0]) == 1


# ------------------------------------------------------------------ Z/p^k

def test_howell_handles_zero_divisors():
    assert lattice.howell([[7]], 7, 2) == ((7,),)
    # 7 * (1, 3) = (7, 21); the Howell form must expose the torsion row
    h = lattice.howell([[7, 21], [0, 7]], 7, 2)
    for row in h:
        assert any(row)
    # every original row lies in the span of the Howell rows
    assert lattice.howell([[7, 21], [0, 7]] + [list(r) for r in h], 7, 2) == h


def test_rank_lower_bound_counts_elementary_divisors_not_howell_pivots():
    # [[p, 1]] mod p^2: two Howell pivots, rank 1
    for p in (2, 3, 7):
        assert len(lattice.howell([[p, 1]], p, 2)) == 2
        assert lattice.rank_lower_bound([[p, 1]], p, 2) == 1
    assert lattice.rank_lower_bound([[9, 0], [0, 3]], 3, 2) == 1  # 9 = 0 mod 3^2
    assert lattice.rank_lower_bound([[9, 0], [0, 3]], 3, 3) == 2
    assert lattice.rank_lower_bound([[0, 0]], 5, 4) == 0
    assert lattice.rank_lower_bound([], 5, 4) == 0


@given(st.integers(1, 5).flatmap(lambda s: st.integers(1, 6).flatmap(
           lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                              min_size=s, max_size=s))),
       st.sampled_from([2, 3, 5, 7]), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_rank_lower_bound_never_exceeds_the_rank(rows, p, k):
    rank = len(linalg.rref(rows)[1])
    assert lattice.rank_lower_bound(rows, p, k) <= rank
    # every minor has |det| <= 5! 9^5 < 2^64, so no nonzero minor vanishes
    # mod p^64 and the bound is the rank
    assert lattice.rank_lower_bound(rows, p, 64) == rank


def test_nullspace_mod_examples():
    assert lattice.nullspace_mod([[7]], 7, 2) == ((7,),)
    ns = lattice.nullspace_mod([[7], [14]], 7, 2)
    assert ns == ((1, 3), (0, 7))
    for v in ns:
        assert (7 * v[0] + 14 * v[1]) % 49 == 0


def test_nullspace_mod_property():
    rng = random.Random(43)
    p, k = 5, 4
    mod = p**k
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(m)]
        ns = lattice.nullspace_mod(rows, p, k)
        # soundness: every generator annihilates the rows mod p^k
        for v in ns:
            for j in range(n):
                assert sum(v[i] * rows[i][j] for i in range(m)) % mod == 0
        # completeness: a random true nullspace element is spanned
        for _ in range(5):
            cand = [rng.randrange(mod) for _ in range(m)]
            if all(sum(cand[i] * rows[i][j] for i in range(m)) % mod == 0
                   for j in range(n)):
                joined = [list(v) for v in ns] + [cand]
                assert lattice.howell(joined, p, k) == lattice.howell(
                    [list(v) for v in ns], p, k)


# ------------------------------------------------- rational reconstruction

def test_rational_reconstruction_examples():
    assert lattice.rational_reconstruction(3, 49) == Fraction(3)
    assert lattice.rational_reconstruction(33, 49) == Fraction(1, 3)
    assert lattice.rational_reconstruction(48, 49) == Fraction(-1)
    # 2 * 24 = 48 = -1 mod 49, and |−1|, 2 are within floor(sqrt(49/2)) = 4
    assert lattice.rational_reconstruction(24, 49) == Fraction(-1, 2)
    # 5 exceeds the numerator bound 4 and 5 = u/v has no other
    # representative within the bounds
    assert lattice.rational_reconstruction(5, 49) is None


def test_rational_reconstruction_input_validation():
    with pytest.raises(ValueError):
        lattice.rational_reconstruction(49, 49)
    with pytest.raises(ValueError):
        lattice.rational_reconstruction(-1, 49)


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_rational_reconstruction_output_contract(a):
    m = 10**6 + 3
    out = lattice.rational_reconstruction(a % m, m)
    bound = math.isqrt(m // 2)
    if out is not None:
        assert abs(out.numerator) <= bound and 1 <= out.denominator <= bound
        assert (out.numerator - (a % m) * out.denominator) % m == 0


def test_rational_reconstruction_roundtrip():
    rng = random.Random(47)
    m = 7**9
    bound = math.isqrt(m // 2)
    for _ in range(300):
        u = rng.randint(-bound, bound)
        v = rng.randint(1, bound)
        if math.gcd(v, 7) != 1:
            continue
        g = math.gcd(abs(u), v)
        if g:
            u, v = u // g, v // g
        a = (u * pow(v, -1, m)) % m
        assert lattice.rational_reconstruction(a, m) == Fraction(u, v)


# -------------------------------------------------------------- saturation

def test_saturate_examples():
    assert lattice.saturate([(2, 4)]) == ((1, 2),)
    assert lattice.saturate([(Fraction(1, 2), Fraction(1))]) == ((1, 2),)
    assert lattice.saturate([(0, 0)]) == ()
    # full-rank span saturates to Z^n
    assert lattice.saturate([(2, 0), (0, 3)]) == ((1, 0), (0, 1))


def test_saturate_is_idempotent_and_spans():
    rng = random.Random(53)
    for _ in range(40):
        r, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(r)]
        sat = lattice.saturate(rows)
        if not sat:
            assert all(all(x == 0 for x in row) for row in rows)
            continue
        assert lattice.saturate(sat) == lattice.hnf(sat)
        # same Q-span as the input
        assert linalg.rank(list(rows) + [list(v) for v in sat]) == linalg.rank(rows)
        # saturated: any integer vector in the Q-span is in the lattice
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(len(sat))]
            v = [sum(c * row[j] for c, row in zip(coeffs, sat)) for j in range(n)]
            if all(x.denominator == 1 for x in v):
                ints = [int(x) for x in v]
                assert lattice.hnf([list(r) for r in sat] + [ints]) == lattice.hnf(
                    [list(r) for r in sat])
