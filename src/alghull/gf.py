"""Polynomial arithmetic over F_p.

F_p[t] polynomials are tuples of ints in [0, p), constant term first.
Products and divisions sum raw integer products and reduce each
coefficient mod p once.  Factoring runs in two steps, both over F_p:
distinct_degree_factors groups the irreducible factors of a squarefree
polynomial by degree (distinct_degree_groups memoises it, with the
squarefree test, per polynomial and prime), and equal_degree_factors
(Cantor-Zassenhaus) splits one group into its factors.  Arithmetic in GF(p^m) = F_p[t]/(omega)
itself runs on coefficient tuples in padic's flat kernel (padic._mul at
modulus p); gf_inverse supplies its inverses and power its powers.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence


# ---------------------------------------------------------------- F_p[t]

def gf_normalize(f: Sequence[int], p: int) -> tuple[int, ...]:
    c = [x % p for x in f]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def gf_sub(f, g, p):
    n = max(len(f), len(g))
    return gf_normalize(
        [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)], p
    )


def gf_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return gf_normalize(out, p)


def gf_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    # r holds raw sums: a coefficient is reduced mod p when it leads, and
    # the remainder's at the end
    r = list(f)
    dg = len(g) - 1
    inv_lg = pow(g[-1], -1, p)
    q = [0] * max(len(r) - dg, 0)
    for shift in range(len(r) - 1 - dg, -1, -1):
        c = (r[shift + dg] * inv_lg) % p
        if c:
            q[shift] = c
            for i in range(dg):
                r[shift + i] -= c * g[i]
    return gf_normalize(q, p), gf_normalize(r[:dg], p)


def gf_mod(f, g, p):
    return gf_divmod(f, g, p)[1]


def gf_gcd(f, g, p):
    a, b = gf_normalize(f, p), gf_normalize(g, p)
    while b:
        a, b = b, gf_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = gf_normalize([x * inv for x in a], p)
    return a


def gf_inverse(a, modulus, p):
    """Inverse of a modulo modulus in F_p[t], by extended Euclid.

    ZeroDivisionError when a and modulus have a common factor (a is zero
    modulo an irreducible modulus).
    """
    r0, r1 = gf_normalize(modulus, p), gf_normalize(a, p)
    t0, t1 = (), (1,)
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("not invertible modulo the defining polynomial")
    c = pow(r0[0], -1, p)
    return gf_mod(gf_normalize([x * c for x in t0], p), modulus, p)


def power(base, e: int, mul):
    """base^e for e >= 1 under an associative product mul, by
    square-and-multiply with no product by one and no squaring past the
    top bit of e.  The one such loop: gf_powmod, padic._powmod (powers of
    polynomials over GF(p^m)), padic._frobenius (powers in GF(p^m)) and
    PadicElement.__pow__ run on it."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if not e:
            return result
        base = mul(base, base)


def gf_powmod(f, e: int, mod, p):
    if not e:
        return (1,)
    return power(gf_mod(f, mod, p), e, lambda a, b: gf_mod(gf_mul(a, b, p), mod, p))


def gf_is_squarefree(f, p) -> bool:
    deriv = gf_normalize([i * f[i] for i in range(1, len(f))], p)
    if not deriv:
        return len(gf_normalize(f, p)) <= 1
    return len(gf_gcd(f, deriv, p)) == 1


def distinct_degree_factors(f, p) -> list[tuple[int, tuple[int, ...]]]:
    """The distinct-degree factorisation of f mod p: pairs (d, g_d), d
    increasing, g_d the product of the irreducible factors of degree d.

    Requires f squarefree mod p (not tested here; distinct_degree_groups
    tests it).  Uses gcds with t^(p^d) - t; the g_d of a monic f are monic.
    """
    f = gf_normalize(f, p)
    groups: list[tuple[int, tuple[int, ...]]] = []
    h = (0, 1)  # t
    work = f
    d = 0
    while len(work) - 1 > 0:
        d += 1
        if 2 * d > len(work) - 1:
            # remaining factor is irreducible of degree deg(work)
            groups.append((len(work) - 1, work))
            break
        h = gf_powmod(h, p, work, p)
        g = gf_gcd(gf_sub(h, (0, 1), p), work, p)
        if len(g) > 1:
            groups.append((d, g))
            work = gf_divmod(work, g, p)[0]
            h = gf_mod(h, work, p)
    return groups


@lru_cache(maxsize=1024)
def distinct_degree_groups(f: tuple[int, ...], p: int):
    """The distinct-degree groups (d, g_d) of f = gf_normalize(f, p) as a
    tuple, or None when f is not squarefree mod p.

    Memoised per (f mod p, p): a polynomial's prime scan, its root
    context's admissibility test and selection, and its residue roots all
    factor f at the same primes, and the squarefree gcd and the
    distinct-degree loop run once for each.
    """
    if not gf_is_squarefree(f, p):
        return None
    return tuple(distinct_degree_factors(f, p))


def distinct_degree_degrees(f, p) -> tuple[int, ...]:
    """Multiset (sorted tuple) of irreducible factor degrees of f mod p.

    Requires f squarefree mod p (a ValueError otherwise); the degrees come
    from distinct_degree_groups, with no full factorization.
    """
    groups = distinct_degree_groups(gf_normalize(f, p), p)
    if groups is None:
        raise ValueError("polynomial is not squarefree mod p")
    return tuple(sorted(d for d, g in groups for _ in range((len(g) - 1) // d)))


def equal_degree_factors(g, d: int, p: int, rng: random.Random,
                         trials: int) -> list[tuple[int, ...]]:
    """The irreducible factors of a monic squarefree g mod p whose
    irreducible factors all have degree d (a g_d of
    distinct_degree_factors), by Cantor-Zassenhaus equal-degree splitting:
    for a random a, gcd(a^((p^d - 1)/2) - 1, g) is a proper factor with
    probability about 1/2.  ValueError after `trials` failed draws on one
    factor, and in characteristic 2, where the split does not work.
    """
    n = len(g) - 1
    if n <= d:
        return [g]
    if p == 2:
        raise ValueError("equal-degree splitting needs an odd characteristic")
    half = (p**d - 1) // 2
    for _ in range(trials):
        a = gf_normalize([rng.randrange(p) for _ in range(n)], p)
        s = gf_gcd(gf_sub(gf_powmod(a, half, g, p), (1,), p), g, p) if a else ()
        if 0 < len(s) - 1 < n:
            return (equal_degree_factors(s, d, p, rng, trials)
                    + equal_degree_factors(gf_divmod(g, s, p)[0], d, p, rng, trials))
    raise ValueError(f"no split of a degree-{n} factor in {trials} random trials")


def gf_is_irreducible(f, p) -> bool:
    """f is irreducible over F_p: squarefree with one irreducible factor,
    of degree deg f (distinct_degree_degrees).

    A ValueError means False: distinct_degree_degrees raises it for a
    repeated factor, and pow raises it when p is composite and a gcd
    meets a leading coefficient that is not a unit.
    """
    f = gf_normalize(f, p)
    try:
        return distinct_degree_degrees(f, p) == (len(f) - 1,)
    except ValueError:
        return False


def find_irreducible(p: int, m: int, seed: int = 0) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree m over F_p (seeded search).

    p must be prime.  At least a fraction 1/(2m) of the monic polynomials
    of degree m over F_p are irreducible, so the 200 m candidates tried
    all fail with probability below e^-100; ValueError then, as for a
    composite p, which has no field to search.
    """
    if m == 1:
        return (0, 1)
    rng = random.Random((seed, p, m).__hash__())
    for _ in range(200 * m):
        cand = tuple(rng.randrange(p) for _ in range(m)) + (1,)
        if gf_is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m} over F_{p} "
                     f"among {200 * m} candidates")
