"""Polynomial arithmetic over F_p.

F_p[t] polynomials are tuples of ints in [0, p), constant term first.
Arithmetic in GF(p^m) itself runs on padic.UnramifiedRing at precision 1;
gf_inverse supplies its residue inverses.
"""

from __future__ import annotations

import random
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
                out[i + j] = (out[i + j] + a * b) % p
    return gf_normalize(out, p)


def gf_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    r = [x % p for x in f]
    dg = len(g) - 1
    inv_lg = pow(g[-1], -1, p)
    q = [0] * max(len(r) - dg, 0)
    for shift in range(len(r) - 1 - dg, -1, -1):
        c = (r[shift + dg] * inv_lg) % p
        if c:
            q[shift] = c
            for i, b in enumerate(g):
                r[shift + i] = (r[shift + i] - c * b) % p
    return gf_normalize(q, p), gf_normalize(r, p)


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
    top bit of e.  The one such loop: gf_powmod, padic._powmod and
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


def distinct_degree_degrees(f, p) -> tuple[int, ...]:
    """Multiset (sorted tuple) of irreducible factor degrees of f mod p.

    Requires f squarefree mod p.  Uses gcds with t^(p^d) - t; no full
    factorization is performed.
    """
    f = gf_normalize(f, p)
    if not gf_is_squarefree(f, p):
        raise ValueError("polynomial is not squarefree mod p")
    degrees: list[int] = []
    h = (0, 1)  # t
    work = f
    d = 0
    while len(work) - 1 > 0:
        d += 1
        if 2 * d > len(work) - 1:
            # remaining factor is irreducible of degree deg(work)
            degrees.append(len(work) - 1)
            break
        h = gf_powmod(h, p, work, p)
        g = gf_gcd(gf_sub(h, (0, 1), p), work, p)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            work = gf_divmod(work, g, p)[0]
            h = gf_mod(h, work, p)
    return tuple(sorted(degrees))


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
