"""Polynomial arithmetic over F_p and the field GF(p^m).

F_p[t] polynomials are tuples of ints in [0, p), constant term first.
GF(p^m) elements are tuples of ints of length m (coordinates on the power
basis of a fixed irreducible modulus).
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


def gf_powmod(f, e: int, mod, p):
    result = (1,)
    base = gf_mod(f, mod, p)
    while e:
        if e & 1:
            result = gf_mod(gf_mul(result, base, p), mod, p)
        base = gf_mod(gf_mul(base, base, p), mod, p)
        e >>= 1
    return result


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
    """Rabin irreducibility test for monic f over F_p."""
    f = gf_normalize(f, p)
    m = len(f) - 1
    if m <= 0:
        return False
    if m == 1:
        return True
    x = (0, 1)
    if gf_powmod(x, p**m, f, p) != gf_mod(x, f, p):
        return False
    for q in _prime_divisors(m):
        h = gf_sub(gf_powmod(x, p ** (m // q), f, p), x, p)
        if len(gf_gcd(h, f, p)) != 1:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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


# ---------------------------------------------------------------- GF(p^m)

class GFpm:
    """The field GF(p^m) as F_p[t]/(modulus)."""

    # A random shift splits a split squarefree polynomial of degree >= 2
    # with probability about 1/2; equal-degree splitting gives up after
    # this many failed trials on one factor.
    SPLIT_TRIALS = 200

    def __init__(self, p: int, modulus: Sequence[int]):
        self.p = p
        self.modulus = gf_normalize(modulus, p)
        self.m = len(self.modulus) - 1
        if self.m < 1:
            raise ValueError("modulus must have positive degree")
        self.q = p**self.m

    def element(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        red = gf_mod(tuple(coeffs), self.modulus, self.p)
        return red + (0,) * (self.m - len(red))

    def zero(self):
        return (0,) * self.m

    def one(self):
        return self.element((1,))

    def from_int(self, a: int):
        return self.element((a % self.p,))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return self.element(gf_mul(a, b, self.p))

    def inv(self, a):
        # extended Euclid in F_p[t]
        if all(x == 0 for x in a):
            raise ZeroDivisionError("inverse of zero in GF(p^m)")
        r0, r1 = self.modulus, gf_normalize(a, self.p)
        t0, t1 = (), (1,)
        while r1:
            q, r = gf_divmod(r0, r1, self.p)
            r0, r1 = r1, r
            t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, self.p), self.p)
        # r0 is a nonzero constant
        c = pow(r0[0], -1, self.p)
        return self.element(gf_normalize([x * c for x in t0], self.p))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    # ------------------------------------------------- polynomials over F

    def poly_normalize(self, f):
        f = list(f)
        while f and self.is_zero(f[-1]):
            f.pop()
        return tuple(f)

    def poly_mul(self, f, g):
        if not f or not g:
            return ()
        out = [self.zero()] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if not self.is_zero(a):
                for j, b in enumerate(g):
                    out[i + j] = self.add(out[i + j], self.mul(a, b))
        return self.poly_normalize(out)

    def poly_divmod(self, f, g):
        if not g:
            raise ZeroDivisionError("division by zero polynomial")
        r = list(f)
        dg = len(g) - 1
        inv_lg = self.inv(g[-1])
        q = [self.zero()] * max(len(r) - dg, 0)
        for shift in range(len(r) - 1 - dg, -1, -1):
            c = self.mul(r[shift + dg], inv_lg)
            if not self.is_zero(c):
                q[shift] = c
                for i, b in enumerate(g):
                    r[shift + i] = self.sub(r[shift + i], self.mul(c, b))
        return self.poly_normalize(q), self.poly_normalize(r)

    def poly_mod(self, f, g):
        return self.poly_divmod(f, g)[1]

    def poly_gcd(self, f, g):
        a, b = self.poly_normalize(f), self.poly_normalize(g)
        while b:
            a, b = b, self.poly_mod(a, b)
        if a:
            inv = self.inv(a[-1])
            a = tuple(self.mul(x, inv) for x in a)
        return a

    def poly_sub(self, f, g):
        n = max(len(f), len(g))
        out = [
            self.sub(
                f[i] if i < len(f) else self.zero(),
                g[i] if i < len(g) else self.zero(),
            )
            for i in range(n)
        ]
        return self.poly_normalize(out)

    def poly_powmod(self, f, e: int, mod):
        result = (self.one(),)
        base = self.poly_mod(f, mod)
        while e:
            if e & 1:
                result = self.poly_mod(self.poly_mul(result, base), mod)
            base = self.poly_mod(self.poly_mul(base, base), mod)
            e >>= 1
        return result

    def roots_of_split_poly(self, f, seed: int = 0) -> list[tuple[int, ...]]:
        """All roots of a squarefree monic polynomial that splits over F.

        Equal-degree splitting with seeded randomness (Las Vegas, at most
        SPLIT_TRIALS random trials per factor); for tiny fields falls back
        to exhaustive search.  Raises ValueError when f does not split
        into distinct linear factors.
        """
        f = self.poly_normalize(f)
        n = len(f) - 1
        if n <= 0:
            return []
        if self.q <= 4096:
            roots = []
            for a in self._all_elements():
                acc = self.zero()
                for c in reversed(f):
                    acc = self.add(self.mul(acc, a), c)
                if self.is_zero(acc):
                    roots.append(a)
        else:
            # f splits into distinct linear factors iff it divides x^q - x
            x = (self.zero(), self.one())
            if self.poly_powmod(x, self.q, f) != self.poly_mod(x, f):
                raise ValueError("polynomial does not split over this field")
            roots = []
            self._split_collect(f, random.Random((seed, self.p, self.m).__hash__()), roots)
        if len(roots) != n:
            raise ValueError("polynomial does not split over this field")
        return roots

    def _split_collect(self, f, rng, out):
        f = self.poly_normalize(f)
        n = len(f) - 1
        if n == 0:
            return
        if n == 1:
            # monic x + c  ->  root -c
            out.append(self.neg(self.mul(f[0], self.inv(f[1]))))
            return
        if self.p == 2:  # the exhaustive search covers every field of size <= 4096
            raise ValueError("equal-degree splitting needs an odd characteristic")
        for _ in range(self.SPLIT_TRIALS):
            a = tuple(rng.randrange(self.p) for _ in range(self.m))
            shifted = ((a), self.one())  # x + a
            h = self.poly_powmod(shifted, (self.q - 1) // 2, f)
            h = self.poly_sub(h, (self.one(),))
            g = self.poly_gcd(h, f)
            if 0 < len(g) - 1 < n:
                self._split_collect(g, rng, out)
                self._split_collect(self.poly_divmod(f, g)[0], rng, out)
                return
        raise ValueError(f"no split of a degree-{n} factor in {self.SPLIT_TRIALS} random trials")

    def _all_elements(self):
        coords = [0] * self.m
        for _ in range(self.q):
            yield tuple(coords)
            for i in range(self.m):
                coords[i] += 1
                if coords[i] < self.p:
                    break
                coords[i] = 0
