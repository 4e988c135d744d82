"""Exact univariate polynomial arithmetic over Q.

Polynomials are tuples of coefficients, constant term first.  The zero
polynomial is the empty tuple.  Coefficients are ints or Fractions; all
operations are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple  # tuple of Fraction/int, constant term first


def normalize(coeffs: Sequence) -> Poly:
    """Strip trailing zero coefficients."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f: Poly) -> int:
    """Degree of f; the zero polynomial has degree -1."""
    return len(f) - 1


def is_monic(f: Poly) -> bool:
    return bool(f) and f[-1] == 1


def leading(f: Poly):
    if not f:
        raise ValueError("zero polynomial has no leading coefficient")
    return f[-1]


def add(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return normalize(
        [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]
    )


def sub(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return normalize(
        [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]
    )


def scale(f: Poly, c) -> Poly:
    if c == 0:
        return ()
    return normalize([a * c for a in f])


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return normalize(out)


def divmod_poly(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder over Q."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(a) for a in f]
    dg = degree(g)
    lg = Fraction(g[-1])
    q = [Fraction(0)] * max(len(r) - dg, 0)
    for shift in range(len(r) - 1 - dg, -1, -1):
        c = r[shift + dg] / lg
        if c == 0:
            continue
        q[shift] = c
        for i, b in enumerate(g):
            r[shift + i] -= c * b
    return normalize(q), normalize(r)


def monic(f: Poly) -> Poly:
    if not f:
        raise ValueError("cannot make the zero polynomial monic")
    lc = f[-1]
    return tuple(Fraction(a) / lc for a in f)


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q (1 for coprime inputs, () only if both are zero)."""
    a, b = f, g
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return monic(a) if a else ()


def derivative(f: Poly) -> Poly:
    return normalize([i * f[i] for i in range(1, len(f))])


def squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f'), made monic."""
    if not f:
        raise ValueError("zero polynomial has no squarefree part")
    g = gcd(f, derivative(f))
    if degree(g) == 0:
        return monic(f)
    q, r = divmod_poly(f, g)
    if r:
        raise ValueError("gcd(f, f') does not divide f")
    return monic(q)


def content_denominator(f: Poly) -> int:
    """Lcm of the coefficient denominators."""
    from math import lcm

    d = 1
    for c in f:
        d = lcm(d, Fraction(c).denominator)
    return d


def to_int_coeffs(f: Poly) -> tuple[int, ...]:
    """Coefficients as ints; raises if any coefficient is non-integral."""
    out = []
    for c in f:
        fc = Fraction(c)
        if fc.denominator != 1:
            raise ValueError("polynomial has non-integral coefficients")
        out.append(fc.numerator)
    return tuple(out)


def scale_roots(f: Poly, c) -> Poly:
    """Monic polynomial whose roots are c times the roots of monic f.

    For f = x^n + a_1 x^{n-1} + ... the result has coefficients a_i * c^i.
    """
    if not is_monic(f):
        raise ValueError("scale_roots expects a monic polynomial")
    n = degree(f)
    return normalize([f[i] * Fraction(c) ** (n - i) for i in range(n)] + [1])


def integral_scaling(f: Poly) -> int:
    """Smallest convenient c >= 1 such that scale_roots(f, c) is integral.

    Takes c as the lcm of the coefficient denominators; then c^(n-i) * a_i
    is integral for every coefficient a_i.
    """
    return content_denominator(f)
