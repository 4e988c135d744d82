"""The trace criterion: an oracle for the hull of one matrix that needs no
relation search.

Let char_poly(X) be irreducible over Q of degree n.  When n is prime, or
the Galois group is 2-transitive, the permutation module Q^n of the
Galois group is the trivial line plus one irreducible complement, so the
only possible integer relation among the eigenvalues is their sum, and
it holds exactly when Tr X = 0.  The hull of span{X} is then the
trace-zero part of the power span of X when Tr X = 0, and the whole power
span otherwise.
"""

from fractions import Fraction

import sympy

from alghull import matrices


def _irreducible_over_q(f) -> bool:
    x = sympy.symbols("x")
    return sympy.Poly(list(reversed(f)), x, domain="QQ").is_irreducible


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def trace_criterion_hull(x, two_transitive: bool = False):
    """Hull of span{X} by the trace criterion, or None when it does not
    apply: char_poly(X) must be irreducible over Q, of prime degree unless
    the caller asserts a 2-transitive Galois group."""
    x = matrices.as_matrix(x)
    cp = matrices.char_poly(x)
    n = len(cp) - 1
    if n < 1 or not _irreducible_over_q(cp):
        return None
    if not (_is_prime(n) or two_transitive):
        return None
    # an irreducible characteristic polynomial is also the minimal one
    powers = [matrices.identity(n)]
    for _ in range(n - 1):
        powers.append(matrices.mat_mul(powers[-1], x))
    if matrices.trace(x) != 0:
        return matrices.span_of(powers, n=n)
    # X^i - (Tr X^i / n) I, i = 1..n-1, span the trace-zero part
    return matrices.span_of([
        matrices.mat_sub(p, matrices.mat_scale(powers[0], Fraction(matrices.trace(p), n)))
        for p in powers[1:]
    ], n=n)
