"""Finite-precision arithmetic in the unramified extension of Q_p where a
squarefree integral polynomial splits, plus root lifting.

The ring is (Z/p^k)[t]/(omega) with omega monic of degree f_p, irreducible
mod p.  Elements are coefficient tuples of length f_p with entries in
[0, p^k).  The same integer lift of omega (entries in [0, p)) is reused at
every precision, so roots lifted at different precisions stay compatible.

The residue field GF(p^f_p) = F_p[t]/(omega) runs on coefficient tuples
through the flat kernel the Newton lift runs on (_mul, _horner):
residue_roots finds the roots of f there (one per irreducible factor of f
over F_p, which gf finds, and the rest as its Frobenius orbit), and
frobenius_perm gives the permutation alpha -> alpha^p of the roots.
increase_precision Hensel-lifts one root per orbit of that permutation
and maps it to the rest of its orbit by the Frobenius automorphism of the
ring, t -> tau, with tau the lifted root of omega that is t^p mod p.
The factorisation of f mod p is memoised (gf.distinct_degree_groups):
the prime scan, the admissibility test, the selection and residue_roots
at one prime share it.  Only target evaluation (eval_target) builds a
PadicElement per operation.

Callers reach roots through a RootContext (see root_context): one per
polynomial, prime and seed, holding the prime selection, omega, the
highest-precision lift made so far with its Newton state (the inverses
f'(alpha)^-1 and tau with omega'(tau)^-1), and the Frobenius permutation
of the roots, which its first lift computes.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

from . import gf, lattice
from . import polynomials as pol


class PadicError(ValueError):
    pass


class NoAdmissiblePrime(PadicError):
    pass


class NotSquarefree(PadicError):
    """f has a repeated root over Q, so no prime is admissible."""


# ----------------------------------------------------------------- primes

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _primes_from(start: int):
    return filter(_is_prime, itertools.count(max(start, 2)))


def is_admissible(f: Sequence[int], p: int) -> bool:
    """p is admissible for monic integral f when f stays squarefree mod p
    (gf.distinct_degree_groups, which the selection and the residue roots
    at p read as well)."""
    fp = gf.gf_normalize(f, p)
    # a vanished leading coefficient (non-monic reduction) is not admissible
    return len(fp) == len(f) and gf.distinct_degree_groups(fp, p) is not None


@dataclass(frozen=True)
class PrimeSelection:
    """A prime p, the degrees of the irreducible factors of f mod p and
    their lcm f_p, the order of Frobenius at p.

    f_p_lcm is the lcm of the f_p of every admissible prime the choice
    factored f at: just f_p at a fixed prime, the whole scan for
    select_prime.  The order of the Galois group of f is a multiple of
    each f_p (Frobenius at p is an element of order f_p), so of f_p_lcm;
    that includes deg f when some prime leaves f irreducible.  It records
    how the choice was made, not the choice, so it is left out of ==.
    """

    p: int
    f_p: int
    degrees: tuple[int, ...]
    f_p_lcm: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.f_p_lcm is None:
            object.__setattr__(self, "f_p_lcm", self.f_p)


def factor_degrees(f: Sequence[int], p: int) -> tuple[int, ...]:
    """Degrees of the irreducible factors of f mod p (sorted multiset)."""
    return gf.distinct_degree_degrees(gf.gf_normalize(f, p), p)


def _selection_at(f: Sequence[int], p: int) -> PrimeSelection:
    degs = factor_degrees(f, p)
    return PrimeSelection(p, math.lcm(*degs) if degs else 1, degs)


# select_prime compares the first SEARCH_LIMIT admissible primes above deg f
# and tries at most 10 * SEARCH_LIMIT candidates, so the scan ends even when
# few primes (or none) are admissible.
SEARCH_LIMIT = 20


def _check_prefer(prefer: str) -> None:
    if prefer not in ("min", "max"):
        raise ValueError(f"unknown preference {prefer!r}")


def select_prime(f: Sequence[int], prefer: str = "min") -> PrimeSelection:
    """Choose a prime among the first SEARCH_LIMIT admissible ones above deg f.

    prefer="min" minimizes the splitting degree f_p (ties: smallest p);
    prefer="max" maximizes it, which feeds the Galois-action route more
    Frobenius columns.  Candidates come in increasing order and f_p >= 1,
    so with prefer="min" the scan stops at the first admissible prime where
    f splits (f_p = 1): no later prime can beat it.  prefer="max" compares
    the whole scan.  The result's f_p_lcm covers every prime scanned.  An
    unknown preference is a ValueError before any work.  f is monic, so a
    prime is admissible when f stays squarefree mod p, which the
    factorisation at p tests (one squarefree gcd per candidate).
    """
    _check_prefer(prefer)
    found: list[PrimeSelection] = []
    f_p_lcm = 1
    candidates = _primes_from(len(f))
    for _ in range(10 * SEARCH_LIMIT):
        if len(found) >= SEARCH_LIMIT:
            break
        p = next(candidates)
        try:  # the factorisation tests that f stays squarefree mod p
            sel = _selection_at(f, p)
        except ValueError:
            continue
        f_p_lcm = math.lcm(f_p_lcm, sel.f_p)
        if prefer == "min" and sel.f_p == 1:
            return replace(sel, f_p_lcm=f_p_lcm)
        found.append(sel)
    if not found:
        raise NoAdmissiblePrime(
            f"no admissible prime for the polynomial among the first "
            f"{10 * SEARCH_LIMIT} candidates"
        )
    if prefer == "min":
        best = min(found, key=lambda s: (s.f_p, s.p))
    else:
        best = min(found, key=lambda s: (-s.f_p, s.p))
    return replace(best, f_p_lcm=f_p_lcm)


# ------------------------------------------------------------------- ring

class UnramifiedRing:
    """(Z/p^k)[t]/(omega): precision-k model of the unramified extension.

    Made by build_unramified, over the monic omega that gf.find_irreducible
    found and tested irreducible mod p; at_precision keeps that omega.
    """

    def __init__(self, p: int, k: int, omega: tuple[int, ...]):
        if k < 1:
            raise PadicError("precision exponent must be >= 1")
        self.p, self.k, self.modulus = p, k, p**k
        self.omega = omega
        self.degree = len(omega) - 1

    def __eq__(self, other):
        return (
            isinstance(other, UnramifiedRing)
            and (self.p, self.k, self.omega) == (other.p, other.k, other.omega)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.omega))

    def __repr__(self):
        return f"UnramifiedRing(p={self.p}, k={self.k}, f_p={self.degree})"

    def at_precision(self, k: int) -> "UnramifiedRing":
        """The same extension at precision k; omega is not tested again."""
        if k == self.k:
            return self
        if k < 1:
            raise PadicError("precision exponent must be >= 1")
        ring = copy.copy(self)
        ring.k, ring.modulus = k, self.p**k
        return ring

    def element(self, coeffs: Sequence[int]) -> "PadicElement":
        c = [int(x) for x in coeffs]
        if len(c) > self.degree:
            c = _reduce(c, self.omega)
        c = [x % self.modulus for x in c]
        c += [0] * (self.degree - len(c))
        return PadicElement(self, tuple(c))

    def zero(self) -> "PadicElement":
        return PadicElement(self, (0,) * self.degree)

    def from_int(self, a: int) -> "PadicElement":
        return self.element((a,))


def _reduce(c: list[int], omega: tuple[int, ...]) -> list[int]:
    """The remainder of c (a list, consumed) by the monic omega, not yet
    reduced mod p^k."""
    d = len(omega) - 1
    for i in range(len(c) - 1, d - 1, -1):
        top = c[i]
        if top:
            for j in range(d):
                c[i - d + j] -= top * omega[j]
    return c[:d]


def _mul(a: tuple[int, ...], b: tuple[int, ...], omega: tuple[int, ...], m: int,
         add: int = 0) -> tuple[int, ...]:
    """a * b + add in (Z/m)[t]/(omega), for coefficient tuples of length
    deg omega, with one reduction mod m per coefficient of the result."""
    raw = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                raw[i + j] += x * y
    raw[0] += add
    return tuple(c % m for c in _reduce(raw, omega))


@dataclass(frozen=True)
class PadicElement:
    ring: UnramifiedRing
    coeffs: tuple[int, ...]

    def __add__(self, other):
        other = self._coerce(other)
        m = self.ring.modulus
        return PadicElement(
            self.ring, tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        other = self._coerce(other)
        ring = self.ring
        return PadicElement(ring, _mul(self.coeffs, other.coeffs, ring.omega, ring.modulus))

    def _coerce(self, other):
        if not isinstance(other, PadicElement):
            raise TypeError(f"a PadicElement does not combine with {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise PadicError("elements from different rings")
        return other

    def __pow__(self, e: int) -> "PadicElement":
        """self^e for e >= 0 (gf.power)."""
        if e < 0:
            raise ValueError("negative exponent")
        return gf.power(self, e, PadicElement.__mul__) if e else self.ring.from_int(1)

    def residue(self) -> tuple[int, ...]:
        return tuple(c % self.ring.p for c in self.coeffs)


def valuation(x: PadicElement) -> int:
    """Largest m <= k with x == 0 mod p^m, for x in a ring of precision k;
    the return value k means ">= k" (lattice.p_valuation values integers)."""
    p, k = x.ring.p, x.ring.k
    vals = [lattice.p_valuation(c, p) for c in x.coeffs if c]
    return min(min(vals), k) if vals else k


# ------------------------------------------------------------------ roots

def build_unramified(p: int, f_p: int, k: int, seed: int = 0) -> UnramifiedRing:
    """Ring of degree f_p and precision k, defining polynomial by seeded search.

    The search tests each candidate for irreducibility, so the ring is
    built without testing omega a second time.
    """
    if not _is_prime(p):
        raise PadicError(f"{p} is not a prime")
    return UnramifiedRing(p, k, gf.find_irreducible(p, f_p, seed=seed))


@dataclass(frozen=True)
class ApproxRoots:
    ring: UnramifiedRing
    roots: tuple[PadicElement, ...]
    poly: tuple[int, ...]
    # The Newton state the lift that made these roots records, None for
    # roots made any other way: y_i = f'(alpha_i)^-1 mod p^k as flat values
    # (see _newton), and (tau, omega'(tau)^-1) mod p^k for the root tau of
    # omega that gives Frobenius (None at f_p = 1; see increase_precision).
    inverses: tuple | None = field(default=None, compare=False, repr=False)
    tau: tuple | None = field(default=None, compare=False, repr=False)
    # The Frobenius permutation of the roots (frobenius_perm), computed in
    # a context's first lift and recorded by every lift after it.
    frobenius: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.ring.k


# The residue field GF(p^f_p) = F_p[t]/(omega) runs on the flat kernel at
# modulus p: an element is a coefficient tuple of length deg omega with
# entries in [0, p), and a polynomial over the field is a list of elements,
# constant term first, with no zero leading coefficient.

# A random shift splits a split squarefree polynomial of degree >= 2 with
# probability about 1/2; equal-degree splitting gives up after this many
# failed trials on one factor.
SPLIT_TRIALS = 200

# Field elements per root up to which residue_roots searches the residue
# field exhaustively, where that is faster than factoring f over F_p and
# completing each factor's root by its Frobenius orbit.  Timed (2-core
# x86_64, Python 3.11.7, mean of 8 seeds, best of 5) on f of degree n
# with F_p-factors of degrees dividing f_p: n = 2, 4, 8 over F_11 ...
# F_257, and f_p = 2, 3, 4 with n up to 8 over GF(9) ... GF(625).  The
# split was the faster one from about 13-25 elements per root at f_p = 1
# and 10-30 at f_p > 1; summed over those inputs, 8 to 16 elements per
# root cost the same and 32 (the earlier value) cost 15 % more.
EXHAUSTIVE_PER_ROOT = 16


def _inverse(a: tuple[int, ...], omega: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a^-1 in the residue field (gf.gf_inverse), padded to length deg omega."""
    y = gf.gf_inverse(a, omega, p)
    return y + (0,) * (len(omega) - 1 - len(y))


def _trim(f: list) -> list:
    while f and not any(f[-1]):
        f.pop()
    return f


def _divmod_monic(f: list, g: list, omega, p) -> tuple[list, list]:
    """Quotient and remainder of f by a monic g.  f's coefficients may be
    raw (unreduced, up to 2 deg omega - 1 entries, as _mulmod sums them);
    each is reduced by omega and mod p once, when it leads or in the
    remainder.  Zero entries are skipped, so a g with coefficients in F_p
    costs scalar products."""
    r = [list(c) + [0] * (2 * len(omega) - 3 - len(c)) for c in f]
    low = [[(t, y) for t, y in enumerate(c) if y] for c in g[:-1]]  # g's nonzero entries
    d = len(low)
    q = [None] * max(len(r) - d, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = tuple(x % p for x in _reduce(r[i + d], omega))
        c = [(s, x) for s, x in enumerate(c) if x]
        for acc, gj in zip(itertools.islice(r, i, None), low):
            for t, y in gj:
                for s, x in c:
                    acc[s + t] -= x * y
    return _trim(q), _trim([tuple(x % p for x in _reduce(c, omega)) for c in r[:d]])


def _mulmod(a: list, b: list, g: list, omega, p) -> list:
    """a * b mod a monic g, with the raw products summed per coefficient
    and reduced once (_divmod_monic)."""
    raw = [[0] * (2 * len(omega) - 3) for _ in range(len(a) + len(b) - 1)]
    b = [[(t, y) for t, y in enumerate(c) if y] for c in b]
    for i, x in enumerate(a):
        x = [(s, u) for s, u in enumerate(x) if u]
        for acc, y in zip(itertools.islice(raw, i, None), b):
            for t, v in y:
                for s, u in x:
                    acc[s + t] += u * v
    return _divmod_monic(raw, g, omega, p)[1]


def _powmod(a: list, e: int, g: list, omega, p) -> list:
    """a^e mod a monic g, for e >= 1 (gf.power)."""
    return gf.power(_divmod_monic(a, g, omega, p)[1], e,
                    lambda x, y: _mulmod(x, y, g, omega, p))


def _monic_gcd(a: list, b: list, omega, p) -> list:
    """Monic gcd of a monic a and any b."""
    while b:
        inv = _inverse(b[-1], omega, p)
        a, b = [_mul(c, inv, omega, p) for c in b], a
        b = _divmod_monic(b, a, omega, p)[1]
    return a


def _frobenius(a: tuple[int, ...], omega, p) -> tuple[int, ...]:
    """a^p in the residue field (gf.power)."""
    return gf.power(a, p, lambda x, y: _mul(x, y, omega, p))


def _one_root(u: list, omega, p, rng: random.Random) -> tuple[int, ...]:
    """One root of a monic u over the residue field that splits there into
    distinct linear factors, by equal-degree splitting that follows only
    the smaller factor, with at most SPLIT_TRIALS random shifts per step."""
    d = len(omega) - 1
    while len(u) > 2:
        if p == 2:  # the exhaustive search covers every field of size <= 4096
            raise ValueError("equal-degree splitting needs an odd characteristic")
        for _ in range(SPLIT_TRIALS):
            x_plus_shift = [tuple(rng.randrange(p) for _ in range(d)), (1,) + (0,) * (d - 1)]
            h = _powmod(x_plus_shift, (p**d - 1) // 2, u, omega, p) or [(0,) * d]
            h[0] = ((h[0][0] - 1) % p,) + h[0][1:]  # h - 1
            g = _monic_gcd(u, _trim(h), omega, p)
            if 0 < len(g) - 1 < len(u) - 1:
                u = min(g, _divmod_monic(u, g, omega, p)[0], key=len)
                break
        else:
            raise ValueError(f"no split of a degree-{len(u) - 1} factor in "
                             f"{SPLIT_TRIALS} random trials")
    return tuple(-c % p for c in u[0])


def residue_roots(f: Sequence[int], p: int, omega: tuple[int, ...],
                  seed: int = 0) -> list[tuple[int, ...]]:
    """All roots, as coefficient tuples, of a squarefree monic integral f
    that splits over the residue field F_p[t]/(omega).

    A field of q elements is searched exhaustively (_horner) when
    q <= EXHAUSTIVE_PER_ROOT deg f, where that is the faster search, and
    in characteristic 2 up to 4096 elements, where splitting cannot run.
    Otherwise f is factored over F_p (gf.distinct_degree_groups, then
    gf.equal_degree_factors, seeded, Las Vegas); f splits into distinct
    linear factors iff it is squarefree mod p and each factor degree e
    divides deg omega.  Each factor of degree e gives one root (_one_root)
    and the e - 1 others as its Frobenius images, and its orbit must close
    after exactly e steps.  Raises ValueError when f does not split.
    """
    n = len(f) - 1
    if n <= 0:
        return []
    d = len(omega) - 1
    if p**d <= EXHAUSTIVE_PER_ROOT * n or (p == 2 and p**d <= 4096):
        roots = [a for a in itertools.product(range(p), repeat=d)
                 if not any(_horner(f, a, omega, p))]
    else:
        groups = gf.distinct_degree_groups(gf.gf_normalize(f, p), p)
        if groups is None or any(d % e for e, _ in groups):
            raise ValueError("polynomial does not split over this field")
        rng, zeros, roots = random.Random((seed, p, d).__hash__()), (0,) * (d - 1), []
        for e, group in groups:
            for u in gf.equal_degree_factors(group, e, p, rng, SPLIT_TRIALS):
                orbit = [_one_root([(c,) + zeros for c in u], omega, p, rng)]
                for _ in range(e):
                    orbit.append(_frobenius(orbit[-1], omega, p))
                if orbit.pop() != orbit[0] or len(set(orbit)) != e:
                    raise ValueError(f"a Frobenius orbit of roots does not close after {e} steps")
                roots += orbit
    if len(roots) != n:
        raise ValueError("polynomial does not split over this field")
    return roots


def lift_roots(f: Sequence[int], ring: UnramifiedRing, seed: int = 0) -> ApproxRoots:
    """All roots of f in the ring, Hensel-lifted to precision k.

    Roots are found in the residue field as coefficient tuples (see
    residue_roots), and labeled once, sorted by those tuples; lifting
    preserves that labeling.
    """
    f = tuple(int(c) for c in f)
    if f[-1] != 1:
        raise PadicError("polynomial must be monic")
    base = ring.at_precision(1)
    try:
        residues = residue_roots(f, ring.p, ring.omega, seed=seed)
    except ValueError:
        # f has n distinct residue roots only if it is squarefree mod p, so
        # admissibility is tested on failure alone: root_context has
        # already tested it for every ring it lifts in.
        if not is_admissible(f, ring.p):
            raise PadicError(f"polynomial is not squarefree mod {ring.p}") from None
        raise
    start = ApproxRoots(base, tuple(PadicElement(base, r) for r in sorted(residues)), f)
    return increase_precision(start, ring.k)


def increase_precision(roots: ApproxRoots, k_new: int, inverses=None) -> ApproxRoots:
    """Same roots (same labeling) at a higher precision, by Newton steps
    that double the precision (_newton) on one root per Frobenius orbit.

    Frobenius sigma(sum a_i t^i) = sum a_i tau^i, where tau is the root of
    omega with tau = t^p mod p, takes each root alpha_i of f to
    alpha_sigma(i) (frobenius_perm) and f'(alpha_i)^-1 to
    f'(alpha_sigma(i))^-1.  So Newton runs, with f'(alpha)^-1 lifted along,
    on the first root of each orbit of the permutation and on tau (the
    same steps on omega), and the orbit's other roots and inverses are
    images under sigma.  The permutation is the one the roots record, or
    else frobenius_perm of their residues: a context computes it once, in
    its first lift.  At f_p = 1 every orbit has one root and no tau is
    formed.

    inverses resumes a lift: the y_i = f'(alpha_i)^-1 mod p^k of the roots
    at their precision k, as the lift that made them recorded them in its
    `inverses`; tau resumes from the roots' recorded `tau`.  A RootContext
    passes those of its top lift, so nothing is inverted after its first
    lift.  Without them the lift restarts from the residues, inverting
    f'(alpha) once per orbit and omega'(tau) once in the residue field
    (gf.gf_inverse): a simple root has exactly one lift, so the result is
    the same.  Every result is checked to be a root of f mod p^k_new with
    its label's residue (a PadicError otherwise) and records its Newton
    state.
    """
    old = roots.ring
    if k_new < old.k:
        raise PadicError("cannot decrease precision")
    f, omega, p, flat = roots.poly, old.omega, old.p, old.degree == 1
    fprime = tuple(i * f[i] for i in range(1, len(f)))
    sigma = roots.frobenius or frobenius_perm(roots)
    orbits, seen = [], set()  # [i, sigma(i), sigma^2(i), ...], from the lowest label
    for i in range(len(sigma)):
        if i not in seen:
            orbits.append([i])
            while sigma[orbits[-1][-1]] not in orbits[-1]:
                orbits[-1].append(sigma[orbits[-1][-1]])
            seen.update(orbits[-1])
    firsts = [roots.roots[orbit[0]].coeffs for orbit in orbits]
    if inverses is None:
        prec, tau = 1, None
        starts = [_start(f, fprime, tuple(c % p for c in a), omega, p) for a in firsts]
    else:
        prec, tau = old.k, roots.tau
        starts = [(a[0] if flat else a, inverses[o[0]]) for a, o in zip(firsts, orbits)]
    ring = old.at_precision(k_new)
    m = ring.modulus
    if not flat:
        domega = tuple(i * omega[i] for i in range(1, len(omega)))
        tau_prec = prec
        if tau is None:
            t_p = _frobenius((0, 1) + (0,) * (old.degree - 2), omega, p)
            tau_prec, tau = 1, _start(omega, domega, t_p, omega, p)
        tau = _newton(omega, domega, *tau, _moduli(tau_prec, k_new, p), omega)
        powers = [(1,) + (0,) * (old.degree - 1)]  # tau^i, i < f_p: sigma's matrix
        for _ in range(old.degree - 1):
            powers.append(_mul(powers[-1], tau[0], omega, m))
        rows = list(zip(*powers))
    moduli = _moduli(prec, k_new, p)
    lifted, lifted_inverses = [None] * len(sigma), [None] * len(sigma)
    zero = 0 if flat else (0,) * old.degree
    for orbit, (a, y) in zip(orbits, starts):
        a, y = _newton(f, fprime, a, y, moduli, omega)
        for j, i in enumerate(orbit):
            # Newton keeps the residue of the orbit's first root; the image
            # under sigma of the previous root (and inverse) must have the
            # residue of its label
            if j:
                a, y = (tuple(sum(map(operator.mul, c, r)) % m for r in rows) for c in (a, y))
            if _horner(f, a, omega, m) != zero \
                    or j and tuple(c % p for c in a) != roots.roots[i].residue():
                raise PadicError(f"lifted value is not a root of f mod {p}^{k_new} "
                                 f"with its label's residue")
            lifted[i], lifted_inverses[i] = PadicElement(ring, (a,) if flat else a), y
    return ApproxRoots(ring, tuple(lifted), f, tuple(lifted_inverses), tau, sigma)


def _moduli(prec: int, k: int, p: int) -> list[int]:
    """The moduli p^j of the Newton steps from precision prec to k, each
    doubling the precision."""
    moduli = []
    while prec < k:
        prec = min(2 * prec, k)
        moduli.append(p**prec)
    return moduli


def _start(f, fprime, a: tuple[int, ...], omega, p):
    """A root a of f mod p and f'(a)^-1, inverted in the residue field
    (gf.gf_inverse), as flat values (see _newton)."""
    y = _inverse(_horner(fprime, a, omega, p), omega, p)
    return (a[0], y[0]) if len(omega) == 2 else (a, y)


# The Newton kernel runs on flat values: an element of (Z/m)[t]/(omega) is
# an int in [0, m) when deg omega = 1, and otherwise its coefficient tuple.
# Each product is reduced by omega and then once mod m (_mul).

def _horner(f: tuple[int, ...], a, omega: tuple[int, ...], m: int):
    """f(a) mod m for an integral f (constant term first), a flat value a."""
    if isinstance(a, int):
        acc = f[-1] % m
        for c in reversed(f[:-1]):
            acc = (acc * a + c) % m
        return acc
    acc = (f[-1] % m,) + (0,) * (len(a) - 1)
    for c in reversed(f[:-1]):
        acc = _mul(acc, a, omega, m, c)
    return acc


def _newton(f, fprime, alpha, y, moduli, omega):
    """alpha and y = f'(alpha)^-1 after one Newton step per modulus m.

    Each step takes alpha, a root of f mod p^j, and y, its inverse
    derivative mod p^j, to a root and its inverse derivative mod m, for
    m dividing p^(2j): alpha - f(alpha) y, then y (2 - f'(alpha) y).
    """
    if isinstance(alpha, int):
        for m in moduli:
            alpha = (alpha - _horner(f, alpha, omega, m) * y) % m
            y = y * (2 - _horner(fprime, alpha, omega, m) * y) % m
        return alpha, y
    for m in moduli:
        step = _mul(_horner(f, alpha, omega, m), y, omega, m)
        alpha = tuple((a - b) % m for a, b in zip(alpha, step))
        u = _mul(_horner(fprime, alpha, omega, m), y, omega, m)
        y = _mul(y, (2 - u[0],) + tuple(-c for c in u[1:]), omega, m)
    return alpha, y


def eval_target(g, roots: ApproxRoots) -> PadicElement:
    """Evaluate an integer-coefficient sparse polynomial at the roots.

    g must expose .terms as an iterable of (coefficient, exponent-vector).
    """
    ring = roots.ring
    acc = ring.zero()
    n = len(roots.roots)
    for coeff, exps in g.terms:
        if len(exps) != n:
            raise PadicError("exponent vector length does not match root count")
        term = ring.from_int(coeff)
        for alpha, e in zip(roots.roots, exps):
            if e:
                term = term * alpha ** e
        acc = acc + term
    return acc


def frobenius_perm(roots: ApproxRoots) -> tuple[int, ...]:
    """Permutation sigma (0-indexed images) with alpha_i^p = alpha_{sigma(i)} mod p.

    increase_precision computes it in a context's first lift, and
    RootContext.frobenius reads it from there."""
    residues = [r.residue() for r in roots.roots]
    index = {res: i for i, res in enumerate(residues)}
    if len(index) != len(residues):
        raise PadicError("roots are not distinct mod p")
    omega, p = roots.ring.omega, roots.ring.p
    # a^p = a for a in F_p: at f_p = 1 no power is taken
    images = tuple(index.get(_frobenius(r, omega, p) if len(omega) > 2 else r) for r in residues)
    if None in images:
        raise PadicError("Frobenius image does not match any root (corrupted roots)")
    return images


# ------------------------------------------------------------ root context

class RootContext:
    """The roots of one squarefree f at one prime p, shared by every query.

    Made only by root_context().  It holds the PrimeSelection, the ring
    (omega found and tested irreducible once; other precisions reuse it),
    the highest-precision lift made so far with its Newton state (the
    inverses y_i = f'(alpha_i)^-1 and tau, lifted with omega'(tau)^-1, that
    the lift records), and the Frobenius permutation of the roots.
    roots(k) reduces the top lift mod p^k when k is at or below its
    precision, and otherwise resumes its Newton steps with
    increase_precision, inverting nothing again.
    """

    def __init__(self, f: tuple[int, ...], p: int, seed: int):
        self.f = f
        self.p = p
        self.seed = seed
        self._selection: PrimeSelection | None = None
        self._top: ApproxRoots | None = None

    @property
    def selection(self) -> PrimeSelection:
        if self._selection is None:
            self._selection = _selection_at(self.f, self.p)
        return self._selection

    @property
    def f_p(self) -> int:
        return self.selection.f_p

    def roots(self, k: int) -> ApproxRoots:
        """The labeled roots at precision k."""
        top = self._top
        if top is None:
            ring = build_unramified(self.p, self.f_p, k, seed=self.seed)
            top = self._top = lift_roots(self.f, ring, seed=self.seed)
        elif k > top.k:
            top = self._top = increase_precision(top, k, top.inverses)
        if k == top.k:
            return top
        ring = top.ring.at_precision(k)
        m = ring.modulus
        return ApproxRoots(
            ring, tuple(PadicElement(ring, tuple(c % m for c in r.coeffs)) for r in top.roots),
            self.f)

    @property
    def frobenius(self) -> tuple[int, ...]:
        """The Frobenius permutation of the labeled roots (frobenius_perm),
        computed once, in the context's first lift."""
        return (self._top or self.roots(1)).frobenius


def root_context(
    f: Sequence[int], prime: int | None = None, prefer: str = "min", seed: int = 0
) -> RootContext:
    """The shared RootContext of f at `prime`, or at the prime that
    select_prime(f, prefer=prefer) picks when `prime` is None.

    f must be monic and squarefree over Q (NotSquarefree otherwise); a
    fixed prime must be a prime and admissible.  An unknown `prefer` is a
    ValueError on both paths, before any work.  There is one context per
    (f, p, seed), so an automatic and a fixed choice of the same prime
    reach the same object; the automatic choice itself is made once per
    (f, prefer) and shared by every seed.  The automatic path leaves its
    choice as the context's selection, so ctx.selection.f_p_lcm covers the
    scan behind this call; a selection made at a fixed prime has
    f_p_lcm = f_p.

    An admissible prime proves f squarefree over Q: f is monic, so a
    square factor over Q is a monic integral square factor, and it stays
    one mod p.  The gcd over Q therefore runs only when no admissible
    prime was found or a fixed prime is rejected; it decides which error
    is raised.
    """
    _check_prefer(prefer)
    f = tuple(int(c) for c in f)
    if not f or f[-1] != 1:
        raise PadicError("polynomial must be monic")
    if prime is not None:
        return _root_context(f, int(prime), int(seed))
    sel = _automatic_selection(f, prefer)
    ctx = _root_context(f, sel.p, int(seed))
    ctx._selection = sel
    return ctx


def _require_squarefree(f: tuple[int, ...]) -> None:
    if pol.degree(pol.gcd(f, pol.derivative(f))) > 0:
        raise NotSquarefree("polynomial is not squarefree over Q (gcd(f, f') is not constant)")


@lru_cache(maxsize=128)
def _automatic_selection(f: tuple[int, ...], prefer: str) -> PrimeSelection:
    """select_prime(f, prefer) for a monic f, or NotSquarefree when f has
    a repeated root (then no prime is admissible)."""
    try:
        return select_prime(f, prefer=prefer)
    except NoAdmissiblePrime:
        _require_squarefree(f)
        raise


@lru_cache(maxsize=128)
def _root_context(f: tuple[int, ...], p: int, seed: int) -> RootContext:
    """The context of a monic f at a fixed prime p: NotSquarefree before
    any error about p when f has a repeated root over Q."""
    if not _is_prime(p):
        _require_squarefree(f)
        raise PadicError(f"{p} is not a prime")
    if not is_admissible(f, p):
        _require_squarefree(f)
        raise PadicError(f"prime {p} is not admissible (f not squarefree mod {p})")
    return RootContext(f, p, seed)


@lru_cache(maxsize=256)
def cached_roots(f: tuple[int, ...], p: int, f_p: int, k: int, seed: int) -> ApproxRoots:
    """Deterministic shared root lifts; labeling is consistent across k."""
    ctx = root_context(f, p, seed=seed)
    if ctx.f_p != f_p:
        raise PadicError(f"f splits in degree {ctx.f_p} at p={p}, not {f_p}")
    return ctx.roots(k)
