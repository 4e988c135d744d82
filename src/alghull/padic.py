"""Finite-precision arithmetic in the unramified extension of Q_p where a
squarefree integral polynomial splits, plus root lifting.

The ring is (Z/p^k)[t]/(omega) with omega monic of degree f_p, irreducible
mod p.  Elements are coefficient tuples of length f_p with entries in
[0, p^k).  The same integer lift of omega (entries in [0, p)) is reused at
every precision, so roots lifted at different precisions stay compatible.

The residue field GF(p^f_p) is the ring at precision 1: residue_roots
finds the roots of f there, and lift_roots Hensel-lifts them.

Callers reach roots through a RootContext (see root_context): one per
polynomial, prime and seed, holding the prime selection, omega, the
highest-precision lift made so far with its Newton state, and the
Frobenius permutation of the roots.
"""

from __future__ import annotations

import copy
import itertools
import math
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
    n = max(start, 2)
    while True:
        if _is_prime(n):
            yield n
        n += 1


def is_admissible(f: Sequence[int], p: int) -> bool:
    """p is admissible for monic integral f when f stays squarefree mod p."""
    fp = gf.gf_normalize(f, p)
    if len(fp) != len(f):  # leading coefficient vanished (non-monic reduction)
        return False
    return gf.gf_is_squarefree(fp, p)


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
    unknown preference is a ValueError before any work.
    """
    _check_prefer(prefer)
    found: list[PrimeSelection] = []
    f_p_lcm = 1
    candidates = _primes_from(len(f))
    for _ in range(10 * SEARCH_LIMIT):
        if len(found) >= SEARCH_LIMIT:
            break
        p = next(candidates)
        if is_admissible(f, p):
            sel = _selection_at(f, p)
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
    """(Z/p^k)[t]/(omega): precision-k model of the unramified extension."""

    def __init__(self, p: int, k: int, omega: Sequence[int]):
        if not _is_prime(p):
            raise PadicError(f"{p} is not a prime")
        self._setup(p, k, omega)
        if not gf.gf_is_irreducible(self.omega, p):
            raise PadicError("defining polynomial is reducible mod p")

    @classmethod
    def _over_irreducible(cls, p: int, k: int, omega: Sequence[int]) -> "UnramifiedRing":
        """The ring over an omega that gf.find_irreducible found (and so
        tested) at a prime p; it is not tested again."""
        ring = cls.__new__(cls)
        ring._setup(p, k, omega)
        return ring

    def _setup(self, p: int, k: int, omega: Sequence[int]) -> None:
        if k < 1:
            raise PadicError("precision exponent must be >= 1")
        self.p = p
        self.k = k
        self.modulus = p**k
        self.omega = tuple(int(c) % p for c in omega)
        if self.omega[-1] != 1:
            raise PadicError("defining polynomial must be monic")
        self.degree = len(self.omega) - 1

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

    def one(self) -> "PadicElement":
        return self.element((1,))

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

    def __sub__(self, other):
        other = self._coerce(other)
        m = self.ring.modulus
        return PadicElement(
            self.ring, tuple((a - b) % m for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        m = self.ring.modulus
        return PadicElement(self.ring, tuple((-a) % m for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        ring = self.ring
        return PadicElement(ring, _mul(self.coeffs, other.coeffs, ring.omega, ring.modulus))

    def _coerce(self, other):
        if isinstance(other, PadicElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise PadicError("elements from different rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int) -> "PadicElement":
        """self^e for e >= 0 (gf.power)."""
        if e < 0:
            raise ValueError("negative exponent")
        return gf.power(self, e, PadicElement.__mul__) if e else self.ring.one()

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def residue(self) -> tuple[int, ...]:
        return tuple(c % self.ring.p for c in self.coeffs)


def valuation(x, p: int | None = None, k: int | None = None) -> int:
    """Largest m <= k with x == 0 mod p^m; the return value k means ">= k".

    Accepts a PadicElement (p, k taken from its ring) or a plain integer
    with explicit p (and optionally a cap k).
    """
    if isinstance(x, PadicElement):
        p, k = x.ring.p, x.ring.k
        coeffs = x.coeffs
    else:
        if p is None:
            raise ValueError("valuation of an integer needs the prime p")
        coeffs = (int(x) % (p**k) if k is not None else int(x),)
    vals = [lattice.p_valuation(c, p) for c in coeffs if c]
    if not vals:
        # identically zero at the stored precision
        if k is None:
            raise ValueError("valuation of exact zero is unbounded; supply a cap k")
        return k
    return min(min(vals), k) if k is not None else min(vals)


# ------------------------------------------------------------------ roots

def build_unramified(p: int, f_p: int, k: int, seed: int = 0) -> UnramifiedRing:
    """Ring of degree f_p and precision k, defining polynomial by seeded search.

    The search tests each candidate for irreducibility, so the ring is
    built without testing omega a second time.
    """
    if not _is_prime(p):
        raise PadicError(f"{p} is not a prime")
    return UnramifiedRing._over_irreducible(p, k, gf.find_irreducible(p, f_p, seed=seed))


@dataclass(frozen=True)
class ApproxRoots:
    ring: UnramifiedRing
    roots: tuple[PadicElement, ...]
    poly: tuple[int, ...]
    # y_i = f'(alpha_i)^-1 mod p^k as flat values (see _newton), recorded by
    # the lift that made these roots; None for roots made any other way.
    inverses: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.ring.k


# Polynomials over the residue field are lists of elements of one ring at
# precision 1, constant term first, with no zero leading coefficient.

# A random shift splits a split squarefree polynomial of degree >= 2 with
# probability about 1/2; equal-degree splitting gives up after this many
# failed trials on one factor.
SPLIT_TRIALS = 200

# Field elements per root up to which residue_roots searches the residue
# field exhaustively: timed on products of 2, 4 and 8 distinct linear
# factors over fields of 3 to 2401 elements (2-core x86_64, Python
# 3.11.7, the x^q = x check included in splitting), the exhaustive search
# was the faster one up to about 32 elements per root, splitting above.
EXHAUSTIVE_PER_ROOT = 32


def _trim(f: list) -> list:
    while f and f[-1].is_zero():
        f.pop()
    return f


def _divmod_monic(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by a monic g."""
    r = list(f)
    d = len(g) - 1
    q = [None] * max(len(r) - d, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + d]
        if not c.is_zero():
            for j in range(d):
                r[i + j] = r[i + j] - c * g[j]
    return _trim(q), _trim(r[:d])


def _mulmod(a: list, b: list, g: list) -> list:
    """a * b mod a monic g."""
    if not a or not b:
        return []
    out = [a[0].ring.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return _divmod_monic(out, g)[1]


def _powmod(a: list, e: int, g: list) -> list:
    """a^e mod a monic g, for e >= 1 (gf.power)."""
    return gf.power(_divmod_monic(a, g)[1], e, lambda x, y: _mulmod(x, y, g))


def _monic_gcd(a: list, b: list) -> list:
    """Monic gcd of a monic a and any b, over the residue field."""
    ring = a[0].ring
    while b:
        inv = ring.element(gf.gf_inverse(b[-1].coeffs, ring.omega, ring.p))
        a, b = [c * inv for c in b], a
        b = _divmod_monic(b, a)[1]
    return a


def residue_roots(f: list, seed: int = 0) -> list:
    """All roots of a squarefree monic f that splits over the residue field.

    f is a polynomial over one ring at precision 1.  A field of q elements
    is searched exhaustively when q <= EXHAUSTIVE_PER_ROOT deg f, where
    that is the faster search, and in characteristic 2 up to 4096
    elements, where splitting cannot run; otherwise f is split by
    equal-degree splitting (seeded, Las Vegas) once it is known to divide
    x^q - x.  Raises ValueError when f does not split into distinct
    linear factors.
    """
    n = len(f) - 1
    if n <= 0:
        return []
    ring = f[0].ring
    q = ring.p**ring.degree
    if q <= EXHAUSTIVE_PER_ROOT * n or (ring.p == 2 and q <= 4096):
        roots = []
        for coords in itertools.product(range(ring.p), repeat=ring.degree):
            a = PadicElement(ring, coords)
            if pol.evaluate(f, a).is_zero():
                roots.append(a)
    else:
        # f splits into distinct linear factors iff it divides x^q - x
        x = [ring.zero(), ring.one()]
        if _powmod(x, q, f) != _divmod_monic(x, f)[1]:
            raise ValueError("polynomial does not split over this field")
        roots = []
        _split_collect(f, random.Random((seed, ring.p, ring.degree).__hash__()), roots)
    if len(roots) != n:
        raise ValueError("polynomial does not split over this field")
    return roots


def _split_collect(f: list, rng: random.Random, out: list) -> None:
    """Append the roots of a monic f that splits into distinct linear
    factors, by equal-degree splitting with at most SPLIT_TRIALS random
    shifts per factor."""
    n = len(f) - 1
    if n == 0:
        return
    if n == 1:
        out.append(-f[0])
        return
    ring = f[0].ring
    if ring.p == 2:  # the exhaustive search covers every field of size <= 4096
        raise ValueError("equal-degree splitting needs an odd characteristic")
    one, half = ring.one(), (ring.p**ring.degree - 1) // 2
    for _ in range(SPLIT_TRIALS):
        shift = PadicElement(ring, tuple(rng.randrange(ring.p) for _ in range(ring.degree)))
        h = _powmod([shift, one], half, f)
        h = _trim([h[0] - one] + h[1:]) if h else [-one]
        g = _monic_gcd(f, h)
        if 0 < len(g) - 1 < n:
            _split_collect(g, rng, out)
            _split_collect(_divmod_monic(f, g)[0], rng, out)
            return
    raise ValueError(f"no split of a degree-{n} factor in {SPLIT_TRIALS} random trials")


def lift_roots(f: Sequence[int], ring: UnramifiedRing, seed: int = 0) -> ApproxRoots:
    """All roots of f in the ring, Hensel-lifted to precision k.

    Roots are found in the residue field, the ring at precision 1 (see
    residue_roots), and labeled once, sorted by their residue coordinate
    vectors; lifting preserves that labeling.
    """
    f = tuple(int(c) for c in f)
    if f[-1] != 1:
        raise PadicError("polynomial must be monic")
    base = ring.at_precision(1)
    try:
        residues = residue_roots([base.from_int(c) for c in f], seed=seed)
    except ValueError:
        # f has n distinct residue roots only if it is squarefree mod p, so
        # admissibility is tested on failure alone: root_context has
        # already tested it for every ring it lifts in.
        if not is_admissible(f, ring.p):
            raise PadicError(f"polynomial is not squarefree mod {ring.p}") from None
        raise
    start = ApproxRoots(base, tuple(sorted(residues, key=lambda r: r.coeffs)), f)
    return increase_precision(start, ring.k)


def increase_precision(roots: ApproxRoots, k_new: int, inverses=None) -> ApproxRoots:
    """Same roots (same labeling) at a higher precision, by Newton steps
    that double the precision (_newton), with f'(alpha)^-1 lifted along.

    inverses resumes a lift: the y_i = f'(alpha_i)^-1 mod p^k of the roots
    at their precision k, as the lift that made them recorded them in its
    `inverses`.  A RootContext passes those of its top lift, so f'(alpha)
    is inverted once per context.  Without them the lift restarts from the
    residues, inverting f'(alpha) once per root in the residue field
    (gf.gf_inverse): a simple root has exactly one lift, so the result is
    the same.  Every result is checked to be a root of f mod p^k_new (a
    PadicError otherwise) and records its inverses mod p^k_new.
    """
    old = roots.ring
    if k_new < old.k:
        raise PadicError("cannot decrease precision")
    f = roots.poly
    fprime = tuple(i * f[i] for i in range(1, len(f)))
    omega, flat, p = old.omega, old.degree == 1, old.p
    prec, points = old.k, [r.coeffs for r in roots.roots]
    if inverses is None:
        prec, points, field = 1, [r.residue() for r in roots.roots], old.at_precision(1)
        inverses = []
        for a in points:
            y = field.element(gf.gf_inverse(_horner(fprime, a, omega, p), omega, p)).coeffs
            inverses.append(y[0] if flat else y)
    alphas = [a[0] if flat else a for a in points]
    moduli = []
    while prec < k_new:
        prec = min(2 * prec, k_new)
        moduli.append(p**prec)
    ring = old.at_precision(k_new)
    zero = 0 if flat else (0,) * old.degree
    lifted, lifted_inverses = [], []
    for a, y in zip(alphas, inverses):
        a, y = _newton(f, fprime, a, y, moduli, omega)
        if _horner(f, a, omega, ring.modulus) != zero:
            raise PadicError(f"lifted value is not a root of f mod {old.p}^{k_new}")
        lifted.append(PadicElement(ring, (a,) if flat else a))
        lifted_inverses.append(y)
    return ApproxRoots(ring, tuple(lifted), f, tuple(lifted_inverses))


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

    RootContext.frobenius keeps it for the roots of a context."""
    residues = [r.residue() for r in roots.roots]
    index = {res: i for i, res in enumerate(residues)}
    if len(index) != len(residues):
        raise PadicError("roots are not distinct mod p")
    base = roots.ring.at_precision(1)
    images = []
    for res in residues:
        target = (base.element(res) ** base.p).coeffs
        if target not in index:
            raise PadicError("Frobenius image does not match any root (corrupted roots)")
        images.append(index[target])
    return tuple(images)


# ------------------------------------------------------------ root context

class RootContext:
    """The roots of one squarefree f at one prime p, shared by every query.

    Made only by root_context().  It holds the PrimeSelection, the ring
    (omega found and tested irreducible once; other precisions reuse it),
    the highest-precision lift made so far with its Newton state (the
    inverses y_i = f'(alpha_i)^-1 the lift records), and the Frobenius
    permutation of the roots.  roots(k) reduces the top lift mod p^k when
    k is at or below its precision, and otherwise resumes its Newton steps
    with increase_precision, inverting nothing again.
    """

    def __init__(self, f: tuple[int, ...], p: int, seed: int):
        self.f = f
        self.p = p
        self.seed = seed
        self._selection: PrimeSelection | None = None
        self._top: ApproxRoots | None = None
        self._frobenius: tuple[int, ...] | None = None

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
        computed once, from the residues."""
        if self._frobenius is None:
            self._frobenius = frobenius_perm(self.roots(1))
        return self._frobenius


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
