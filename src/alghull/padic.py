"""Finite-precision arithmetic in the unramified extension of Q_p where a
squarefree integral polynomial splits, plus root lifting.

The ring is (Z/p^k)[t]/(omega) with omega monic of degree f_p, irreducible
mod p.  Elements are coefficient tuples of length f_p with entries in
[0, p^k).  The same integer lift of omega (entries in [0, p)) is reused at
every precision, so roots lifted at different precisions stay compatible.

The residue field GF(p^f_p) is the ring at precision 1: residue_roots
finds the roots of f there, and lift_roots Hensel-lifts them.

Callers reach roots through a RootContext (see root_context): one per
polynomial, prime and seed, holding the prime selection, omega and the
highest-precision lift made so far.
"""

from __future__ import annotations

import copy
import itertools
import math
import random
from dataclasses import dataclass
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
    p: int
    f_p: int
    degrees: tuple[int, ...]


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
    the whole scan.  An unknown preference is a ValueError before any work.
    """
    _check_prefer(prefer)
    found: list[PrimeSelection] = []
    candidates = _primes_from(len(f))
    for _ in range(10 * SEARCH_LIMIT):
        if len(found) >= SEARCH_LIMIT:
            break
        p = next(candidates)
        if is_admissible(f, p):
            sel = _selection_at(f, p)
            if prefer == "min" and sel.f_p == 1:
                return sel
            found.append(sel)
    if not found:
        raise NoAdmissiblePrime(
            f"no admissible prime for the polynomial among the first "
            f"{10 * SEARCH_LIMIT} candidates"
        )
    if prefer == "min":
        return min(found, key=lambda s: (s.f_p, s.p))
    return min(found, key=lambda s: (-s.f_p, s.p))


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
        tested) at a prime p; Rabin's test is not run again."""
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
            c = self._reduce_by_omega(c)
        c = [x % self.modulus for x in c]
        c += [0] * (self.degree - len(c))
        return PadicElement(self, tuple(c))

    def _reduce_by_omega(self, c: list[int]) -> list[int]:
        """The remainder of c (a list, consumed) by omega, not yet reduced
        mod p^k."""
        d = self.degree
        for i in range(len(c) - 1, d - 1, -1):
            top = c[i]
            if top:
                for j in range(d):
                    c[i - d + j] -= top * self.omega[j]
        return c[:d]

    def zero(self) -> "PadicElement":
        return PadicElement(self, (0,) * self.degree)

    def one(self) -> "PadicElement":
        return self.element((1,))

    def from_int(self, a: int) -> "PadicElement":
        return self.element((a,))


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
        raw = [0] * (2 * ring.degree - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    raw[i + j] += a * b
        m = ring.modulus
        return PadicElement(ring, tuple(c % m for c in ring._reduce_by_omega(raw)))

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
        """self^e for e >= 0, by square-and-multiply with no product by 1
        and no squaring past the top bit of e."""
        if e < 0:
            raise ValueError("negative exponent")
        result, base = None, self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return self.ring.one() if result is None else result
            base = base * base

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def inverse(self) -> "PadicElement":
        """Inverse of a unit (valuation 0), by residue inverse + Newton
        steps that double the precision."""
        ring = self.ring
        red = gf.gf_normalize(self.coeffs, ring.p)
        if not red:
            raise ZeroDivisionError("element is not a unit")
        y = ring.at_precision(1).element(gf.gf_inverse(red, ring.omega, ring.p))
        prec = 1
        while prec < ring.k:
            prec = min(2 * prec, ring.k)
            step = ring.at_precision(prec)
            y = step.element(y.coeffs)
            y = y * (step.from_int(2) - step.element(self.coeffs) * y)
        if (self * y).coeffs != ring.one().coeffs:
            raise PadicError("Newton inversion did not converge to an inverse")
        return y

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

    The search tests each candidate with Rabin's test, so the ring is built
    without testing omega a second time.
    """
    if not _is_prime(p):
        raise PadicError(f"{p} is not a prime")
    return UnramifiedRing._over_irreducible(p, k, gf.find_irreducible(p, f_p, seed=seed))


@dataclass(frozen=True)
class ApproxRoots:
    ring: UnramifiedRing
    roots: tuple[PadicElement, ...]
    poly: tuple[int, ...]

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
    """a^e mod a monic g, for e >= 1."""
    result, base = None, _divmod_monic(a, g)[1]
    while True:
        if e & 1:
            result = base if result is None else _mulmod(result, base, g)
        e >>= 1
        if not e:
            return result
        base = _mulmod(base, base, g)


def _monic_gcd(a: list, b: list) -> list:
    """Monic gcd of a monic a and any b."""
    while b:
        inv = b[-1].inverse()
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


def increase_precision(roots: ApproxRoots, k_new: int) -> ApproxRoots:
    """Same roots (same labeling) at a higher precision, by Newton steps
    that double the precision; f'(alpha) is inverted once per root and its
    inverse lifted along.  Every result is checked to be a root."""
    old = roots.ring
    if k_new < old.k:
        raise PadicError("cannot decrease precision")
    steps = []
    prec = old.k
    while prec < k_new:
        prec = min(2 * prec, k_new)
        steps.append(old.at_precision(prec))
    f = roots.poly
    fprime = tuple(i * f[i] for i in range(1, len(f)))
    lifted = []
    for alpha in roots.roots:
        # y is f'(alpha)^-1 to the precision alpha had before the step,
        # which is all a doubling step needs; one Newton update per step
        # carries it along.
        y = pol.evaluate(fprime, alpha).inverse()
        for ring in steps:
            alpha, y = ring.element(alpha.coeffs), ring.element(y.coeffs)
            alpha = alpha - pol.evaluate(f, alpha) * y
            y = y * (ring.from_int(2) - pol.evaluate(fprime, alpha) * y)
        if not pol.evaluate(f, alpha).is_zero():
            raise PadicError(f"lifted value is not a root of f mod {old.p}^{k_new}")
        lifted.append(alpha)
    return ApproxRoots(old.at_precision(k_new), tuple(lifted), f)


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
    """Permutation sigma (0-indexed images) with alpha_i^p = alpha_{sigma(i)} mod p."""
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
    (omega found and tested irreducible once; other precisions reuse it)
    and the highest-precision lift made so far.  roots(k) reduces that lift
    mod p^k when k is at or below its precision, and otherwise lifts upward
    from it with increase_precision.
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
            top = self._top = increase_precision(top, k)
        if k == top.k:
            return top
        ring = top.ring.at_precision(k)
        return ApproxRoots(ring, tuple(ring.element(r.coeffs) for r in top.roots), self.f)


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
    (f, prefer) and shared by every seed.

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
    if ctx._selection is None:
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
