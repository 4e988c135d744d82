"""Unramified p-adic arithmetic and root lifting.

The key invariant: at working precision k every lifted root satisfies
f(root) = 0 mod p^k, and raising the precision refines the same labeled
roots (labels are assigned from sorted residues, so they are stable).
"""

import functools
import itertools
import os
import random
import subprocess
import sys
import warnings

import pytest
import sympy
from hypothesis import event, given, settings
from hypothesis import strategies as st

import alghull
from alghull import gf, padic
from alghull import polynomials as pol
from alghull.relations import ExponentPolynomial, proven_precision

import corpus

F_QUAD = (-2, 0, 1)  # x^2 - 2
F_GOLDEN = (-1, -1, 1)  # x^2 - x - 1
F_QUARTIC = (-2, 0, 0, 0, 1)  # x^4 - 2


def test_admissibility_and_prime_selection():
    # 2 divides the discriminant of x^2 - 2: not admissible
    assert not padic.is_admissible(F_QUAD, 2)
    assert padic.is_admissible(F_QUAD, 3)
    assert padic.factor_degrees(F_QUAD, 3) == (2,)  # 2 is not a square mod 3
    assert padic.factor_degrees(F_QUAD, 7) == (1, 1)  # 3^2 = 2 mod 7
    sel = padic.select_prime(F_QUAD)
    assert (sel.p, sel.f_p) == (7, 1)  # smallest residue degree wins
    sel = padic.select_prime(F_QUAD, prefer="max")
    assert (sel.p, sel.f_p) == (3, 2)  # largest residue degree wins


def test_select_prime_respects_floor():
    # candidate primes start strictly above deg f
    sel = padic.select_prime(F_QUARTIC)
    assert sel.p > 4
    assert padic.is_admissible(F_QUARTIC, sel.p)


def test_valuation_of_elements():
    ring = padic.build_unramified(3, 2, 7)
    assert padic.valuation(ring.element((18, 0))) == 2
    assert padic.valuation(ring.element((9, 6))) == 1
    assert padic.valuation(ring.element((9, 5))) == 0
    # zero reports the full precision ("at least k")
    assert padic.valuation(ring.zero()) == 7
    assert padic.valuation(ring.from_int(3**9)) == 7


def test_ring_arithmetic_and_inverse():
    ring = padic.build_unramified(3, 2, 6)
    a = ring.element((2, 1))
    b = ring.element((5, 7))
    assert a + b == b + a and a * b == b * a
    assert (a + b) * a == a * a + b * a
    with pytest.raises(TypeError):
        a + 1  # integers enter through ring.from_int
    # inverses come from the residue field, by extended Euclid
    field = ring.at_precision(1)
    inv = field.element(gf.gf_inverse(a.residue(), ring.omega, 3))
    assert field.element(a.coeffs) * inv == field.from_int(1)
    with pytest.raises(ZeroDivisionError):
        # valuation > 0 has no inverse
        gf.gf_inverse(ring.element((3, 0)).residue(), ring.omega, 3)


def test_inverse_at_every_precision():
    # the Newton steps double the precision and stop at k, whatever k is,
    # and the inverse derivatives they carry are exact mod p^k
    for f, p, f_p in [(F_QUAD, 3, 2), ((1, 1, 0, 1), 2, 3), (F_QUAD, 31, 1)]:
        fprime = pol.derivative(f)
        for k in range(1, 41):
            lifted = padic.lift_roots(f, padic.build_unramified(p, f_p, k))
            ring = lifted.ring
            assert len(lifted.roots) == len(lifted.inverses) == len(f) - 1
            for alpha, y in zip(lifted.roots, lifted.inverses):
                y = ring.element((y,) if f_p == 1 else y)
                assert corpus.horner(fprime, alpha) * y == ring.from_int(1), (p, k)


@pytest.mark.parametrize("k", [1, 5, 20])
def test_hensel_residuals_at_increasing_precision(k):
    for f, p, f_p in [(F_QUAD, 3, 2), (F_QUAD, 7, 1), (F_QUARTIC, 5, 4)]:
        ring = padic.build_unramified(p, f_p, k)
        roots = padic.lift_roots(f, ring)
        assert len(roots.roots) == len(f) - 1
        for r in roots.roots:
            assert padic.valuation(corpus.horner(f, r)) >= k


def test_hensel_residuals_at_proven_precision():
    k = proven_precision(3, 2, 3, 2)  # the zero-test precision shape
    ring = padic.build_unramified(3, 2, k)
    roots = padic.lift_roots(F_QUAD, ring)
    for r in roots.roots:
        assert padic.valuation(corpus.horner(F_QUAD, r)) >= k


def test_increase_precision_is_consistent():
    ring = padic.build_unramified(5, 4, 3)
    low = padic.lift_roots(F_QUARTIC, ring)
    high = padic.increase_precision(low, 24)
    fresh = padic.lift_roots(F_QUARTIC, padic.build_unramified(5, 4, 24))
    assert [r.residue() for r in high.roots] == [r.residue() for r in fresh.roots]
    for a, b in zip(high.roots, fresh.roots):
        assert a.coeffs == b.coeffs
    for r in high.roots:
        assert padic.valuation(corpus.horner(F_QUARTIC, r)) >= 24


def test_increase_precision_inverts_once_per_orbit(monkeypatch):
    calls = []
    inverse = gf.gf_inverse

    def counting(a, modulus, p):
        calls.append(p)
        return inverse(a, modulus, p)

    monkeypatch.setattr(gf, "gf_inverse", counting)
    low = padic.lift_roots(F_QUARTIC, padic.build_unramified(5, 4, 1))
    assert low.frobenius == (1, 3, 0, 2)  # x^4 - 2 is inert at 5: one orbit
    calls.clear()
    high = padic.increase_precision(low, 64)  # six doubling steps
    # in the residue field, f'(alpha) once for the orbit and omega'(tau) once
    assert calls == [5] * 2
    for r in high.roots:
        assert padic.valuation(corpus.horner(F_QUARTIC, r)) >= 64


def test_build_unramified_tests_omega_once(monkeypatch):
    tested = []
    rabin = gf.gf_is_irreducible

    def counting(f, p):
        tested.append(tuple(f))
        return rabin(f, p)

    monkeypatch.setattr(gf, "gf_is_irreducible", counting)
    omega = gf.find_irreducible(5, 4, seed=2)
    searched = list(tested)
    assert searched[-1] == omega
    tested.clear()
    assert padic.build_unramified(5, 4, 3, seed=2).omega == omega
    assert tested == searched  # the search's test only


def test_ring_construction_rejects_composite_p():
    for p in (9, 4, 1):
        with pytest.raises(padic.PadicError, match="not a prime"):
            padic.build_unramified(p, 3, 3)


def test_irreducible_search_is_bounded():
    # over Z/4 no candidate passes the irreducibility test; the search used
    # to loop forever
    code = (
        "from alghull import gf, padic\n"
        "for call in (lambda: gf.find_irreducible(4, 2, seed=3),\n"
        "             lambda: padic.build_unramified(4, 2, 3)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(alghull.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "no irreducible polynomial of degree 2 over F_4 among 400 candidates",
        "4 is not a prime",
    ]


def _has_monic_divisor(f, p):
    """Whether some monic polynomial of degree 1..deg f / 2 divides f mod p."""
    m = len(f) - 1
    return any(not gf.gf_mod(f, tuple(low) + (1,), p)
               for d in range(1, m // 2 + 1)
               for low in itertools.product(range(p), repeat=d))


def test_irreducibility_matches_brute_force():
    # every polynomial of degree <= 4 over F_p, p <= 7, with leading
    # coefficient 1 or -1: irreducible exactly when it has degree >= 1 and
    # no monic divisor of degree <= deg / 2
    for p in (2, 3, 5, 7):
        for m in range(5):
            for lead in {1, p - 1}:
                for low in itertools.product(range(p), repeat=m):
                    f = low + (lead,)
                    expected = m >= 1 and not _has_monic_divisor(f, p)
                    assert gf.gf_is_irreducible(f, p) == expected, (f, p)


def _sympy_factors(f, p):
    """The monic irreducible factors of a squarefree f mod p, by sympy's
    factor_list, as sorted F_p coefficient tuples."""
    x = sympy.symbols("x")
    with warnings.catch_warnings():  # sympy's own sort of modular integers
        warnings.simplefilter("ignore", sympy.utilities.exceptions.SymPyDeprecationWarning)
        _, factors = sympy.factor_list(sum(c * x**i for i, c in enumerate(f)), x, modulus=p)
    out = []
    for g, multiplicity in factors:
        assert multiplicity == 1
        c = [int(a) % p for a in reversed(sympy.Poly(g, x).all_coeffs())]
        out.append(gf.gf_normalize([a * pow(c[-1], -1, p) for a in c], p))
    return sorted(out)


@pytest.mark.parametrize("seed", range(4))
def test_fp_factorisation_matches_sympy(seed):
    # distinct-degree groups split by equal-degree splitting: their product
    # is f, each factor is irreducible, the degrees are those of
    # distinct_degree_degrees, and the factors are sympy's
    rng = random.Random(seed)
    checked = 0
    while checked < 30:
        p = rng.choice([3, 5, 7, 11, 13, 31, 101])
        f = tuple(rng.randrange(p) for _ in range(rng.randint(1, 10))) + (1,)
        if not gf.gf_is_squarefree(f, p):
            continue
        checked += 1
        factors = [u for d, g in gf.distinct_degree_factors(f, p)
                   for u in gf.equal_degree_factors(g, d, p, rng, padic.SPLIT_TRIALS)]
        assert functools.reduce(lambda a, b: gf.gf_mul(a, b, p), factors, (1,)) == f
        assert all(gf.gf_is_irreducible(u, p) for u in factors)
        assert tuple(sorted(len(u) - 1 for u in factors)) == gf.distinct_degree_degrees(f, p)
        assert sorted(factors) == _sympy_factors(f, p), (f, p)


def test_root_splitting_is_bounded():
    # F_4099 has more than 4096 elements, so roots are found by randomized
    # splitting, which used to loop forever on x^2 - 2 (2 is not a square
    # mod 4099).  The split check rejects it; when called directly on an
    # irreducible factor, the one-root splitting gives up after
    # SPLIT_TRIALS trials.
    code = (
        "import random\n"
        "from alghull import padic\n"
        "f = [(c % 4099,) for c in (-2, 0, 1)]\n"
        "for call in (lambda: padic.lift_roots((-2, 0, 1), padic.build_unramified(4099, 1, 2)),\n"
        "             lambda: padic._one_root(f, (0, 1), 4099, random.Random(0))):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(alghull.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "polynomial does not split over this field",
        "no split of a degree-2 factor in 200 random trials",
    ]


def test_labels_are_sorted_residues():
    ring = padic.build_unramified(7, 1, 8)
    roots = padic.lift_roots(F_QUAD, ring)
    residues = [r.residue() for r in roots.roots]
    assert residues == sorted(residues)


def test_frobenius_perm():
    # inert quadratic: Frobenius swaps the two roots
    ring = padic.build_unramified(3, 2, 10)
    roots = padic.lift_roots(F_QUAD, ring)
    assert padic.frobenius_perm(roots) == (1, 0)
    # fully split: Frobenius is the identity
    ring = padic.build_unramified(7, 1, 10)
    roots = padic.lift_roots(F_QUAD, ring)
    assert padic.frobenius_perm(roots) == (0, 1)


def test_eval_target():
    ring = padic.build_unramified(3, 2, 12)
    roots = padic.lift_roots(F_QUAD, ring)
    # x1 + x2 = 0 for x^2 - 2
    g = ExponentPolynomial.power_sum((1, 1), 1)
    assert padic.eval_target(g, roots) == roots.ring.zero()
    # x1 * x2 = -2
    g = ExponentPolynomial(((1, (1, 1)),))
    assert padic.eval_target(g, roots) == roots.ring.from_int(-2)
    # for the golden-ratio polynomial the root sum is 1, not 0
    roots = padic.lift_roots(F_GOLDEN, padic.build_unramified(3, 2, 12))
    g = ExponentPolynomial.power_sum((1, 1), 1)
    assert padic.eval_target(g, roots) == roots.ring.from_int(1)


def test_cached_roots_identity():
    a = padic.cached_roots(F_QUAD, 3, 2, 9, 0)
    b = padic.cached_roots(F_QUAD, 3, 2, 9, 0)
    assert a is b


def _brute_force_roots(f, omega, p):
    """Every element of F_p[t]/(omega) at which f vanishes, in F_p[t]
    arithmetic (f is a list of coordinate tuples, constant first)."""
    roots = []
    for a in itertools.product(range(p), repeat=len(omega) - 1):
        acc = ()
        for c in reversed(f):
            acc = gf.gf_mod(gf.gf_mul(acc, a, p), omega, p)
            acc = gf.gf_normalize([x + y for x, y in itertools.zip_longest(acc, c, fillvalue=0)], p)
        if not acc:
            roots.append(a)
    return roots


def _field_product(betas, omega, p):
    """prod (x - beta) over F_p[t]/(omega) in F_p[t] arithmetic, as a list
    of coordinate tuples of length deg omega, constant first."""
    f = [(1,)]
    for beta in betas:  # f *= x - beta
        f = [gf.gf_sub(low, gf.gf_mod(gf.gf_mul(beta, c, p), omega, p), p)
             for low, c in zip([()] + f, f + [()])]
    return [tuple(c) + (0,) * (len(omega) - 1 - len(c)) for c in f]


def _frobenius_orbit(beta, omega, p):
    """beta, beta^p, beta^(p^2), ... until the orbit closes (gf arithmetic)."""
    orbit = [beta]
    while True:
        image = gf.gf_powmod(orbit[-1], p, omega, p)
        image += (0,) * (len(beta) - len(image))
        if image == beta:
            return orbit
        orbit.append(image)


def _frobenius_shifted(a, omega, p):
    """A Frobenius that fails: the true a^p plus one, so no orbit closes."""
    image = gf.power(a, p, lambda x, y: padic._mul(x, y, omega, p))
    return ((image[0] + 1) % p,) + image[1:]


# Residue fields GF(p^m): exhaustive search for q <= 16 and in
# characteristic 2 (GF(4), GF(8) among them); GF(25), GF(27), GF(31),
# GF(13^2), GF(7^3) and GF(101) are split while q > EXHAUSTIVE_PER_ROOT
# deg f, and searched once deg f grows past that.  test_residue_field_builds_no_elements pins one input
# of each path.  The pinned roots below make sure the splitting path meets
# two F_p-factors of one degree (two quadratics over F_13, two cubics over
# F_7, three linear factors over F_4099) and the f_p = 1 splitting path
# (4099 > 16 deg f); None draws the roots.
RESIDUE_CASES = [pytest.param(p, m, None, id=f"{p}-{m}") for p, m in [
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 3), (5, 2), (31, 1), (13, 2), (7, 3), (101, 1)]] + [
    pytest.param(13, 2, [(1, 1), (2, 1)], id="13-2-two-quadratics"),
    pytest.param(7, 3, [(0, 1, 0), (1, 1, 0)], id="7-3-two-cubics"),
    pytest.param(4099, 1, [(1,), (5,), (17,)], id="4099-1-three-linear"),
]


@pytest.mark.parametrize("p, m, pinned", RESIDUE_CASES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_residue_roots_match_brute_force(p, m, pinned, data):
    # the library's input: an integral f, here the product over the
    # Frobenius orbits of drawn field elements, which has coefficients in
    # F_p; both root-finding paths find exactly the field's roots of f
    omega = padic.build_unramified(p, m, 1, seed=data.draw(st.integers(0, 3), label="seed")).omega
    coords = st.tuples(*[st.integers(0, p - 1)] * m)
    betas = pinned or data.draw(st.lists(coords, min_size=1, max_size=min(4, p**m), unique=True),
                                label="betas")
    orbits = {tuple(sorted(_frobenius_orbit(beta, omega, p))) for beta in betas}
    roots = sorted(gamma for orbit in orbits for gamma in orbit)
    f = _field_product(roots, omega, p)
    assert all(not any(c[1:]) for c in f)  # Galois-stable: coefficients in F_p
    f = tuple(c[0] for c in f)
    q, n = p**m, len(f) - 1
    splitting = q > padic.EXHAUSTIVE_PER_ROOT * n and p > 2
    event("splitting" if splitting else "exhaustive")
    degrees = sorted(len(orbit) for orbit in orbits)
    if splitting and any(a == b for a, b in zip(degrees, degrees[1:])):
        event("two F_p-factors of one degree")
    want = _brute_force_roots([(c,) for c in f], omega, p)
    assert want == roots
    split_seed = data.draw(st.integers(0, 3), label="split seed")
    found = padic.residue_roots(f, p, omega, seed=split_seed)
    assert sorted(found) == want
    if pinned:
        assert splitting and degrees[0] == degrees[1]
    if splitting:
        # the orbit check: a Frobenius that never closes an orbit, and the
        # identity, which closes every orbit after one step (right only when
        # every F_p-factor is linear)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(padic, "_frobenius", _frobenius_shifted)
            with pytest.raises(ValueError, match="^a Frobenius orbit of roots"):
                padic.residue_roots(f, p, omega, seed=split_seed)
            mp.setattr(padic, "_frobenius", lambda a, omega, p: a)
            if degrees[-1] > 1:
                with pytest.raises(ValueError, match="^a Frobenius orbit of roots"):
                    padic.residue_roots(f, p, omega, seed=split_seed)
    if p > 2:
        # the one-root splitter on field coefficients: f = prod (x - beta)
        f = _field_product(betas, omega, p)
        root = padic._one_root(f, omega, p, random.Random(data.draw(st.integers(0, 3))))
        assert root in betas


def test_residue_field_builds_no_elements(monkeypatch):
    # root finding, splitting and the Frobenius permutation run on
    # coefficient tuples: none of them builds a PadicElement
    quartic = padic.lift_roots(F_QUARTIC, padic.build_unramified(5, 4, 3))  # splitting
    quad = padic.lift_roots(F_QUAD, padic.build_unramified(3, 2, 3))  # exhaustive

    def refuse(*args, **kwargs):
        raise AssertionError("a PadicElement was built")

    monkeypatch.setattr(padic, "PadicElement", refuse)
    for lifted in (quartic, quad):
        p, omega = lifted.ring.p, lifted.ring.omega
        residues = [r.residue() for r in lifted.roots]
        assert sorted(padic.residue_roots(lifted.poly, p, omega)) == residues
        field_f = [(c % p,) + (0,) * (len(omega) - 2) for c in lifted.poly]
        assert padic._one_root(field_f, omega, p, random.Random(0)) in residues
    assert padic.frobenius_perm(quartic) == (1, 3, 0, 2)  # a 4-cycle: x^4 - 2 is inert at 5
    assert padic.frobenius_perm(quad) == (1, 0)
