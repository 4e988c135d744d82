"""Unramified p-adic arithmetic and root lifting.

The key invariant: at working precision k every lifted root satisfies
f(root) = 0 mod p^k, and raising the precision refines the same labeled
roots (labels are assigned from sorted residues, so they are stable).
"""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import alghull
from alghull import gf, padic
from alghull import polynomials as pol
from alghull.relations import ExponentPolynomial, proven_precision

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


def test_valuation_of_integers():
    assert padic.valuation(12, p=2, k=10) == 2
    assert padic.valuation(12, p=3, k=10) == 1
    assert padic.valuation(5, p=3, k=10) == 0
    # exact zero reports the full precision ("at least k")
    assert padic.valuation(0, p=3, k=7) == 7


def test_ring_arithmetic_and_inverse():
    ring = padic.build_unramified(3, 2, 6)
    a = ring.element((2, 1))
    b = ring.element((5, 7))
    assert (a + b - b - a).is_zero()
    assert ((a * b) - (b * a)).is_zero()
    # inverses come from the residue field, by extended Euclid
    field = ring.at_precision(1)
    inv = field.element(gf.gf_inverse(a.residue(), ring.omega, 3))
    assert (field.element(a.coeffs) * inv - field.one()).is_zero()
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
                assert (pol.evaluate(fprime, alpha) * y).coeffs == ring.one().coeffs, (p, k)


@pytest.mark.parametrize("k", [1, 5, 20])
def test_hensel_residuals_at_increasing_precision(k):
    for f, p, f_p in [(F_QUAD, 3, 2), (F_QUAD, 7, 1), (F_QUARTIC, 5, 4)]:
        ring = padic.build_unramified(p, f_p, k)
        roots = padic.lift_roots(f, ring)
        assert len(roots.roots) == len(f) - 1
        for r in roots.roots:
            val = pol.evaluate(f, r)
            assert padic.valuation(val) >= k


def test_hensel_residuals_at_proven_precision():
    k = proven_precision(3, 2, 3, 2)  # the zero-test precision shape
    ring = padic.build_unramified(3, 2, k)
    roots = padic.lift_roots(F_QUAD, ring)
    for r in roots.roots:
        assert padic.valuation(pol.evaluate(F_QUAD, r)) >= k


def test_increase_precision_is_consistent():
    ring = padic.build_unramified(5, 4, 3)
    low = padic.lift_roots(F_QUARTIC, ring)
    high = padic.increase_precision(low, 24)
    fresh = padic.lift_roots(F_QUARTIC, padic.build_unramified(5, 4, 24))
    assert [r.residue() for r in high.roots] == [r.residue() for r in fresh.roots]
    for a, b in zip(high.roots, fresh.roots):
        assert a.coeffs == b.coeffs
    for r in high.roots:
        assert padic.valuation(pol.evaluate(F_QUARTIC, r)) >= 24


def test_increase_precision_inverts_once_per_root(monkeypatch):
    calls = []
    inverse = gf.gf_inverse

    def counting(a, modulus, p):
        calls.append(p)
        return inverse(a, modulus, p)

    monkeypatch.setattr(gf, "gf_inverse", counting)
    low = padic.lift_roots(F_QUARTIC, padic.build_unramified(5, 4, 1))
    calls.clear()
    high = padic.increase_precision(low, 64)  # six doubling steps
    assert calls == [5] * 4  # in the residue field, once per root
    for r in high.roots:
        assert padic.valuation(pol.evaluate(F_QUARTIC, r)) >= 64


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
    tested.clear()
    padic.UnramifiedRing(5, 3, omega)  # a caller's own omega is still tested
    assert tested == [omega]
    with pytest.raises(padic.PadicError, match="reducible"):
        padic.UnramifiedRing(5, 3, (1, 0, 1))  # x^2 + 1 = (x - 2)(x + 2) mod 5


def test_ring_construction_rejects_composite_p():
    for p in (9, 4, 1):
        with pytest.raises(padic.PadicError, match="not a prime"):
            padic.build_unramified(p, 3, 3)
    with pytest.raises(padic.PadicError, match="not a prime"):
        padic.UnramifiedRing(9, 3, (1, 0, 0, 1))


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


def test_root_splitting_is_bounded():
    # F_4099 has more than 4096 elements, so roots are found by randomized
    # splitting, which used to loop forever on x^2 - 2 (2 is not a square
    # mod 4099).  The split check rejects it; when called directly on an
    # irreducible factor, the splitting gives up after SPLIT_TRIALS trials.
    code = (
        "import random\n"
        "from alghull import padic\n"
        "ring = padic.build_unramified(4099, 1, 1)\n"
        "f = [ring.from_int(c) for c in (-2, 0, 1)]\n"
        "for call in (lambda: padic.lift_roots((-2, 0, 1), padic.build_unramified(4099, 1, 2)),\n"
        "             lambda: padic._split_collect(f, random.Random(0), [])):\n"
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
    assert padic.eval_target(g, roots).is_zero()
    # x1 * x2 = -2
    g = ExponentPolynomial(((1, (1, 1)),))
    val = padic.eval_target(g, roots)
    assert (val + 2).is_zero()
    # for the golden-ratio polynomial the root sum is 1, not 0
    roots = padic.lift_roots(F_GOLDEN, padic.build_unramified(3, 2, 12))
    g = ExponentPolynomial.power_sum((1, 1), 1)
    val = padic.eval_target(g, roots)
    assert (val - 1).is_zero() and not val.is_zero()


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


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_residue_roots_match_brute_force(data):
    # f = prod (x - beta) over distinct beta in GF(p^m), odd p < 30, m <= 3:
    # both root-finding paths (exhaustive for q <= EXHAUSTIVE_PER_ROOT deg f,
    # splitting above) and the splitter called directly find exactly the
    # field's roots of f.
    p = data.draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29]), label="p")
    m = data.draw(st.integers(1, 3), label="m")
    ring = padic.build_unramified(p, m, 1, seed=data.draw(st.integers(0, 3), label="seed"))
    coords = st.tuples(*[st.integers(0, p - 1)] * m)
    betas = data.draw(st.lists(coords, min_size=1, max_size=min(4, p**m), unique=True),
                      label="betas")
    event("exhaustive" if p**m <= padic.EXHAUSTIVE_PER_ROOT * len(betas) else "splitting")
    f = [ring.one()]
    for beta in betas:  # f *= x - beta
        f = [low - ring.element(beta) * c for c, low in zip(f + [ring.zero()], [ring.zero()] + f)]
    want = _brute_force_roots([c.coeffs for c in f], ring.omega, p)
    assert want == sorted(betas)
    found = padic.residue_roots(f, seed=data.draw(st.integers(0, 3), label="split seed"))
    assert sorted(r.coeffs for r in found) == want
    split = []
    padic._split_collect(f, random.Random(data.draw(st.integers(0, 3))), split)
    assert sorted(r.coeffs for r in split) == want
