"""Per-polynomial set-up: the prime scan, the squarefree test over Q and
the cached contexts.

`_full_scan` below is the selection loop select_prime replaced: it
factors f at each of the first SEARCH_LIMIT admissible primes and then
picks the minimum.  select_prime stops at the first split prime with
prefer="min", which must give the same selection, so the differential
tests compare the two on random squarefree polynomials, the corpus and the
minimal polynomials the benchmark's Lie-algebra hulls meet.  The other
tests pin what the set-up must not do: factor more than it needs, run the
gcd over Q when an admissible prime already proves f squarefree, build two
contexts for one (f, p, seed), test a context's prime twice, or change
which error a bad input raises.
"""

import importlib.util
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import corpus
from alghull import gf, hull, padic
from alghull import polynomials as pol

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
SQUARE = (1, -2, 1)  # (x - 1)^2
NOT_SQUAREFREE = "polynomial is not squarefree over Q (gcd(f, f') is not constant)"


def _primes_above(n):
    p = max(n, 2)
    while True:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _full_scan(f, prefer):
    """The selection loop before the early exit: factor f at the first
    SEARCH_LIMIT admissible primes above deg f, then take the minimum."""
    limit = padic.SEARCH_LIMIT
    found = []
    candidates = _primes_above(len(f))
    for _ in range(10 * limit):
        if len(found) >= limit:
            break
        p = next(candidates)
        if padic.is_admissible(f, p):
            degs = gf.distinct_degree_degrees(gf.gf_normalize(f, p), p)
            found.append(padic.PrimeSelection(p, math.lcm(*degs) if degs else 1, degs))
    if not found:
        raise padic.NoAdmissiblePrime("none")
    if prefer == "min":
        return min(found, key=lambda s: (s.f_p, s.p))
    return min(found, key=lambda s: (-s.f_p, s.p))


def _counting(monkeypatch, counts, module, name):
    fn = getattr(module, name)
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


# ------------------------------------------------------------ differential

@st.composite
def squarefree_polys(draw):
    """Monic integral squarefree polynomials of degree 1..6, constant term
    first, coefficients in [-6, 6]."""
    n = draw(st.integers(1, 6))
    f = tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))) + (1,)
    assume(pol.degree(pol.squarefree_part(f)) == n)
    return f


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(squarefree_polys(), st.sampled_from(["min", "max"]))
def test_select_prime_matches_the_full_scan(f, prefer):
    assert padic.select_prime(f, prefer=prefer) == _full_scan(f, prefer)


@pytest.fixture
def lie_polys(cold_contexts):
    """The polynomials select_prime meets in hull_lie_algebra on the
    benchmark's Lie-algebra inputs (fixed cases and the random pool)."""
    spec = importlib.util.spec_from_file_location("alghull_bench_reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    seen = []
    original = padic.select_prime

    def recording(f, prefer="min"):
        f = tuple(int(c) for c in f)
        if f not in seen:
            seen.append(f)
        return original(f, prefer=prefer)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(padic, "select_prime", recording)
        for _, gens in reference.LIE_FIXED + reference.lie_pool():
            hull.hull_lie_algebra(gens)
    assert len(seen) > 40
    return seen


def test_select_prime_matches_the_full_scan_on_corpus_and_lie_polys(lie_polys):
    polys = [tuple(e.poly) for e in corpus.CORPUS] + lie_polys
    for f in polys:
        for prefer in ("min", "max"):
            assert padic.select_prime(f, prefer=prefer) == _full_scan(f, prefer), (f, prefer)


# ---------------------------------------------------------------- counting

@pytest.mark.parametrize("f, prefer, factorisations", [
    ((-2, 0, 1), "min", 3),  # 3 and 5 leave x^2 - 2 irreducible; 7 splits it
    ((-2, 0, 1), "max", 20),
    ((-2, 0, 0, 0, 0, 1), "min", 20),  # no prime among the first 20 splits x^5 - 2
])
def test_scan_factors_up_to_the_first_split_prime(monkeypatch, f, prefer, factorisations):
    counts = {}
    _counting(monkeypatch, counts, gf, "distinct_degree_degrees")
    padic.select_prime(f, prefer=prefer)
    assert counts["distinct_degree_degrees"] == factorisations


def _counting_factorisations(monkeypatch, counts):
    """Count the squarefree tests and distinct-degree loops per (f, p)."""
    for name in ("gf_is_squarefree", "distinct_degree_factors"):
        def wrapper(f, p, fn=getattr(gf, name), name=name):
            counts[name, tuple(f), p] = counts.get((name, tuple(f), p), 0) + 1
            return fn(f, p)

        monkeypatch.setattr(gf, name, wrapper)


# each residue root search factors f over F_p (no exhaustive search)
@pytest.mark.parametrize("f, p", [
    ((-2, 0, 0, 0, 1), 5),  # f_p = 4
    ((1, 0, 0, 0, 0, 0, 0, 0, 1), 41),  # f_p = 2
    ((-2, 0, 1), 97),  # f_p = 1
])
def test_a_fixed_prime_context_factors_f_once(monkeypatch, cold_contexts, f, p):
    # is_admissible, the selection and residue_roots read one factorisation
    counts = {}
    _counting_factorisations(monkeypatch, counts)
    ctx = padic.root_context(f, prime=p)
    ctx.roots(6)
    assert ctx.selection.p == p
    key = (gf.gf_normalize(f, p), p)
    assert counts[("gf_is_squarefree",) + key] == 1
    assert counts[("distinct_degree_factors",) + key] == 1


def test_the_min_scan_after_the_max_scan_factors_no_prime(monkeypatch, cold_contexts):
    counts = {}
    _counting_factorisations(monkeypatch, counts)
    for e in corpus.CORPUS:
        padic.select_prime(e.poly, prefer="max")
    assert max(counts.values()) == 1
    counts.clear()
    for e in corpus.CORPUS:
        padic.select_prime(e.poly, prefer="min")
    assert counts == {}


def test_unknown_preference_is_rejected_before_any_work(monkeypatch, cold_contexts):
    counts = {}
    _counting(monkeypatch, counts, gf, "distinct_degree_degrees")
    _counting(monkeypatch, counts, padic, "is_admissible")
    _counting(monkeypatch, counts, pol, "gcd")
    message = re.escape("unknown preference 'bogus'")
    for call in (lambda: padic.select_prime((-2, 0, 1), prefer="bogus"),
                 lambda: padic.root_context((-2, 0, 1), prefer="bogus"),
                 lambda: padic.root_context((-2, 0, 1), prime=7, prefer="bogus"),
                 lambda: padic.root_context(SQUARE, prefer="bogus")):
        with pytest.raises(ValueError, match=message):
            call()
    assert counts == {"distinct_degree_degrees": 0, "is_admissible": 0, "gcd": 0}


# -------------------------------------------------------- squarefreeness

# The gcd over Q decides the error: f with a repeated root raises
# NotSquarefree before any error about the prime, on every path.
@pytest.mark.parametrize("f, prime, error, message", [
    (SQUARE, None, padic.NotSquarefree, NOT_SQUAREFREE),
    ((0, 0, 0, 1), None, padic.NotSquarefree, NOT_SQUAREFREE),
    (SQUARE, 5, padic.NotSquarefree, NOT_SQUAREFREE),
    (SQUARE, 2, padic.NotSquarefree, NOT_SQUAREFREE),
    (SQUARE, 9, padic.NotSquarefree, NOT_SQUAREFREE),
    (SQUARE, 0, padic.NotSquarefree, NOT_SQUAREFREE),
    (SQUARE, -7, padic.NotSquarefree, NOT_SQUAREFREE),
    ((0, 0, -1, 1), 3, padic.NotSquarefree, NOT_SQUAREFREE),
    ((-2, 0, 1), 9, padic.PadicError, "9 is not a prime"),
    ((-2, 0, 1), 1, padic.PadicError, "1 is not a prime"),
    ((-2, 0, 1), 0, padic.PadicError, "0 is not a prime"),
    ((-2, 0, 1), 2, padic.PadicError, "prime 2 is not admissible (f not squarefree mod 2)"),
    ((1, 1, 1, 1, 1), 5, padic.PadicError, "prime 5 is not admissible (f not squarefree mod 5)"),
    ((1, 2), None, padic.PadicError, "polynomial must be monic"),
    ((1, 2), 5, padic.PadicError, "polynomial must be monic"),
    ((), None, padic.PadicError, "polynomial must be monic"),
])
def test_bad_inputs_raise_the_same_errors(f, prime, error, message, cold_contexts):
    with pytest.raises(padic.PadicError) as info:
        padic.root_context(f, prime=prime)
    assert type(info.value) is error
    assert str(info.value) == message


def test_an_admissible_prime_spares_the_gcd(monkeypatch, cold_contexts):
    counts = {}
    _counting(monkeypatch, counts, pol, "gcd")
    for entry in corpus.CORPUS:
        for prefer in ("min", "max"):
            ctx = padic.root_context(entry.poly, prefer=prefer)
            assert padic.root_context(entry.poly, prime=ctx.p, seed=1).p == ctx.p
            ctx.roots(3)
    assert counts["gcd"] == 0


# ----------------------------------------------------------- one context

def test_one_context_per_polynomial_prime_and_seed(monkeypatch, cold_contexts):
    counts = {}
    _counting(monkeypatch, counts, padic, "lift_roots")
    _counting(monkeypatch, counts, padic, "select_prime")
    polys = [(-n, 0, 1) for n in range(1, 101)]
    contexts = []
    for f in polys:
        ctx = padic.root_context(f)
        ctx.roots(4)
        contexts.append(ctx)
    for f, ctx in zip(polys, contexts):
        assert padic.root_context(f) is ctx
        assert padic.root_context(f, prime=ctx.p) is ctx
        assert padic.root_context(f, prime=ctx.p).roots(4) is ctx.roots(4)
    assert counts["lift_roots"] == len(polys)
    # every seed shares the automatic choice
    assert padic.root_context(polys[0], seed=1).p == contexts[0].p
    assert counts["select_prime"] == len(polys)


def test_a_context_tests_its_prime_once(monkeypatch, cold_contexts):
    # root_context tests a fixed prime for admissibility; the lift inside
    # the context does not test it again
    primes = {e.poly: padic.root_context(e.poly, prefer=prefer).p
              for e in corpus.CORPUS for prefer in ("min", "max")}
    padic._root_context.cache_clear()
    counts = {}
    _counting(monkeypatch, counts, padic, "is_admissible")
    for f, p in primes.items():
        padic.root_context(f, prime=p).roots(3)
        padic.root_context(f, prime=p, seed=1).roots(6)
    assert counts["is_admissible"] == 2 * len(primes)


@pytest.mark.parametrize("f, p", [
    ((-2, 0, 1), 2),    # x^2 mod 2, found by the exhaustive search
    ((68, -2, 1), 67),  # (x - 1)^2 mod 67, found by the split check
])
def test_lift_roots_rejects_an_inadmissible_prime(f, p):
    with pytest.raises(padic.PadicError, match=f"^polynomial is not squarefree mod {p}$"):
        padic.lift_roots(f, padic.build_unramified(p, 1, 3))
