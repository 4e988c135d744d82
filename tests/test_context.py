"""The shared root context: one prime selection, one ring and one growing
lift per (f, p, seed), and the input checks that guard it.

The differential test compares every root the context serves with a fresh
Hensel lift at the same precision; the call-count test checks that repeated
queries on one polynomial do no prime selection or irreducibility testing
after the first.
"""

import json
import os
import random
import subprocess
import sys

import pytest
from click.testing import CliRunner

import alghull
from alghull import gf, padic
from alghull import relations as rel
from alghull.cli import main

import corpus

SQUARE = (1, -2, 1)  # (x - 1)^2


def _coeffs(roots):
    return [r.coeffs for r in roots.roots]


@pytest.mark.parametrize("entry", corpus.CORPUS, ids=lambda e: e.label)
def test_context_roots_match_fresh_lifts(entry, cold_contexts):
    f = tuple(entry.poly)
    ks = [1, 2, 3, 5, 8, 13, 21, 30]
    random.Random(entry.label).shuffle(ks)
    for prefer in ("min", "max"):
        ctx = padic.root_context(f, prefer=prefer)
        for k in ks:
            got = ctx.roots(k)
            fresh = padic.lift_roots(f, padic.build_unramified(ctx.p, ctx.f_p, k))
            assert got.ring == fresh.ring, (entry.label, prefer, k)
            assert _coeffs(got) == _coeffs(fresh), (entry.label, prefer, k)
            for r in got.roots:
                assert padic.valuation(corpus.horner(f, r)) >= k


def test_selection_matches_select_prime(cold_contexts):
    for entry in corpus.CORPUS:
        for prefer in ("min", "max"):
            ctx = padic.root_context(entry.poly, prefer=prefer)
            assert ctx.selection == padic.select_prime(entry.poly, prefer=prefer)


def test_automatic_and_fixed_prime_share_one_context(cold_contexts):
    f = (-2, 0, 0, 0, 1)
    auto = padic.root_context(f, prefer="max")
    assert padic.root_context(list(f), prime=auto.p) is auto
    assert padic.root_context(f, auto.p, prefer="min") is auto
    assert padic.root_context(f, prefer="max", seed=1) is not auto
    high = auto.roots(12)
    assert padic.cached_roots(f, auto.p, auto.f_p, 12, 0) is high
    with pytest.raises(padic.PadicError):
        padic.cached_roots(f, auto.p, auto.f_p + 1, 12, 0)


def test_repeated_zero_tests_select_once(monkeypatch, cold_contexts):
    counts = {"select": 0, "ddd": 0, "rabin": 0, "lift": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(padic, "select_prime", counting("select", padic.select_prime))
    monkeypatch.setattr(gf, "distinct_degree_degrees",
                        counting("ddd", gf.distinct_degree_degrees))
    monkeypatch.setattr(gf, "gf_is_irreducible", counting("rabin", gf.gf_is_irreducible))
    monkeypatch.setattr(padic, "lift_roots", counting("lift", padic.lift_roots))
    f = (1, 3, -3, -4, 1, 1)  # totally real cyclic quintic
    rng = random.Random(7)
    for i in range(100):
        # sizes vary, so the proven precision goes up and down
        e = [rng.randint(-10 * (i % 4 + 1), 10 * (i % 4 + 1)) for _ in range(5)]
        rel.is_zero(rel.ExponentPolynomial.power_sum(e, 1 + i % 3), f, group_order=5)
        if i == 0:
            after_first = dict(counts)
    assert counts["select"] == 1
    assert counts["ddd"] <= 20
    assert counts["rabin"] == after_first["rabin"]
    assert counts["ddd"] == after_first["ddd"]
    assert counts["lift"] == 1


def test_non_squarefree_polynomial_is_rejected(cold_contexts):
    g = rel.ExponentPolynomial(((1, (1, 0)),))
    with pytest.raises(padic.NotSquarefree):
        rel.is_zero(g, SQUARE)
    with pytest.raises(ValueError):
        padic.root_context(SQUARE, prime=5)
    # the prime scan itself is bounded by the candidates it tries
    with pytest.raises(padic.NoAdmissiblePrime):
        padic.select_prime(SQUARE)


def test_cli_rejects_non_squarefree_without_hanging():
    src = os.path.dirname(os.path.dirname(alghull.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    payload = json.dumps({"poly": list(SQUARE), "target": [[1, [1, 0]]]})
    done = subprocess.run([sys.executable, "-m", "alghull.cli", "iszero", "-"],
                          input=payload, capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 2
    assert "squarefree" in done.stderr


def test_corrupted_residue_fails_the_lift_check(monkeypatch):
    def corrupted(f, p, omega, seed=0):
        return [(3,), (5,)]  # 3 is a square root of 2 mod 7; 5 is not

    monkeypatch.setattr(padic, "residue_roots", corrupted)
    for k in (1, 6):
        with pytest.raises(padic.PadicError, match="not a root"):
            padic.lift_roots((-2, 0, 1), padic.build_unramified(7, 1, k))


def test_equal_degree_splitting_rejects_characteristic_two():
    omega = (1, 1, 1)  # GF(4) = F_2[t]/(t^2 + t + 1)
    x2_plus_x = [(0, 0), (1, 0), (1, 0)]
    with pytest.raises(ValueError, match="odd characteristic"):
        padic._one_root(x2_plus_x, omega, 2, random.Random(0))


@pytest.mark.parametrize("prime", ["0", "-7", "9"])
def test_cli_rejects_a_fixed_prime_that_is_not_prime(prime):
    runner = CliRunner()
    payload = {"poly": [-2, 0, 1], "target": [[1, [1, 0]], [1, [0, 1]]]}
    result = runner.invoke(main, ["iszero", "-", "--prime", prime],
                           input=json.dumps(payload))
    assert result.exit_code == 2
    assert "not a prime" in result.output


def test_cli_rejects_rational_coefficients():
    runner = CliRunner()
    payload = {"poly": ["-5/2", 0, 1], "target": [[1, [1, 0]]]}
    result = runner.invoke(main, ["iszero", "-"], input=json.dumps(payload))
    assert result.exit_code == 2
    assert "not an integer" in result.output
    result = runner.invoke(main, ["lll", "-"], input=json.dumps([[1.5, 0], [0, 1]]))
    assert result.exit_code == 2
    assert "not an integer" in result.output


def test_cli_prime_search_limit_is_gone():
    runner = CliRunner()
    payload = {"poly": [-2, 0, 1], "target": [[1, [1, 0]], [1, [0, 1]]]}
    result = runner.invoke(main, ["iszero", "-", "--prime-search-limit", "5"],
                           input=json.dumps(payload))
    assert result.exit_code == 2
