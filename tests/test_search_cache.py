"""The memoized relation searches: a warm call gives the cold call's
answer, runs no ladder, and still checks every argument first."""

import random
from fractions import Fraction

import pytest

import corpus
from alghull import galois, hull, padic
from alghull import polynomials as pol
from alghull import relations as rel
from alghull.matrices import companion

MODES = ("proven", "heuristic")


def _corpus_options(entry):
    """Both routes with the entry's group order; the permutation route at
    its own prime, with the Frobenius group."""
    yield {"route": "lll", "group_order": entry.group_order}
    yield {"route": "galois", "group_order": entry.group_order,
           "group": corpus.group_for(entry), "prime": corpus.prime_for(entry)}


def _variables(f):
    n = len(f) - 1
    return rel.TargetSet(f, tuple(rel.ExponentPolynomial.variable(i, n) for i in range(n)))


def _random_polys(count=80):
    """Seeded monic squarefree polynomials of degree 2-5 with coefficients
    in [-4, 4], constant term first."""
    rng, polys = random.Random(7), []
    while len(polys) < count:
        deg = rng.randint(2, 5)
        f = tuple(rng.randint(-4, 4) for _ in range(deg)) + (1,)
        if pol.degree(pol.squarefree_part(tuple(Fraction(c) for c in f))) == deg:
            polys.append(f)
    return polys


def _calls():
    for entry in corpus.CORPUS:
        for options in _corpus_options(entry):
            yield entry.poly, options
    for f in _random_polys():
        for route in ("lll", "galois"):
            yield f, {"route": route}


def _record(res):
    """The repr of a HullResult with its span's basis for the span (a
    MatrixSpan's repr is its address)."""
    return repr((res.span.n, res.span.basis, res.certification, res.route, res.witnesses))


def test_a_warm_hull_repeats_the_cold_one():
    for f, options in _calls():
        x = companion(f)
        cold = {}
        for mode in MODES:
            rel.clear_caches()
            cold[mode] = _record(hull.hull_matrix(x, mode=mode, **options))
        # the second mode's warm call is served the first mode's entry
        for mode in MODES:
            assert _record(hull.hull_matrix(x, mode=mode, **options)) == cold[mode], (f, options)


def test_a_warm_repeat_climbs_no_rung_and_lifts_no_root(monkeypatch):
    calls = []
    rung, lift = rel._rung, padic.increase_precision
    monkeypatch.setattr(rel, "_rung", lambda *args: calls.append("rung") or rung(*args))
    monkeypatch.setattr(padic, "increase_precision",
                        lambda *args: calls.append("lift") or lift(*args))
    for entry in corpus.CORPUS:
        x, targets = companion(entry.poly), _variables(entry.poly)
        for options in _corpus_options(entry):
            rel.clear_caches()
            hull.hull_matrix(x, **options)
            assert "rung" in calls
            calls.clear()
            for mode in MODES:
                hull.hull_matrix(x, mode=mode, **options)
            assert calls == [], (entry.label, options["route"])
        rel.find_relations_lll(targets, group_order=entry.group_order)
        rel.find_relations_galois(targets, corpus.group_for(entry), prime=corpus.prime_for(entry),
                                  group_order=entry.group_order)
        calls.clear()
        for mode in MODES:
            rel.find_relations_lll(targets, mode=mode, group_order=entry.group_order)
            rel.find_relations_galois(targets, corpus.group_for(entry), mode=mode,
                                      prime=corpus.prime_for(entry),
                                      group_order=entry.group_order)
        assert calls == [], entry.label


def test_cached_answers_are_immutable():
    f = (-2, 0, 0, 0, 1)
    rows = hull.hull_matrix(companion(f), group_order=8).witnesses["lambda_basis"]
    basis, _, _ = rel._power_sum_relations(f, rows, 3, "min", group_order=8)
    assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
    assert isinstance(basis, tuple) and all(isinstance(gamma, tuple) for gamma in basis)


def test_a_warm_cache_still_rejects_bad_options():
    f = (-2, 0, 0, 0, 1)
    x, targets = companion(f), _variables(f)
    for route in ("lll", "galois"):
        hull.hull_matrix(x, route=route, group_order=8)
    rel.find_relations_lll(targets, group_order=8)
    rel.find_relations_galois(targets, galois.PermGroup(4, []), group_order=8)
    with pytest.raises(ValueError, match="unknown mode"):
        hull.hull_matrix(x, mode="exact", group_order=8)
    with pytest.raises(ValueError, match="unknown route"):
        hull.hull_matrix(x, route="pslq", group_order=8)
    with pytest.raises(ValueError, match="unknown mode"):
        rel.find_relations_lll(targets, mode="exact", group_order=8)
    with pytest.raises(ValueError, match="unknown mode"):
        rel.find_relations_galois(targets, galois.PermGroup(4, []), mode="exact",
                                  group_order=8)
    with pytest.raises(ValueError, match="group degree"):
        rel.find_relations_galois(targets, galois.PermGroup(3, []), group_order=8)
    with pytest.raises(ValueError, match="group degree"):
        hull.hull_matrix(x, route="galois", group=galois.PermGroup(5, []), group_order=8)
    with pytest.raises(ValueError, match="not a permutation"):
        hull.hull_matrix(x, route="galois", group=galois.PermGroup.from_images(
            4, [[1, 1, 3, 4]]), group_order=8)


@pytest.mark.parametrize("route", ["lll", "galois"])
def test_a_warm_cache_still_rejects_a_group_order(route):
    quintic = (-1, -1, 0, 0, 0, 1)  # x^5 - x - 1, group S5
    hull.hull_matrix(companion(quintic), route=route)
    hull.hull_matrix(companion(quintic), route=route, group_order=120)
    with pytest.raises(ValueError, match="group order 2"):
        hull.hull_matrix(companion(quintic), route=route, group_order=2)
    find = rel.find_relations_lll if route == "lll" else (
        lambda targets, **kw: rel.find_relations_galois(targets, galois.PermGroup(5, []), **kw))
    find(_variables(quintic), group_order=120)
    with pytest.raises(ValueError, match="group order 2"):
        find(_variables(quintic), group_order=2)
    radical = (-2, 0, 0, 0, 0, 1)  # x^5 - 2, group of order 20
    hull.hull_matrix(companion(radical), route=route, group_order=20)
    with pytest.raises(ValueError, match="group order 1"):
        hull.hull_matrix(companion(radical), route=route, group_order=1)
