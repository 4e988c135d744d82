"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import importlib
import sys
import types

import pytest

from alghull import lattice, padic, relations
from perfbench import reference, run, speed, tracer, workloads


# ------------------------------------------------------------ span recorder

@pytest.fixture
def toy(monkeypatch):
    """A package `toypkg.toy` whose functions advance a fake clock by known
    amounts, so span durations and self times are exact."""
    clock = [0.0]
    mod = types.ModuleType("toypkg.toy")

    def inner(ticks):
        clock[0] += ticks
        return ticks

    def outer():
        clock[0] += 1
        mod.inner(2)
        clock[0] += 3
        mod.inner(4)
        return "done"

    def failing():
        clock[0] += 5
        mod.inner(1)
        raise ValueError("boom")

    mod.inner, mod.outer, mod.failing = inner, outer, failing
    monkeypatch.setitem(sys.modules, "toypkg", types.ModuleType("toypkg"))
    monkeypatch.setitem(sys.modules, "toypkg.toy", mod)
    monkeypatch.setattr(tracer, "perf_counter", lambda: clock[0])
    return mod


def test_nested_calls_get_exact_self_times(toy):
    t = tracer.Tracer(layers=(("toy", "outer"), ("toy", "inner"), ("toy", "failing")),
                      package="toypkg")
    with t.installed():
        t.begin(0)
        assert toy.outer() == "done"
        t.end()
        toy.inner(100)  # outside a request: not recorded
        t.begin(1)
        with pytest.raises(ValueError):
            toy.failing()
        t.end()
    times = t.self_times()
    assert times["toy.outer"] == (1, 4.0)  # 10 ticks, 6 of them in inner
    assert times["toy.inner"] == (3, 7.0)  # 2 + 4 + 1
    assert times["toy.failing"] == (1, 5.0)  # the span closes on the exception
    by_id = {s[0]: s for s in t.spans}
    outer_span = next(s for s in t.spans if s[2] == "toy.outer")
    children = [s for s in t.spans if s[1] == outer_span[0]]
    assert [s[2] for s in children] == ["toy.inner", "toy.inner"]
    assert all(by_id[s[0]][5] == 0 for s in children)  # same request id
    assert all(s[5] == 1 for s in t.spans if s[2] in ("toy.failing",))


def test_attributes_are_restored_after_tracing():
    modules = {name: importlib.import_module(f"alghull.{name}")
               for name, _ in tracer.LAYERS}
    originals = {(m, a): getattr(modules[m], a) for m, a in tracer.LAYERS}
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            for (m, a), fn in originals.items():
                assert getattr(modules[m], a) is not fn
            raise RuntimeError("leave the block early")
    for (m, a), fn in originals.items():
        assert getattr(modules[m], a) is fn, f"{m}.{a} not restored"
    assert padic.cached_roots.cache_info  # still the lru_cache object


def test_traced_batch_reports_every_layer():
    cases = workloads.build("lie-hulls", seed=3)[:3]
    t = tracer.Tracer()
    with t.installed():
        result = workloads.run_batch(cases, t)
    assert result.failed == 0
    assert len(result.scale) == len(cases) and min(result.scale) > 0
    metrics = t.metrics()
    for m, a in tracer.LAYERS:
        assert f"{m}.{a}.calls" in metrics and f"{m}.{a}.self_s" in metrics
    assert metrics["hull.hull_matrix.calls"] > 0
    assert metrics["linalg.rref.calls"] > 0
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_sum <= sum(result.wall_ms) / 1e3 + result.probe_s


# ----------------------------------------------------------- failure count

def test_wrong_answer_counts_as_failure(monkeypatch):
    cases = workloads.build("zero-tests", seed=5)[:6]
    assert workloads.run_batch(cases).failed == 0
    real = relations.is_zero
    monkeypatch.setattr(relations, "is_zero", lambda *a, **k: not real(*a, **k))
    result = workloads.run_batch(cases)
    assert (result.attempted, result.failed) == (6, 6)
    assert result.ok == [False] * 6


def test_raised_exception_counts_as_failure(monkeypatch):
    cases = workloads.build("lie-hulls", seed=0)[:2]

    def broken(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(workloads.hull, "hull_lie_algebra", broken)
    result = workloads.run_batch(cases)
    assert (result.attempted, result.failed) == (2, 2)


# -------------------------------------------------------------------- seeds

def _zero_vectors(cases):
    return [c.check.keywords["e"] for c in cases]


def _lie_generators(cases):
    return [c.call.args[0] for c in cases]


def test_seed_fixes_the_inputs():
    assert set(run.WORKLOADS) == set(workloads._BUILDERS)
    ref = reference.load()
    z1, z1b, z2 = (workloads.build("zero-tests", s, ref) for s in (1, 1, 2))
    assert len(z1) == 15 * workloads.ZERO_TESTS_PER_POLY
    assert _zero_vectors(z1) == _zero_vectors(z1b)
    assert _zero_vectors(z1) != _zero_vectors(z2)
    l1, l1b, l2 = (workloads.build("lie-hulls", s, ref) for s in (1, 1, 2))
    assert _lie_generators(l1) == _lie_generators(l1b)
    assert _lie_generators(l1) != _lie_generators(l2)
    for case in l2:
        if case.label.startswith("random"):
            gens = case.call.args[0]
            assert all(-3 <= x <= 3 for g in gens for row in g for x in row)


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct, n = run.tail(list(range(60)))
    assert (value, n) == (49, 60) and round(pct, 2) == 83.33
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 3)


def test_best_of_scales_each_call():
    first = run.Batch(0.1, 1.0, {"wall_ms": [10.0, 40.0], "cpu_ms": [9.0, 39.0],
                                 "ok": [True, True], "scale": [1.0, 1.0],
                                 "cpu_scale": [1.0, 1.0]})
    second = run.Batch(0.2, 2.0, {"wall_ms": [20.0, 60.0], "cpu_ms": [19.0, 59.0],
                                  "ok": [True, False], "scale": [1.0, 0.5],
                                  "cpu_scale": [1.0, 0.5]})
    assert run.best_of([first, second]) == ([10.0, 30.0], [9.0, 29.5], [True, False])
    assert second.scaled_wall_s == 0.05


def test_probe_scales_by_the_samples_near_a_call():
    probe = speed.Probe()
    probe.samples = [(0.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.1, 4.0, 2.0), (5.0, 8.0, 8.0)]
    nominal = speed.NOMINAL_MS
    assert probe.scale(1.0, 1.05) == (nominal / 2.0 + nominal / 4.0) / 2
    assert probe.scale(1.0, 1.05, cpu=True) == (nominal / 1.0 + nominal / 2.0) / 2
    assert probe.scale(3.0, 3.0) == nominal / 4.0  # none near: the nearest


# --------------------------------------------------------- reference data

def test_reference_data_matches_recomputation():
    stored = reference.load()
    fresh = reference.compute()
    assert stored["lie"] == fresh["lie"]
    assert stored["corpus"].keys() == fresh["corpus"].keys()
    for label, entry in stored["corpus"].items():
        assert entry["span"] == fresh["corpus"][label]["span"], label
        assert (lattice.hnf(entry["lattice"])
                == lattice.hnf(fresh["corpus"][label]["lattice"])), label
