"""alghull benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload corpus-hulls --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each batch runs in a fresh interpreter
(perfbench/worker.py), one process at a time, so alghull's caches start
cold and nothing else of the benchmark competes for a core.  The batch
repeats while another repetition fits in --seconds; each call's time is
its best over the repetitions.  Every time is scaled to a nominal machine
speed by the reference loop in speed.py, which the worker times between
calls.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("corpus-hulls", "zero-tests", "lie-hulls")
MIN_SETUPS = 5  # set-up samples per run; set-up is short and noisy
MIN_PAIRS = 2  # untraced/traced batch pairs per traced run, time allowing
DEADLINE_S = 170  # a run never takes longer than this
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
RESULTS = ROOT / "perfbench" / "results"


class BenchError(RuntimeError):
    pass


@dataclass
class Batch:
    setup_s: float
    duration_s: float  # the worker's whole life, set-up included
    data: dict

    @property
    def scaled_setup_s(self) -> float:
        return self.setup_s * self.data["setup_scale"]

    @property
    def scaled_wall_s(self) -> float:
        return sum(w * f for w, f in zip(self.data["wall_ms"], self.data["scale"])) / 1e3

    @property
    def speed_factor(self) -> float:
        """Scaled over unscaled wall time of the batch."""
        return self.scaled_wall_s * 1e3 / sum(self.data["wall_ms"])


def spawn(workload, seed, phase, deadline, spans=None) -> Batch:
    """Run one worker to completion and return what it reported."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--phase", phase]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} worker for {workload} passed the deadline") from None
    finally:
        if proc.poll() is None:  # timed out, or this process was interrupted
            proc.kill()
            proc.communicate()
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker for {workload} exited with {proc.returncode}")
    data = json.loads(out.strip().splitlines()[-1])
    return Batch(data["ready_at"] - t0, t1 - t0, data)


def tail(latencies):
    """(value, percentile, samples): the latency at the highest percentile
    that leaves TAIL_BEYOND samples beyond it.  With too few calls for that
    percentile to lie above the median, the slowest call (p100)."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
    return xs[-1], 100.0, n


def rounds_within(seconds, deadline, run_one, minimum):
    """Call run_one(deadline), which returns a list of batches, until the
    next round would pass `seconds`; at least `minimum` rounds run, unless
    the next one would pass the deadline."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_one(deadline))
        now = time.perf_counter()
        last = sum(b.duration_s for b in rounds[-1])
        if now + last > deadline:
            return rounds
        if len(rounds) >= minimum and now - start + last > seconds:
            return rounds


def best_of(batches):
    """Combine repetitions of one batch: per call, the fastest scaled wall
    and CPU time over the repetitions; a call is right only if it was
    right every time.  Every repetition does the same work from the same
    cold start, so the minimum discards slowdowns that come from outside
    the program and are too short for the scale to see."""
    calls = range(len(batches[0].data["ok"]))
    wall = [min(b.data["wall_ms"][i] * b.data["scale"][i] for b in batches) for i in calls]
    cpu = [min(b.data["cpu_ms"][i] * b.data["cpu_scale"][i] for b in batches) for i in calls]
    ok = [all(b.data["ok"][i] for b in batches) for i in calls]
    return wall, cpu, ok


def end_to_end(workload, seed, seconds, deadline):
    rounds = rounds_within(seconds, deadline,
                           lambda d: [spawn(workload, seed, "untraced", d)], minimum=1)
    batches = [r[0] for r in rounds]
    setups = batches[:]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup", deadline))
    wall, cpu, ok = best_of(batches)
    # A call's latency is its scaled CPU time: alghull runs on one thread
    # and does no I/O, so on an unshared core the two agree.  Wall time
    # adds bursts in which the shared machine holds the process off the CPU.
    latencies = [c for c, good in zip(cpu, ok) if good]
    if not latencies:
        raise BenchError("no call succeeded")
    tail_ms, pct, n = tail(latencies)
    metrics = {
        "wall_s": (sum(wall) / 1e3, "s"),
        "cpu_s": (sum(cpu) / 1e3, "s"),
        "call_p50_ms": (statistics.median(latencies), "ms"),
        "call_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(b.scaled_setup_s for b in setups), "s"),
        "peak_rss_mb": (max(b.data["maxrss_kb"] for b in batches) / 1024, "MiB"),
    }
    notes = [
        f"repetitions of the batch: {len(batches)}, set-up samples: {len(setups)}",
        "speed factor per repetition: "
        + ", ".join(f"{b.speed_factor:.3f}" for b in batches),
        "unscaled wall_s per repetition: "
        + ", ".join(f"{sum(b.data['wall_ms']) / 1e3:.4f}" for b in batches),
        f"call_tail_ms is p{pct:.2f} of {n} calls",
    ]
    return [b.data for b in batches], metrics, notes


def per_layer(workload, seed, seconds, deadline):
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{workload}.spans.jsonl"
    rounds = rounds_within(seconds, deadline, lambda d: [
        spawn(workload, seed, "untraced", d),
        spawn(workload, seed, "traced", d, spans=spans),
    ], minimum=MIN_PAIRS)
    untraced = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    metrics = {}
    for name in traced[0].data["layers"]:
        scale = (lambda b: b.speed_factor) if name.endswith(".self_s") else (lambda b: 1)
        value = statistics.median(b.data["layers"][name] * scale(b) for b in traced)
        metrics[name] = (value, _layer_unit(name))
    diffs = [t.scaled_wall_s - u.scaled_wall_s for u, t in zip(untraced, traced)]
    overhead = statistics.median(diffs)
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = [f"untraced/traced batch pairs: {len(rounds)}, spans in {spans}",
             "traced minus untraced scaled wall_s per pair: "
             + ", ".join(f"{d:.4f}" for d in diffs)]
    walls = [b.scaled_wall_s for b in untraced]
    spread = max(walls) - min(walls)
    if len(rounds) < 2:
        notes.append("trace.overhead_s is unresolved: only one pair fitted")
    elif overhead <= spread:
        notes.append(f"trace.overhead_s is unresolved: not above the spread of "
                     f"the untraced batches ({spread:.4f} s)")
    for b in traced:
        self_sum = sum(v for k, v in b.data["layers"].items() if k.endswith(".self_s"))
        # The spans also cover the reference-loop timings inside calls.
        wall = sum(b.data["wall_ms"]) / 1e3 + b.data["probe_s"]
        notes.append(f"summed self time {self_sum:.4f} s of traced wall {wall:.4f} s "
                     f"(unscaled)")
        if self_sum > wall:
            raise BenchError("summed self time exceeds the traced wall time")
    missing = traced[0].data.get("missing_layers")
    if missing:
        notes.append(f"layers alghull no longer defines (reported as 0): {missing}")
    return [b.data for b in untraced + traced], metrics, notes


def _layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return {"padic.select_prime.calls_per_poly": "calls/poly",
            "padic.cached_roots.hit_ratio": "ratio",
            "lattice.lll_reduce.max_input_bits": "bits"}[name]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "alghull" / "__init__.py").is_file():
        print(f"run: no alghull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that spawn() stops the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        data, metrics, notes = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 3
    attempted = sum(len(d["ok"]) for d in data)
    failed = sum(d["ok"].count(False) for d in data)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    print(f"  fail_ratio: {failed / attempted:.6f} ({failed} of {attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
