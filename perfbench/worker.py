"""One batch of one workload in a fresh interpreter.

Started by run.py as `python -m perfbench.worker` from the repository root
with `src` on PYTHONPATH, so alghull's caches start cold as they do for a
command-line call.  The worker imports alghull, builds the inputs (set-up),
then runs the batch once, untraced or traced, and prints one JSON line:
the perf_counter reading at the end of set-up, less the reference-loop
timings taken during it (CLOCK_MONOTONIC, which the parent shares, so it
can time set-up from before the process started), and the batch results.
Each time comes with the factor that scales it to the nominal machine
speed of speed.py: set-up by the reference loop timed during and right
after it, each call by the loop timed during and around the call.
`--phase setup` stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 5  # timings of the reference loop right after set-up


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "untraced", "traced"), required=True)
    ap.add_argument("--spans", help="file for the spans of a traced batch")
    args = ap.parse_args(argv)

    from perfbench import speed  # uses no alghull code

    # Set-up is scaled like a call, by the reference loop timed during it.
    probe = speed.Probe()
    start = time.perf_counter()
    with probe.running():
        import alghull

        if Path(alghull.__file__).resolve().parent != ROOT / "src" / "alghull":
            print(f"worker: imported alghull from {alghull.__file__}, not from the "
                  f"checkout's src/", file=sys.stderr)
            return 2

        from perfbench import workloads

        cases = workloads.build(args.workload, args.seed)
        ready_at = time.perf_counter()
        probe_s = probe.spent_wall
        for _ in range(SETUP_SAMPLES):
            probe.sample()
    out = {"ready_at": ready_at - probe_s, "setup_scale": probe.scale(start, ready_at)}
    if args.phase != "setup":
        tracer = None
        if args.phase == "traced":
            from perfbench.tracer import Tracer

            tracer = Tracer()
            with tracer.installed():
                result = workloads.run_batch(cases, tracer)
        else:
            result = workloads.run_batch(cases)
        out.update(
            wall_ms=result.wall_ms,
            cpu_ms=result.cpu_ms,
            ok=result.ok,
            scale=result.scale,
            cpu_scale=result.cpu_scale,
            probe_s=result.probe_s,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["missing_layers"] = tracer.missing
            if args.spans:
                tracer.write_spans(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
