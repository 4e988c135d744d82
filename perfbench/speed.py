"""How fast the machine runs Python from moment to moment, from a fixed
reference loop timed while a batch runs.

The benchmark shares its machine, whose speed changes from one second to
the next: the same work can run 1.6 times faster or slower.  While a
worker runs its batch, a Probe times the reference loop every INTERVAL_S
of wall time, from a SIGALRM handler, so that samples fall inside long
calls as well as between short ones.  A call's time is then scaled by the
mean of NOMINAL_MS / (loop time) over the samples taken during the call
and within PAD_S of it; CPU time by the loop's CPU time, wall time by its
wall time.  The result is the time the call would take on a
machine where the loop always takes NOMINAL_MS.

The loop does the kinds of work alghull does (Fraction elimination,
small-integer polynomial arithmetic mod p, big-integer products, dict
handling) and uses no alghull code, so a change to alghull never changes
the scale.
"""

from __future__ import annotations

import random
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter, process_time

# Median time of reference_loop() on a 2-core x86-64 virtual machine with
# Python 3.11 in its faster speed phase.
NOMINAL_MS = 1.6
INTERVAL_S = 0.1  # wall time between two timings of the loop
PAD_S = 0.15  # samples this close to a call also count for it

_RNG = random.Random(20061114)
_POLY_A = [_RNG.randrange(1, 1_000_003) for _ in range(40)]
_POLY_B = [_RNG.randrange(1, 1_000_003) for _ in range(40)]
_BIG = [_RNG.getrandbits(640) | 1 for _ in range(24)]
_MATRIX = [[Fraction(_RNG.randint(-9, 9)) for _ in range(7)] for _ in range(7)]


def reference_loop() -> int:
    rows = [row[:] for row in _MATRIX]
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    p = 1_000_003
    prod = [0] * (len(_POLY_A) + len(_POLY_B) - 1)
    for i, x in enumerate(_POLY_A):
        for j, y in enumerate(_POLY_B):
            prod[i + j] = (prod[i + j] + x * y) % p
    modulus = _BIG[0]
    acc = 1
    for _ in range(5):
        for b in _BIG:
            acc = acc * b % modulus
    counts = {}
    for i in range(500):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
    return prod[5] ^ acc ^ len(counts)


class Probe:
    """Timings of the reference loop, each as (mid-point, wall ms, CPU ms),
    and the wall and CPU seconds the timings took."""

    def __init__(self):
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self, *_signal_args):
        c0 = process_time()
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        c1 = process_time()
        self.samples.append(((t0 + t1) / 2, (t1 - t0) * 1e3, (c1 - c0) * 1e3))
        self.spent_wall += perf_counter() - t0
        self.spent_cpu += process_time() - c0

    @contextmanager
    def running(self):
        """Take a sample every INTERVAL_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start, end, cpu=False) -> float:
        """Mean of NOMINAL_MS / loop time (wall, or CPU with `cpu`) over the
        samples within PAD_S of [start, end]; the nearest sample when there
        is none."""
        near = [s for s in self.samples if start - PAD_S <= s[0] <= end + PAD_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))]
        return statistics.fmean(NOMINAL_MS / s[2 if cpu else 1] for s in near)
