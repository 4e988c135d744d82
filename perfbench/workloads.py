"""Workload inputs, the batch loop and the answer checks.

A batch is the list of public alghull calls one workload makes.  Each call
is timed on its own.  Its answer is checked afterwards, outside the timed
part, against the reference data or an independent computation; a call
that raises or answers wrongly counts as failed, and run.py never counts
its time as a latency.

Calls look the public function up on its module at call time, so the span
recorder in tracer.py sees the top-level call as well as the inner ones.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from alghull import hull, linalg, matrices, relations

from . import reference, speed

ZERO_TESTS_PER_POLY = 100


@dataclass(frozen=True)
class Case:
    label: str
    call: Callable[[], object]
    # Returns what is wrong with the answer, or None when it is right.
    check: Callable[[object], "str | None"]


@dataclass
class BatchResult:
    """Per call, in batch order: wall and CPU milliseconds, whether the
    answer was right, and the factors that scale the call's wall and CPU
    time to the nominal machine speed of speed.py.  probe_s is the wall
    time the reference-loop timings took; the call times do not include it."""

    wall_ms: list
    cpu_ms: list
    ok: list
    scale: list
    cpu_scale: list
    probe_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


# ------------------------------------------------------------------ calls

def _hull_matrix(x, **kwargs):
    return hull.hull_matrix(x, **kwargs)


def _hull_lie_algebra(gens):
    return hull.hull_lie_algebra(gens)


def _is_zero(g, f, group_order):
    return relations.is_zero(g, f, mode="proven", group_order=group_order)


# ----------------------------------------------------------------- checks

def _check_hull(res, want, dim, certs):
    if res.dim != dim:
        return f"dimension {res.dim}, expected {dim}"
    if res.span != want:
        return "span differs from the reference"
    if res.certification not in certs:
        return f"certification {res.certification!r}, expected one of {certs}"
    return None


def _check_lie(res, gens, want):
    span = res.span
    if not all(span.contains(g) for g in gens):
        return "hull misses a generator"
    basis = span.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not span.contains(matrices.lie_bracket(basis[i], basis[j])):
                return "hull is not closed under the bracket"
    if span != want:
        return "span differs from the reference"
    if res.certification != "proven":
        return f"certification {res.certification!r}, expected 'proven'"
    return None


def _check_zero(answer, e, lattice):
    expected = linalg.in_rowspace(lattice, e)
    if answer is not expected:
        return f"is_zero answered {answer!r} for {e}, the stored lattice says {expected}"
    return None


# ----------------------------------------------------------------- inputs

def _corpus_hulls(seed, ref):
    # Fixed inputs: the seed is not used.
    corpus = reference.corpus()
    cases = []
    for entry in corpus.CORPUS:
        x = matrices.companion(entry.poly)
        want = reference.decode_span(ref["corpus"][entry.label]["span"], len(x))
        galois_route = {"group": corpus.group_for(entry), "prime": corpus.prime_for(entry)}
        for route, extra in (("lll", {}), ("galois", galois_route)):
            for mode in ("proven", "heuristic"):
                certs = ("proven",) if mode == "proven" else ("proven", "heuristic-verified")
                cases.append(Case(
                    f"{entry.label} {route} {mode}",
                    partial(_hull_matrix, x, mode=mode, route=route,
                            group_order=entry.group_order, **extra),
                    partial(_check_hull, want=want, dim=entry.expected_dim, certs=certs),
                ))
    return cases


def zero_vectors(seed, lattice, n):
    """ZERO_TESTS_PER_POLY nonzero exponent vectors: alternately a
    combination of the lattice rows with coefficients in [-3, 3] and a
    vector from [-10, 10]^n (all of the latter when the lattice is 0)."""
    rng = random.Random(seed)
    out = []
    while len(out) < ZERO_TESTS_PER_POLY:
        if lattice and len(out) % 2 == 0:
            coeffs = [rng.randint(-3, 3) for _ in lattice]
            e = tuple(sum(c * row[j] for c, row in zip(coeffs, lattice)) for j in range(n))
        else:
            e = tuple(rng.randint(-10, 10) for _ in range(n))
        if any(e):
            out.append(e)
    return out


def _zero_tests(seed, ref):
    cases = []
    for entry in reference.corpus().CORPUS:
        label, poly = entry.label, entry.poly
        lattice = [tuple(row) for row in ref["corpus"][label]["lattice"]]
        n = len(poly) - 1
        for e in zero_vectors(f"{seed}:{label}", lattice, n):
            g = relations.ExponentPolynomial(tuple(
                (c, tuple(1 if j == i else 0 for j in range(n)))
                for i, c in enumerate(e) if c
            ))
            cases.append(Case(
                f"{label} {e}",
                partial(_is_zero, g, poly, entry.group_order),
                partial(_check_zero, e=e, lattice=lattice),
            ))
    return cases


def conjugate(a, perm, signs):
    """P a P^T for the signed permutation matrix with P[i][perm[i]] = signs[i]."""
    n = len(perm)
    return [[signs[i] * signs[j] * a[perm[i]][perm[j]] for j in range(n)]
            for i in range(n)]


def _lie_hulls(seed, ref):
    """The fixed cases, then every pair of the random pool conjugated by a
    seeded signed permutation: the seed changes the matrices but not the
    eigenvalues, so the work per batch stays the same across seeds."""
    rng = random.Random(seed)
    cases = []
    for label, gens in reference.LIE_FIXED + reference.lie_pool():
        n = len(gens[0])
        spec = ref["lie"][label]
        if label.startswith("random"):
            perm = rng.sample(range(n), n)
            signs = [rng.choice((1, -1)) for _ in range(n)]
        else:
            perm, signs = list(range(n)), [1] * n
        gens = [conjugate(g, perm, signs) for g in gens]
        want = reference.decode_span(spec, n)
        want = matrices.MatrixSpan([conjugate(b, perm, signs) for b in want.basis], n=n)
        cases.append(Case(label, partial(_hull_lie_algebra, gens),
                          partial(_check_lie, gens=gens, want=want)))
    return cases


_BUILDERS = {
    "corpus-hulls": _corpus_hulls,
    "zero-tests": _zero_tests,
    "lie-hulls": _lie_hulls,
}


def build(workload: str, seed: int, ref: dict | None = None) -> list:
    """The batch of one workload; the same seed gives the same inputs."""
    if ref is None:
        ref = reference.load()
    return _BUILDERS[workload](seed, ref)


# ------------------------------------------------------------------ batch

def run_batch(cases, tracer=None) -> BatchResult:
    """Run every case once; time the calls, then check the answers.  The
    reference loop of speed.py is timed throughout, and its timings are
    taken out of the call times."""
    result = BatchResult([], [], [], [], [])
    probe = speed.Probe()
    spans = []
    with probe.running():
        probe.sample()
        for i, case in enumerate(cases):
            error = None
            if tracer is not None:
                tracer.begin(i)
            w0, c0 = time.perf_counter(), time.process_time()
            spent_wall, spent_cpu = probe.spent_wall, probe.spent_cpu
            try:
                answer = case.call()
            except Exception as exc:  # a failed call is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            spent_wall, spent_cpu = probe.spent_wall - spent_wall, probe.spent_cpu - spent_cpu
            c1, w1 = time.process_time(), time.perf_counter()
            if tracer is not None:
                tracer.end()
            if error is None:
                error = case.check(answer)
            if error is not None:
                print(f"FAILED {case.label}: {error}", file=sys.stderr)
            result.wall_ms.append((w1 - w0 - spent_wall) * 1e3)
            result.cpu_ms.append((c1 - c0 - spent_cpu) * 1e3)
            result.ok.append(error is None)
            spans.append((w0, w1))
        probe.sample()
    result.scale = [probe.scale(w0, w1) for w0, w1 in spans]
    result.cpu_scale = [probe.scale(w0, w1, cpu=True) for w0, w1 in spans]
    result.probe_s = probe.spent_wall
    return result
