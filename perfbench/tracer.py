"""Span recorder that times alghull's layers from outside the package.

For a traced batch the recorder replaces module attributes such as
`padic.select_prime` with wrappers that record one span per call: name,
start, end, parent span and the id of the benchmark call (request) it
belongs to.  Spans stay in memory; self times are computed, and the spans
written out, after the batch.  Every attribute is restored when the
`installed()` block ends.

alghull calls its own layers through module attributes (`lattice.lll_reduce`
from relations, bare global names inside a module), so a replaced attribute
is seen by every internal caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs of alghull that get a span per call.
LAYERS = (
    ("gf", "distinct_degree_degrees"),
    ("gf", "gf_is_irreducible"),
    ("padic", "select_prime"),
    ("padic", "cached_roots"),
    ("padic", "lift_roots"),
    ("padic", "increase_precision"),
    ("padic", "eval_target"),
    ("lattice", "lll_reduce"),
    ("lattice", "hnf"),
    ("lattice", "saturate"),
    ("lattice", "kernel_int"),
    ("lattice", "nullspace_mod"),
    ("lattice", "rational_reconstruction"),
    ("galois", "validate_action"),
    ("galois", "grow_subset"),
    ("relations", "zero_test"),
    ("relations", "find_relations_lll"),
    ("relations", "find_relations_galois"),
    ("linalg", "rref"),
    ("matrices", "bracket_closure"),
    ("matrices", "jordan_decomposition"),
    ("matrices", "min_poly"),
    ("hull", "hull_matrix"),
)


def _max_bits(rows):
    return max((abs(int(x)).bit_length() for row in rows for x in row), default=0)


# Argument probes: layer -> (parameter name, function of its value).
PROBES = {
    "padic.select_prime": ("f", lambda f: tuple(int(c) for c in f)),
    "lattice.lll_reduce": ("rows", _max_bits),
}


class Tracer:
    def __init__(self, layers=LAYERS, package="alghull"):
        self.layers = layers
        self.package = package
        self.spans = []  # (span id, parent id, name, start, end, request id)
        self.probed = defaultdict(list)  # layer -> probe values
        self.missing = []  # layers the package does not define
        self._stack = [0]  # open span ids; 0 is the request itself
        self._count = 0
        self._request = None
        self._saved = []  # (module, attribute, original)
        self._cache_before = self._cache_after = None

    # -- recording

    def begin(self, request_id):
        """Start recording spans for one benchmark call."""
        self._request = request_id

    def end(self):
        self._request = None

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        if probe is not None:
            param, reduce = probe
            signature = inspect.signature(fn)
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            if probe is not None:
                value = signature.bind(*args, **kwargs).arguments.get(param)
                if value is not None:
                    self.probed[name].append(reduce(value))
            self._count += 1
            span_id = self._count
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, self._request))

        return wrapper

    # -- installing

    def install(self):
        for module_name, attr in self.layers:
            module = importlib.import_module(f"{self.package}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                print(f"trace: {self.package}.{module_name} has no {attr}",
                      file=sys.stderr)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))
        self._cache_before = self._cache_info()

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self._cache_after = self._cache_info()
            self.restore()

    def _cache_info(self):
        """Hits and misses of the original `padic.cached_roots` lru_cache."""
        for module, attr, original in self._saved:
            if module.__name__.endswith(".padic") and attr == "cached_roots":
                info = getattr(original, "cache_info", None)
                return info() if info is not None else None
        return None

    # -- results

    def self_times(self) -> dict:
        """layer -> (calls, self seconds); self time is a span's duration
        minus the durations of its direct children."""
        child = defaultdict(float)
        for _sid, parent, _name, start, end, _req in self.spans:
            child[parent] += end - start
        out = {f"{m}.{a}": [0, 0.0] for m, a in self.layers}
        for sid, _parent, name, start, end, _req in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child[sid]
        return {name: tuple(v) for name, v in out.items()}

    def metrics(self) -> dict:
        """Per-layer metrics: `<layer>.calls` and `<layer>.self_s` for every
        layer, plus selections per polynomial, the root-cache hit ratio
        and the largest LLL input entry in bits."""
        out = {}
        for name, (calls, self_s) in self.self_times().items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        polys = self.probed["padic.select_prime"]
        out["padic.select_prime.calls_per_poly"] = (
            len(polys) / len(set(polys)) if polys else 0.0)
        before, after = self._cache_before, self._cache_after
        ratio = 0.0
        if before is not None and after is not None:
            hits, misses = after.hits - before.hits, after.misses - before.misses
            ratio = hits / (hits + misses) if hits + misses else 0.0
        out["padic.cached_roots.hit_ratio"] = ratio
        out["lattice.lll_reduce.max_input_bits"] = max(
            self.probed["lattice.lll_reduce"], default=0)
        return out

    def write_spans(self, path):
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, req in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "request": req}))
                fh.write("\n")
