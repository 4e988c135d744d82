"""Fixed inputs of the benchmark and the reference answers it checks against.

The reference answers live in reference.json next to this file, so the
benchmark's set-up only reads them.  To recompute and rewrite that file,
run from the repository root:

    PYTHONPATH=src python3 -m perfbench.reference
"""

from __future__ import annotations

import functools
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The corpus of the repository's tests: alghull's reference traffic.
CORPUS_PATH = Path(__file__).resolve().parents[1] / "tests" / "corpus.py"


@functools.cache
def corpus():
    """The module tests/corpus.py: its CORPUS entries, and group_for and
    prime_for, which give the permutation route its group and prime."""
    spec = importlib.util.spec_from_file_location("alghull_test_corpus", CORPUS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Lie-algebra cases with fixed generators.
LIE_FIXED = (
    ("sl2", (((0, 1), (0, 0)), ((0, 0), (1, 0)))),
    ("upper-triangular", (((1, 1, 0), (0, 1, 1), (0, 0, 1)),
                          ((1, 0, 0), (0, 2, 0), (0, 0, 4)))),
    ("sqrt2+sqrt3", (((0, 2, 0, 0), (1, 0, 0, 0), (0, 0, 0, 3), (0, 0, 1, 0)),)),
)

# The random generator pairs: drawn once with this seed, entries in
# [-3, 3], in groups of (matrix size, number of pairs).  A later group
# extends the pool without changing the pairs drawn before it.  The
# workload seed conjugates them (see workloads.py).
LIE_POOL_SEED = 611414
LIE_POOL_SIZES = ((2, 8), (3, 2), (2, 6), (2, 21))


def lie_pool() -> tuple:
    rng = random.Random(LIE_POOL_SEED)
    pool = []
    drawn = {}
    for n, count in LIE_POOL_SIZES:
        for _ in range(count):
            pair = tuple(
                tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
                for _ in range(2)
            )
            i = drawn[n] = drawn.get(n, -1) + 1
            pool.append((f"random{n}x{n}-{i}", pair))
    return tuple(pool)


def encode_span(span) -> list:
    """Canonical form of a MatrixSpan: reduced row echelon rows of the
    flattened basis, entries as strings."""
    from alghull import linalg, matrices

    rows, _ = linalg.rref([matrices.flatten(m) for m in span.basis])
    return [[str(x) for x in row] for row in rows]


def decode_span(rows: list, n: int):
    from alghull import matrices

    mats = [matrices.unflatten([Fraction(x) for x in row], n) for row in rows]
    return matrices.MatrixSpan(mats, n=n)


def variables(poly):
    """The targets x_1..x_n for the roots of poly."""
    from alghull import relations

    n = len(poly) - 1
    return relations.TargetSet(
        tuple(poly),
        tuple(relations.ExponentPolynomial.variable(i, n) for i in range(n)),
    )


def compute() -> dict:
    """Every reference answer, computed with alghull's proven LLL route."""
    from alghull import hull, matrices, relations

    spans = {}
    for entry in corpus().CORPUS:
        x = matrices.companion(entry.poly)
        span = hull.hull_matrix(x, group_order=entry.group_order).span
        lattice = relations.find_relations_lll(variables(entry.poly),
                                               group_order=entry.group_order)
        spans[entry.label] = {
            "span": encode_span(span),
            "lattice": [list(row) for row in lattice.rows],
        }
    lie = {}
    for label, gens in LIE_FIXED + lie_pool():
        lie[label] = encode_span(hull.hull_lie_algebra([list(map(list, g)) for g in gens]).span)
    return {"corpus": spans, "lie": lie}


def load() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    data = compute()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
