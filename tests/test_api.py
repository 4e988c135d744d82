"""Guards on the package surface: the public names, the module attributes
the benchmark in perfbench/ reads, and the rule that no correctness check
is an `assert` (python -O strips them).
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import alghull

PACKAGE = Path(alghull.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

PUBLIC = [
    "HullResult",
    "OracleHull",
    "closed_form_deg4",
    "closed_form_deg6",
    "hull_lie_algebra",
    "hull_matrix",
    "hull_semisimple",
    "is_algebraic",
    "MatrixSpan",
    "as_matrix",
    "bracket_closure",
    "char_poly",
    "companion",
    "jordan_decomposition",
    "min_poly",
    "ExponentPolynomial",
    "RelationBasis",
    "TargetSet",
    "find_relations_galois",
    "find_relations_lll",
    "is_zero",
]


def test_public_names():
    assert alghull.__all__ == PUBLIC
    assert all(hasattr(alghull, name) for name in PUBLIC)


def test_names_perfbench_reads_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = list(tracer.LAYERS) + [("padic", "cached_roots"), ("linalg", "rref"),
                                   ("matrices", "flatten"), ("matrices", "unflatten")]
    for module, name in names:
        assert callable(getattr(importlib.import_module(f"alghull.{module}"), name)), name


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
    assert len(list(PACKAGE.glob("*.py"))) > 5  # the walk saw the package
