"""Guards on the package surface: the public names, the module attributes
the benchmark in perfbench/ reads, the rule that no correctness check is
an `assert` (python -O strips them), and that sympy, which only the
closed-form oracles use, is not imported with the package.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
    assert len(list(PACKAGE.rglob("*.py"))) > 5  # the walk saw the package


def _module_level_imports(tree):
    """Names of the modules imported when the module itself is imported:
    every import statement outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_sympy_import():
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _module_level_imports(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] == "sympy"
    ]
    assert found == []
    # the walk sees module-level imports and skips function bodies
    galois_imports = list(_module_level_imports(ast.parse((PACKAGE / "galois.py").read_text())))
    assert "random" in galois_imports and "sympy" not in galois_imports
    assert "sympy" in (PACKAGE / "galois.py").read_text()


def test_hull_matrix_does_not_load_sympy():
    code = ("import sys\n"
            "import alghull\n"
            "alghull.hull_matrix([[0, 2], [1, 0]])\n"
            "print('sympy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
