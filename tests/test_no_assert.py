"""No check in the library may be an `assert`: `python -O` strips them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "alghull"


def test_library_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in the library: {found}"
