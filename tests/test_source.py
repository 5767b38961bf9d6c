"""Rules that the package's source code itself must keep."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "causalprecode"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so every invariant must raise a real exception.
    files = sorted(SRC.glob("*.py"))
    assert files, f"no package sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"
