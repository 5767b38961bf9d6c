"""Rules that the package's source code itself must keep."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_function_takes_a_grid():
    # One output grid, which each solver builds for itself from the spec: no
    # caller hands a function a grid to integrate on.
    files = sorted(SRC.glob("*.py"))
    assert files, f"no package sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                    + [node.args.vararg, node.args.kwarg])
        if arg is not None and arg.arg == "grid"
    ]
    assert found == [], f"functions with a grid parameter: {found}"


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.special"])
def test_cli_import_does_not_load_scipy_optimize(module):
    # Importing either module costs 0.2-0.35 s, about half of a CLI call's
    # set-up: the LP runs its own simplex, and sim imports scipy.special only
    # when it simulates, so that no other CLI path pays for them.
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    probe = f"import sys, causalprecode.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
