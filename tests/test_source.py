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


def test_only_sim_starts_threads():
    # Only `simulate`'s pool is measured to pay: a sweep at 2 workers lost to
    # 1 worker on every sweep measured.
    pools = ("concurrent", "threading")
    files = sorted(SRC.glob("*.py"))
    assert files, f"no package sources under {SRC}"
    found = sorted({
        path.name
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] in pools for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in pools
    })
    assert found == ["sim.py"], f"modules importing a thread pool: {found}"


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.special"])
def test_cli_import_does_not_load_scipy_optimize(module):
    # Importing either module costs 0.2-0.35 s, about half of a CLI call's
    # set-up: the LP runs its own simplex and sim draws its noise by
    # Box-Muller, so importing the CLI must pull in neither.
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


def test_no_cli_command_loads_scipy(tmp_path):
    # The package needs numpy alone: the LP runs its own simplex and sim draws
    # its noise by Box-Muller. Importing scipy would cost 0.2-0.35 s, about
    # half of a CLI call's set-up.
    spec = tmp_path / "binary.spec"
    spec.write_text("constellation = -1 1\ninterference_levels = -1 1\n"
                    "interference_probs = 0.5 0.5\nnoise_power = 0.1\n")
    code = tmp_path / "code.txt"
    calls = [["assign", str(spec), "--out", str(code)],
             ["simulate", str(spec), "--code", str(code), "--trials", "1000", "--workers", "2"],
             ["uniform", str(spec)], ["capacity", str(spec)], ["noisefree", str(spec)],
             ["sweep", str(spec), "--snr-db=0:10:10", "--with-ba"]]
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys; from causalprecode import cli\n"
        f"codes = [cli.run(argv) for argv in {calls!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"


def _top_level_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(statement index, name) of each function, class and constant the
    module defines at its top level."""
    found = []
    for k, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((k, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(k, t.id) for t in targets if isinstance(t, ast.Name)]
    return found


def test_every_top_level_name_is_used():
    # A refactor that leaves a helper, class or constant behind with no
    # caller fails here: each must be referenced in the package (by name or
    # as a module attribute, outside its own definition) or exported by
    # __init__.py.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no package sources under {SRC}"
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = {}  # name -> the (module, statement index) pairs that use it
    for name, tree in trees.items():
        for k, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                ref = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                       else node.attr if isinstance(node, ast.Attribute) else None)
                if ref is not None:
                    used.setdefault(ref, set()).add((name, k))
    orphans = [
        f"{name}:{defined}"
        for name, tree in trees.items()
        for k, defined in _top_level_names(tree)
        if defined != "__all__" and defined not in exported
        and not used.get(defined, set()) - {(name, k)}
    ]
    assert orphans == [], f"top-level names nothing uses: {orphans}"
