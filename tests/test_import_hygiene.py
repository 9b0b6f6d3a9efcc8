"""Every name a library module imports is used there, or is a binding the
benchmark's tracer rebinds at that module and is marked ``# noqa: F401``.

The check reads the source with ``ast``: an imported name counts as used when
it appears as a name anywhere in the module, annotations included.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "lscert").glob("*.py") if p.name != "__init__.py")
NOQA = "# noqa: F401"


def _traced_table() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def imports(path: Path) -> list[tuple[str, str, bool, int]]:
    """(bound name, home module, marked noqa, line) of every import in the module;
    the home is the module imported from, '' for a plain ``import``."""
    lines = path.read_text().splitlines()
    tree = ast.parse(path.read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            home = node.module or ""
        elif isinstance(node, ast.Import):
            home = ""
        else:
            continue
        noqa = any(NOQA in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            out.append((bound, home, noqa, node.lineno))
    return out


def used_names(path: Path) -> set[str]:
    return {node.id for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_unmarked_import_is_used(path):
    used = used_names(path)
    unused = [(name, line) for name, _, noqa, line in imports(path)
              if not noqa and name not in used]
    assert not unused, f"{path.name}: unused imports (name, line) {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_marked_import_is_a_traced_binding(path):
    traced = _traced_table()
    for name, home, noqa, line in imports(path):
        if noqa:
            key = f"{home.rsplit('.', 1)[-1]}.{name}"
            assert path.stem in traced.get(key, ()), (
                f"{path.name}:{line} keeps {name} under {NOQA}, but the tracer does not "
                f"rebind {key} at {path.stem}")


def test_the_check_sees_an_unused_import(tmp_path):
    # the two tests above read these helpers; a blind helper would pass anything
    module = tmp_path / "m.py"
    module.write_text("from .a import b, c  # noqa: F401\nimport numpy as np\n"
                      "from .d import (e,\n    f)\n\nx: e = f(1)\n")
    assert [(n, h, q) for n, h, q, _ in imports(module)] == [
        ("b", "a", True), ("c", "a", True), ("np", "", False), ("e", "d", False),
        ("f", "d", False)]
    assert used_names(module) >= {"e", "f"} and "np" not in used_names(module)
