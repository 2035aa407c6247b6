"""No test module imports another. What more than one of them reads lives
in a helper module: ``cases.py``, ``composed.py``, ``replica.py`` or the
fixtures of ``conftest.py``."""

from __future__ import annotations

import ast
from pathlib import Path


def imported_names(path: Path) -> set[str]:
    """Every dotted part of every module a file imports, and each name a
    ``from`` import takes, which may be a module too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_no_test_module_imports_another():
    tests = sorted(Path(__file__).parent.glob("test_*.py"))
    assert len(tests) > 20
    importing = {path.name: sorted(n for n in imported_names(path) if n.startswith("test_")) for path in tests}
    assert {name: found for name, found in importing.items() if found} == {}
