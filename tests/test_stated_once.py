"""Each input rule is stated once in ``src/refscan``: the kind rule
(``config.kind_error``) is the one place that tells a bool from a number,
and ``formats.json_object`` the one decode that catches a ``RecursionError``."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "refscan"


def sites(test) -> list[str]:
    """``file:line`` of every node of ``src/refscan`` for which ``test`` holds."""
    return [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if test(node)
    ]


def is_bool_test(node) -> bool:
    """``isinstance(x, bool)``, or ``bool`` among a tuple of classes."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
    )


def test_only_the_kind_rule_tells_a_bool_from_a_number():
    assert [site for site in sites(is_bool_test) if not site.startswith("config.py:")] == []


def test_one_decode_catches_deep_nesting():
    found = sites(lambda node: isinstance(node, ast.Name) and node.id == "RecursionError")
    assert len(found) == 1, found
