"""``tools/linecount.py`` counts code lines without docstrings, comments or blanks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("linecount", Path(__file__).parents[1] / "tools" / "linecount.py")
linecount = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(linecount)

SNIPPET = '''"""Module docstring,
two lines."""

import os  # a comment


def f(x):
    """One-line docstring."""
    # a comment line
    text = """a string that
is not a docstring"""
    return (x +
            1)
'''


def test_counts_code_and_physical_lines():
    # code: import, def, the two lines of ``text`` and the two of the return
    assert linecount.count(SNIPPET) == (6, 13)
