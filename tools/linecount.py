"""Count the code lines and the physical lines of the Python files under a
directory.

A code line holds at least one token that is not a comment and not part of
a docstring (the first string statement of a module, class or function).
Blank lines are neither. A statement spread over several lines counts each
of them.

    python3 tools/linecount.py src
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code lines, physical lines) of one file's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(code), len(source.splitlines())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: linecount.py DIRECTORY", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total_code = total_physical = 0
    for path in sorted(root.rglob("*.py")):
        code, physical = count(path.read_text("utf-8"))
        total_code += code
        total_physical += physical
        print(f"{code:6d} {physical:6d}  {path.relative_to(root)}")
    print(f"{total_code:6d} {total_physical:6d}  total (code, physical)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
