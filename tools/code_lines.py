#!/usr/bin/env python
"""Count the code lines of Python files: no blanks, comments or docstrings.

A line counts when it holds a token other than a comment or whitespace, and
that token is not part of a module, class or function docstring.  Every
line a multi-line token spans counts, so a triple-quoted string that is not
a docstring counts in full.  The count reads the source with the stdlib
:mod:`tokenize` and :mod:`ast` modules only.

Prints one ``<count>  <path>`` line per file, then the total.  Directories
are searched for ``*.py`` files.  Run from the repository root, e.g.
``python tools/code_lines.py src/repro/experiments src/repro/analysis/tables.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that never make a line count on their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_Span = tuple[tuple[int, int], tuple[int, int]]


def _docstring_spans(tree: ast.Module) -> list[_Span]:
    """Return the ``(start, end)`` positions of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            end = (first.end_lineno or first.lineno, first.end_col_offset or 0)
            spans.append(((first.lineno, first.col_offset), end))
    return spans


def count_code_lines(source: str) -> int:
    """Return the number of code lines in one module's ``source``."""
    spans = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if any(start <= token.start and token.end <= end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    """Expand files and directories into the sorted ``*.py`` files they name."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        files.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(files)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
