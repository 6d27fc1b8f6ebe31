#!/usr/bin/env python
"""Count the code lines of Python source files.

A code line is a physical line that carries at least one token other than
a comment, and that lies outside every docstring (module, class and
function). Blank lines, comment-only lines and docstring lines do not
count; a multi-line string that is not a docstring counts on every line it
spans. This is the size measure the simplicity changes in CHANGES.md and
ROADMAP.md report.

Usage::

    python scripts/code_lines.py FILE [FILE ...]

Prints one ``count  path`` line per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

#: tokens that never make a line count as code.
_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python scripts/code_lines.py FILE [FILE ...]", file=sys.stderr)
        return 2
    total = 0
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
