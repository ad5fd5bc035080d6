"""Count lines of code in Python files: no docstrings, comments or blank lines.

A line counts when a token other than a comment or layout sits on it,
outside the docstring of a module, class or function.  A multi-line
string that is not a docstring counts every line it spans.

    python tools/loc.py src/quartic_lab/*.py

prints one count per file and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source):
    """Number of code lines in Python source text."""
    skip = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main(paths):
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = count_code_lines(fh.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
