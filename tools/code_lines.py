"""Count the code lines of Python sources.

A code line is a line that holds part of a token other than a comment,
leaving out blank lines, comment lines and the lines of module, class and
function docstrings.

    python tools/code_lines.py src/vogrid

prints one line per file, then the total. Uses only the standard library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_files(paths: list[str | Path]) -> dict[Path, int]:
    """Code lines by file, for each file named and each .py file under each
    directory named, in that order."""
    files = []
    for arg in paths:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return {path: code_lines(path.read_text(encoding="utf-8")) for path in files}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    counts = count_files(argv)
    for path, n in counts.items():
        print(f"{n:6d}  {path}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
