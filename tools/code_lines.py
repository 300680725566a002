"""Count the code lines of each Python module in a directory, and their total.

A code line is a physical line that holds part of a token other than a
comment, a newline or indentation, and is not part of the docstring of a
module, class or function.  Blank lines, comments and docstrings are left
out, so the count moves only with the code itself.

Usage:

    python tools/code_lines.py src/diagprod
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {"COMMENT", "NL", "NEWLINE", "INDENT", "DEDENT", "ENCODING", "ENDMARKER"}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            if isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def token_lines(source: str) -> set[int]:
    """The line numbers that hold part of a token other than layout."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tokenize.tok_name[tok.type] not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def code_lines(source: str) -> int:
    return len(token_lines(source) - docstring_lines(source))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    counts = {f.name: code_lines(f.read_text()) for f in sorted(Path(argv[0]).glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
