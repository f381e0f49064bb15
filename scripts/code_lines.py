"""Count the code lines of each module of the ``dualkit`` package.

Run from the repository root:

    python3 scripts/code_lines.py [directory]

A code line is a physical line that holds a token of code: blank lines,
lines with only a comment and the lines of docstrings (of a module, a
class or a function) do not count, while every line of an expression
that spans several lines does.  Lines are read with ``tokenize`` and
docstrings found with ``ast``.  The script prints the count of each
``*.py`` file under ``directory`` (default ``src/dualkit``), by path,
and their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dualkit"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef,
                  ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set:
    """The (line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of the Python source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_package(root: Path) -> dict:
    """{path relative to root: code lines} for every module under root."""
    return {path.relative_to(root).as_posix(): code_lines(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else PACKAGE
    counts = count_package(root)
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
