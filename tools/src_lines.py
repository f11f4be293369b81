"""Count the lines and the code lines of each module of a package.

    python3 tools/src_lines.py [DIR]

DIR defaults to src/mobius_bounds.  For each *.py file in DIR (not its
subdirectories) one line is printed with the module's name, its lines and
its code lines, then one with the totals.  A code line is one that is not
blank, not a comment only, and not inside the docstring of the module, of
a class or of a function.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "mobius_bounds"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers covered by each module, class and function docstring."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, kinds) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else DEFAULT
    rows = [(path.stem, *count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
