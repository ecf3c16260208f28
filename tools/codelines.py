"""Count the code lines of each module of ``src/cathom``.

A code line is a line that is not blank, not a comment, and not part of a
docstring: the leading string constant of a module, class or function
body, as ``ast`` finds it.  Prints one line per module and the total.

    python3 tools/codelines.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "cathom"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers every docstring in the tree spans."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1 for n, line in enumerate(source.splitlines(), 1)
        if n not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else DEFAULT
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
