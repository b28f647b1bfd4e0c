"""Count the code lines of each module of ``src/redhom`` and their total.

A code line is any line of a module that is not blank, not a comment
alone, and not part of a docstring (the string that opens a module, class
or function body).  Lines inside other strings count as code.

Run from the repository root: ``python tools/code_lines.py [package_dir]``.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree):
    """The line numbers spanned by every docstring of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the text of one module."""
    skipped = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if number not in skipped and line.strip() and not line.lstrip().startswith("#"))


def main(argv):
    package = Path(argv[1] if len(argv) > 1 else Path(__file__).parent.parent / "src" / "redhom")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    main(sys.argv)
