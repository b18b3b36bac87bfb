"""Print the lines and code lines of each module of a package.

Code lines are the non-blank lines that are not comments and lie
outside docstrings; docstrings are found with `ast`.  The script only
prints; it gates nothing.

    python3 tools/source_size.py [PACKAGE_DIR]    # default: src/phcalc
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings of the module, its classes and functions span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one module."""
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = source.splitlines()
    code = sum(
        1 for k, line in enumerate(lines, 1)
        if k not in skip and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main(root: str = "src/phcalc") -> None:
    total = [0, 0]
    print(f"{'module':<20}{'lines':>8}{'code':>8}")
    for path in sorted(Path(root).glob("*.py")):
        lines, code = size(path)
        total[0] += lines
        total[1] += code
        print(f"{path.stem:<20}{lines:>8}{code:>8}")
    print(f"{'total':<20}{total[0]:>8}{total[1]:>8}")


if __name__ == "__main__":
    main(*sys.argv[1:])
