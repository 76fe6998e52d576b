"""Count the code lines of each module of a package: every line but blank
ones, comment-only ones and those of a module, class or function docstring.

Prints one "count path" line per module and the total, for the size aim of
ROADMAP.md.

Usage:
    python scripts/code_lines.py [PACKAGE_DIR]    (default: src/hrnr)
"""

import ast
import pathlib
import sys

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The code lines of one module's source ``text``."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docs and line.strip() and not line.strip().startswith("#"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0] if args else pathlib.Path(__file__).parent.parent / "src" / "hrnr")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
