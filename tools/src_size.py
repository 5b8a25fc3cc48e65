"""Print the size of the package source: lines and ast statements per module,
and how many public names ``excusum.__all__`` lists.

Lines are newline characters; statements are the nodes of the module's
syntax tree that are ``ast.stmt`` instances, nested ones included.  The
public names are read off the ``__all__`` assignment of the package's
``__init__.py`` without importing it.  These are the counts the ROADMAP
tracks for ``src/``.

    python3 tools/src_size.py

Stdlib only.
"""

import ast
import sys
from pathlib import Path


def module_size(path: Path) -> tuple[int, int]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return text.count("\n"), sum(isinstance(node, ast.stmt) for node in ast.walk(tree))


def public_names(path: Path) -> int:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    raise SystemExit(f"{path} assigns no __all__")


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src"
    total_lines = total_stmts = 0
    print(f"{'lines':>6} {'stmts':>6}  module")
    for path in sorted(root.rglob("*.py")):
        lines, stmts = module_size(path)
        total_lines += lines
        total_stmts += stmts
        print(f"{lines:>6} {stmts:>6}  {path.relative_to(root).as_posix()}")
    print(f"{total_lines:>6} {total_stmts:>6}  total")
    print(f"{public_names(root / 'excusum' / '__init__.py')} names in excusum.__all__")
    return 0


if __name__ == "__main__":
    sys.exit(main())
