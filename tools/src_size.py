"""Print the size of the package source: lines and ast statements per module,
how many public names ``excusum.__all__`` lists, and which package modules
``import excusum.cli`` loads.

Lines are newline characters; statements are the nodes of the module's
syntax tree that are ``ast.stmt`` instances, nested ones included.  The
public names are read off the ``_EXPORTS`` table of the package's
``__init__.py`` (``__all__`` is its sorted names) without importing it.  The
modules the CLI loads are read from one child interpreter that imports
``excusum.cli`` from ``src/``; every command loads these, and ``verify``,
``demo`` and ``tradeoff`` import what they alone run inside the command.
These are the counts the ROADMAP tracks for ``src/``.

    python3 tools/src_size.py

Stdlib only; the child interpreter needs numpy, as the package does.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path


def module_size(path: Path) -> tuple[int, int]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return text.count("\n"), sum(isinstance(node, ast.stmt) for node in ast.walk(tree))


def public_names(path: Path) -> int:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return sum(len(names) for names in ast.literal_eval(node.value).values())
    raise SystemExit(f"{path} assigns no _EXPORTS")


def cli_modules(root: Path) -> list[str]:
    """The excusum.* modules in sys.modules after ``import excusum.cli``."""
    code = "import sys, excusum.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'excusum'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return proc.stdout.split()


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
    print("import excusum.cli loads:", " ".join(cli_modules(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
