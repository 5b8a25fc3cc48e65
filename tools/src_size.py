"""Print the size of the package source: lines and ast statements per module,
how many public names ``excusum.__all__`` lists, how many parameter and
field defaults the package declares, and which package modules
``import excusum.cli`` loads.

Lines are newline characters; statements are the nodes of the module's
syntax tree that are ``ast.stmt`` instances, nested ones included.  The
public names are read off the ``_EXPORTS`` table of the package's
``__init__.py`` (``__all__`` is its sorted names) without importing it.  The
defaults are those ``defaults`` finds: every default of a function's
parameters and every default of a ``NamedTuple`` or dataclass field, apart
from ``init=False`` fields, which no caller can set;
``tests/test_package.py`` requires a call outside the unit tests to set
each one.  The modules the CLI loads are read from one child interpreter that imports
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
from typing import NamedTuple


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


class Default(NamedTuple):
    """One default: ``where`` names it (``module:owner.name``), and a call to
    one of ``callees`` sets it by the keyword ``name`` or, when ``position``
    is not None, by that many positional arguments and one more."""

    where: str
    name: str
    callees: frozenset
    position: int | None


def _is_record(node: ast.ClassDef) -> bool:
    bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
    decorators = {ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}
    return "NamedTuple" in bases or bool(decorators & {"dataclass", "dataclasses.dataclass"})


def _kw_only(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and any(k.arg == "kw_only" and ast.literal_eval(k.value) for k in d.keywords)
        for d in node.decorator_list
    )


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False for k in value.keywords
    )


def defaults(root: Path) -> list[Default]:
    """Every parameter default and record field default of the modules under
    ``root``.  A function is set through a call of its name; ``__init__`` and
    a record's fields through a call of the class or of a subclass defined
    under ``root``, whose own fields come after its base's.  A method's
    positions start after ``self`` or ``cls``."""
    trees = {p.relative_to(root).as_posix(): ast.parse(p.read_text(encoding="utf-8")) for p in root.rglob("*.py")}
    classes = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    subclasses = {c.name: {c.name} for c in classes}
    for _ in classes:  # close the relation over chains of subclasses
        for c in classes:
            for b in c.bases:
                if isinstance(b, ast.Name) and b.id in subclasses:
                    subclasses[b.id] |= subclasses[c.name]
    found = []

    def visit(node: ast.AST, module: str, owner: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_record(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    fields = [s for s in fields if s.value is None or not _init_false(s.value)]
                    callees = frozenset(subclasses[child.name])
                    for i, s in enumerate(fields):
                        if s.value is not None:
                            where, position = f"{module}:{child.name}.{s.target.id}", None if _kw_only(child) else i
                            found.append(Default(where, s.target.id, callees, position))
                visit(child, module, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                skip = 1 if owner is not None and not static else 0
                if owner is not None and child.name == "__init__":
                    callees = frozenset(subclasses[owner.name])
                else:
                    callees = frozenset({child.name})
                label = f"{module}:{owner.name + '.' if owner is not None else ''}{child.name}"
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    found.append(Default(f"{label}({positional[i].arg})", positional[i].arg, callees, i - skip))
                for arg, value in zip(args.kwonlyargs, args.kw_defaults):
                    if value is not None:
                        found.append(Default(f"{label}({arg.arg})", arg.arg, callees, None))
                visit(child, module, None)
            else:
                visit(child, module, owner)

    for module, tree in sorted(trees.items()):
        visit(tree, module, None)
    return found


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
    print(f"{len(defaults(root))} parameter and field defaults")
    print("import excusum.cli loads:", " ".join(cli_modules(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
