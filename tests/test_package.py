"""Package surface: every public name resolves lazily from its module, and
something beside the unit tests uses it."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import excusum

ROOT = Path(__file__).resolve().parents[1]

#: the files whose reads count as a use of a public name: the package
#: (a command runs it) without __init__.py, which lists every name, the
#: benchmark, the tools, and the acceptance criteria with their oracle
USERS = (
    [path for path in sorted((ROOT / "src" / "excusum").glob("*.py")) if path.name != "__init__.py"]
    + sorted((ROOT / "perfbench").glob("*.py"))
    + sorted((ROOT / "tools").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "brute_force.py"]
)


def test_every_public_name_resolves_and_star_import_binds_it():
    assert len(excusum.__all__) == 38 == len(set(excusum.__all__))
    for name in excusum.__all__:
        module = importlib.import_module(f"excusum.{excusum._MODULE_OF[name]}")
        assert getattr(excusum, name) is getattr(module, name)
    namespace = {}
    exec("from excusum import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == excusum.__all__
    assert set(excusum.__all__) <= set(dir(excusum))


def test_submodules_resolve_as_attributes_and_unknown_names_do_not():
    for name in ("cli", "conditions", "config", "detectors", "metrics", "models", "numerics", "process", "svgplot"):
        assert getattr(excusum, name) is sys.modules[f"excusum.{name}"]
    with pytest.raises(AttributeError, match="no attribute 'line_chart'"):
        excusum.line_chart


def read_names(tree: ast.AST) -> set[str]:
    """The names a module reads, as an ast.Name, an ast.Attribute or an
    imported name, outside the def or class of that name itself."""
    found = set()

    def visit(node, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        read = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if read is not None:
            name = getattr(node, read).rpartition(".")[2]
            if name not in inside:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_public_name_is_used_beyond_the_unit_tests():
    used = set().union(*(read_names(ast.parse(path.read_text(encoding="utf-8"))) for path in USERS))
    assert sorted(set(excusum.__all__) - used) == []
    # a name counts outside its own body only, and an import alias counts
    probe = ast.parse("def f(x):\n    return f(x)\n\ndef g():\n    from m import h\n    return m.k, f\n")
    assert read_names(probe) == {"f", "h", "k", "m", "x"}
    assert read_names(ast.parse("def f(x):\n    return f(x)\n")) == {"x"}
