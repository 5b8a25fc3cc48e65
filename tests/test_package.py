"""Package surface: every public name resolves lazily from its module, and
something beside the unit tests uses it; so does every default."""

import ast
import importlib
import importlib.util
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


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: defaults no call in USERS needs to set, each with its reason
UNSET_DEFAULTS = {
    # numpy's ISeedSequence signature, which numpy itself calls
    "excusum/process.py:_SeedWords.generate_state(dtype)": "numpy's ISeedSequence.generate_state signature",
}


def calls_by_name(tree: ast.AST) -> dict[str, list[ast.Call]]:
    """The calls of a module by the last name of what they call; ``cls(...)``
    inside a class body is a call of that class."""
    found = {}

    def visit(node, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found.setdefault(owner if name == "cls" and owner else name, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def sets(default, call: ast.Call) -> bool:
    """Whether ``call`` may set ``default``: by its keyword or ``**``, or by
    enough positional arguments or a ``*`` among them."""
    if any(k.arg in (None, default.name) for k in call.keywords):
        return True
    return default.position is not None and (
        len(call.args) > default.position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def unset(defaults, calls: dict[str, list[ast.Call]]) -> set[str]:
    """The ``where`` of every default that no call of ``calls`` sets."""
    return {d.where for d in defaults} - {
        d.where for d in defaults if any(sets(d, c) for callee in d.callees for c in calls.get(callee, ()))
    }


def test_every_default_is_set_beyond_the_unit_tests():
    # an option that only the unit tests set does nothing for a command, a
    # criterion or the benchmark: it is a constant, or it goes
    src_size = load_tool("src_size")
    defaults = src_size.defaults(ROOT / "src")
    calls = {}
    for path in USERS:
        for name, found in calls_by_name(ast.parse(path.read_text(encoding="utf-8"))).items():
            calls.setdefault(name, []).extend(found)
    assert sorted(unset(defaults, calls) - set(UNSET_DEFAULTS)) == []
    assert set(UNSET_DEFAULTS) <= {d.where for d in defaults}
    # a keyword, a position past the default's, a star or cls(...) sets it;
    # too few positions, or a call of another name, does not
    probe = [src_size.Default("f(b)", "b", frozenset({"f"}), 1), src_size.Default("C.x", "x", frozenset({"C"}), None)]
    for text, left in [
        ("f(1, b=2)", {"C.x"}),
        ("f(1, 2)", {"C.x"}),
        ("f(*xs)", {"C.x"}),
        ("f(**kw)", {"C.x"}),
        ("f(1)\ng(1, 2)\nC(1)", {"f(b)", "C.x"}),
        ("class C:\n    def make(cls):\n        return cls(x=1)\n", {"f(b)"}),
    ]:
        assert unset(probe, calls_by_name(ast.parse(text))) == left, text
