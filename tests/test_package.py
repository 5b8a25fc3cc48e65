"""Package surface: every public name resolves lazily from its module."""

import importlib
import sys

import pytest

import excusum


def test_every_public_name_resolves_and_star_import_binds_it():
    assert len(excusum.__all__) == 42 == len(set(excusum.__all__))
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
