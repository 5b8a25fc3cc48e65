"""One integer rule, models._checked_integer, for every count, horizon,
window, index and seed the library takes: each entry refuses a bool, a
float and a string before any draw, with a ValueError naming the argument,
and takes a numpy integer as it takes the Python int."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from excusum import (
    ChangeSpec,
    ExCusumState,
    cesaro_kl_average,
    estimate_arl2fa,
    estimate_cadd,
    fourth_moment_check,
    run_detector,
    simulate_trials,
    slln_empirical,
    sum_dominance_check,
    tradeoff_curve,
)
from excusum import metrics
from excusum.process import NO_CHANGE, derive_seed, trial_generators

SRC = Path(__file__).resolve().parents[1] / "src" / "excusum"


def draws(rngs) -> list:
    return [rng.standard_normal(3) for rng in rngs]


#: name in the error, the call on (model, value), and a valid value
ENTRIES = {
    # seeds
    "simulate-seed": ("seed", lambda m, v: simulate_trials(m, "ex-cusum", 1.0, 5, 30, 3, v), 11),
    "arl-seed": ("seed", lambda m, v: estimate_arl2fa(m, "ex-cusum", 1.0, trials=3, horizon=60, seed=v), 11),
    "cadd-seed": ("seed", lambda m, v: estimate_cadd(m, "ex-cusum", 1.0, nu=5, trials=3, seed=v, horizon=40), 11),
    "tradeoff-seed": ("seed", lambda m, v: tradeoff_curve(m, [math.e], trials=3, seed=v, arl_trials=3), 11),
    "derive-seed": ("seed", lambda m, v: derive_seed(v, 0), 11),
    "derive-index": ("index", lambda m, v: derive_seed(0, v), 11),
    "generators-seed": ("seed", lambda m, v: draws(trial_generators(v, np.arange(2))), 11),
    "moment-seed": ("seed", lambda m, v: fourth_moment_check(m, trials=10, seed=v, ks=(1,)), 11),
    "slln-seed": ("seed", lambda m, v: slln_empirical(m, 16, trials=10, seed=v), 11),
    "dominance-seed": ("seed", lambda m, v: sum_dominance_check(m, 1, 2, 4, 10, seed=v), 11),
    # counts
    "simulate-trials": ("trials", lambda m, v: simulate_trials(m, "ex-cusum", 1.0, 5, 30, v, 11), 3),
    "arl-trials": ("trials", lambda m, v: estimate_arl2fa(m, "ex-cusum", 1.0, trials=v, horizon=60, seed=11), 3),
    "cadd-trials": ("trials", lambda m, v: estimate_cadd(m, "ex-cusum", 1.0, nu=5, trials=v, seed=11, horizon=40), 3),
    "tradeoff-trials": ("trials", lambda m, v: tradeoff_curve(m, [math.e], trials=v, seed=11, arl_trials=3), 3),
    "tradeoff-arl-trials": ("arl_trials", lambda m, v: tradeoff_curve(m, [math.e], trials=3, seed=11, arl_trials=v), 3),
    "moment-trials": ("trials", lambda m, v: fourth_moment_check(m, trials=v, seed=11, ks=(1,)), 10),
    "moment-k": (r"ks\[0\]", lambda m, v: fourth_moment_check(m, trials=10, seed=11, ks=(v,)), 2),
    "slln-n": ("n", lambda m, v: slln_empirical(m, v, trials=10, seed=11), 16),
    "slln-trials": ("trials", lambda m, v: slln_empirical(m, 16, trials=v, seed=11), 10),
    "dominance-k-small": ("k_small", lambda m, v: sum_dominance_check(m, v, 2, 4, 10, seed=11), 1),
    "dominance-k-large": ("k_large", lambda m, v: sum_dominance_check(m, 1, v, 4, 10, seed=11), 2),
    "dominance-n": ("n", lambda m, v: sum_dominance_check(m, 1, 2, v, 10, seed=11), 4),
    "dominance-trials": ("trials", lambda m, v: sum_dominance_check(m, 1, 2, 4, v, seed=11), 10),
    "cesaro-n-max": ("n_max", lambda m, v: cesaro_kl_average(m, v), 10),
    # change points, horizons and windows
    "simulate-nu": ("nu", lambda m, v: simulate_trials(m, "ex-cusum", 1.0, v, 30, 3, 11), 5),
    "simulate-horizon": ("horizon", lambda m, v: simulate_trials(m, "ex-cusum", 1.0, 5, v, 3, 11), 30),
    "simulate-window": ("window", lambda m, v: simulate_trials(m, "ex-cusum", 1.0, 5, 30, 3, 11, window=v), 4),
    "arl-horizon": ("horizon", lambda m, v: estimate_arl2fa(m, "ex-cusum", 1.0, trials=3, horizon=v, seed=11), 60),
    "cadd-nu": ("nu", lambda m, v: estimate_cadd(m, "ex-cusum", 1.0, nu=v, trials=3, seed=11, horizon=40), 5),
    "run-horizon": ("horizon", lambda m, v: run_detector("ex-cusum", m, [0.5] * 8, 9.0, v), 5),
    "run-window": ("window", lambda m, v: run_detector("ex-cusum", m, [0.5] * 8, 9.0, 8, window=v), 3),
    "state-window": ("window", lambda m, v: ExCusumState(window=v)._cands.limit, 50),
    "spec-nu": ("nu", lambda m, v: ChangeSpec(nu=v, horizon=10, seed=0), 5),
    "spec-horizon": ("horizon", lambda m, v: ChangeSpec(nu=NO_CHANGE, horizon=v, seed=0), 10),
    "spec-seed": ("seed", lambda m, v: ChangeSpec(nu=NO_CHANGE, horizon=10, seed=v), 11),
    # an index array: np.array([True]) is a bool array, np.array([1.5]) a float one
    "generators-index": ("trial index", lambda m, v: draws(trial_generators(11, np.array([v]))), 4),
}

NOT_INTEGERS = {"True": True, "np.True_": np.True_, "1.5": 1.5, "'7'": "7"}


def no_draws(model):
    """``model`` as an instance of a subclass whose draw hooks raise."""

    def refuse(self, *args):
        raise AssertionError("drew before the check")

    cls = type("NoDraws", (type(model),), {"block_sampler": refuse, "llr_sampler": refuse})
    return cls(**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)})


@pytest.mark.filterwarnings("error")  # refused before a horizon warning, too
@pytest.mark.parametrize("bad", list(NOT_INTEGERS.values()), ids=list(NOT_INTEGERS))
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_entry_refuses_a_non_integer_before_any_draw(entry, bad, arctan_model, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a lockstep run started before the check")

    monkeypatch.setattr(metrics, "_lockstep", no_run)
    name, call, _ = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        call(no_draws(arctan_model), bad)


def same(a, b) -> bool:
    """Equal records of one type: arrays bit for bit with one dtype, sequences
    entry by entry and dataclasses field by field, so a numpy integer kept
    where the Python int was given differs."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if dataclasses.is_dataclass(a):
        names = [f.name for f in dataclasses.fields(a)]
        return same([getattr(a, n) for n in names], [getattr(b, n) for n in names])
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.filterwarnings("ignore:horizon")
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_entry_takes_a_numpy_integer_as_the_python_int(entry, arctan_model):
    _, call, good = ENTRIES[entry]
    assert same(call(arctan_model, np.int64(good)), call(arctan_model, good))


def test_seeds_lie_below_two_to_the_64_everywhere():
    # derive_seed took 2**70 while trial_generators refused it
    assert derive_seed(2**64 - 1, 2**64 - 1) == derive_seed(np.uint64(2**64 - 1), np.uint64(2**64 - 1))
    calls = (lambda: derive_seed(2**70, 0), lambda: derive_seed(0, 2**64), lambda: trial_generators(2**64, np.arange(1)))
    for call in calls:
        with pytest.raises(ValueError, match=r"^(seed|index) must be an integer in \[0, 18446744073709551616\)"):
            call()


def _integer_checks(tree: ast.AST) -> list[int]:
    """Lines of isinstance(..., bool / int / np.integer) calls and of
    type(...) is (not) int comparisons, outside _checked_integer."""
    found = []

    def names(node) -> set[str]:
        nodes = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
        return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}

    def visit(node, inside: bool) -> None:
        inside = inside or (isinstance(node, ast.FunctionDef) and node.name == "_checked_integer")
        if not inside:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and names(node.args[1]) & {"bool", "int", "integer"}
            ):
                found.append(node.lineno)
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Name)
                and node.left.func.id == "type"
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(names(c) & {"bool", "int"} for c in node.comparators)
            ):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_checked_integer_is_the_one_integer_rule_outside_the_config():
    # config.py keeps its own, which raises ConfigError with the field path
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "config.py":
            lines = _integer_checks(ast.parse(path.read_text(encoding="utf-8")))
            if lines:
                offenders[path.name] = lines
    assert offenders == {}
    # the scan sees both forms, and the rule's own body is exempt
    probe = "def f(v):\n    return isinstance(v, bool) or type(v) is int\n"
    assert _integer_checks(ast.parse(probe)) == [2, 2]
    assert _integer_checks(ast.parse(probe.replace("def f", "def _checked_integer"))) == []
    assert _integer_checks(ast.parse((SRC / "config.py").read_text(encoding="utf-8")))
