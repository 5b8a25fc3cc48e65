"""The summary of tools/pairs.py on fixed numbers, without running the benchmark."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05},
]


def result(wall_s: float, rate: float) -> dict:
    return {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": wall_s}, "rate": {"value": rate}}}


def rows_of(parent, change) -> dict:
    rows = pairs.summarize(END_TO_END, {"w": [(result(*p), result(*c)) for p, c in zip(parent, change)]})
    return {r["metric"]: r for r in rows}


def test_quartiles_are_the_inclusive_rule():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_every_change_run_better_than_every_parent_run_reads_better():
    # a wide spread does not hide a change that beats every parent run
    rows = rows_of([(1.0, 100.0), (2.0, 101.0), (3.0, 102.0)], [(0.5, 200.0), (0.9, 300.0), (0.1, 250.0)])
    assert [rows[m]["verdict"] for m in ("wall_s", "rate")] == ["better", "better"]
    assert rows["wall_s"]["wins"] == 3 and rows["wall_s"]["pairs"] == 3
    assert rows["wall_s"]["parent"] == (1.5, 2.0, 2.5) and rows["wall_s"]["change"] == (0.3, 0.5, 0.7)


def test_a_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 0.9-1.3 around 1.0: a 0.4 spread against a 0.25 bound
    parent = [(0.8, 100.0), (0.9, 100.0), (1.0, 100.0), (1.3, 100.0), (1.4, 100.0)]
    change = [(0.85, 100.0), (1.0, 100.0), (1.05, 100.0), (1.1, 100.0), (2.0, 100.0)]
    rows = rows_of(parent, change)
    assert rows["wall_s"]["verdict"] == "unresolved"
    assert rows["wall_s"]["wins"] == 1
    # equal rates: no win, no spread, no worsening
    assert (rows["rate"]["verdict"], rows["rate"]["wins"]) == ("within bound", 0)


def test_worse_and_within_bound_read_the_bound_as_a_fraction_of_the_parent():
    # wall_s medians 1.0 -> 1.3 (30% > 25%); rates 100 -> 96 (4% < 5%)
    parent = [(0.99, 100.0), (1.0, 100.5), (1.01, 99.5)]
    change = [(1.29, 96.0), (1.3, 96.5), (1.31, 95.5)]
    rows = rows_of(parent, change)
    assert (rows["wall_s"]["verdict"], rows["rate"]["verdict"]) == ("worse", "within bound")
    # a rate falling by 6% is worse: the bound holds for higher-is-better too
    rows = rows_of(parent, [(1.2, 94.0), (1.2, 94.5), (1.2, 93.5)])
    assert (rows["wall_s"]["verdict"], rows["rate"]["verdict"]) == ("within bound", "worse")
    assert rows["rate"]["wins"] == 0


def test_the_table_names_every_row():
    rows = pairs.summarize(END_TO_END, {"delay": [(result(1.0, 2.0), result(0.5, 3.0))]})
    text = pairs.format_rows(rows).splitlines()
    assert len(text) == 3 and text[1].startswith("delay") and text[1].endswith("1/1    better")
