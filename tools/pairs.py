"""Compare the end-to-end metrics of two checkouts in alternating pairs.

    python3 tools/pairs.py PARENT CHANGE --pairs N [--workload W] [--seed S]

Runs ``perfbench/run.py --trace 0`` in both checkouts, with the run length
``run_seconds`` of CHANGE's ``BENCHMARK.json``, N times per workload (every
workload it declares, or W alone).  Both runs of pair i take seed S + i,
and the side that runs first alternates from pair to pair.  For each
workload and end-to-end metric it prints both sides' medians and quartiles,
how many pairs the change won (ties count for neither side), and a verdict
against the metric's bound, read as a fraction of the parent's median:

- ``better``: every change run reads better than every parent run;
- ``unresolved``: otherwise, when either side's quartile spread, as a
  fraction of the parent's median, is wider than the bound;
- ``worse``: otherwise, when the change's median is worse than the parent's
  by more than the bound;
- ``within bound``: otherwise.

Exits 1 when any run is not ``correct`` (or fails to run), else 0.  Stdlib
only; the checkouts need numpy, as the benchmark does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run, or an incorrect stand-in."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {}, "error": proc.stderr.strip()[-300:]}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by the inclusive (linear) rule."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool, bound: float) -> str:
    """The simplicity-review verdict of one metric on one workload."""
    # negated, a higher-is-better metric reads lower-is-better
    sign = 1.0 if lower_is_better else -1.0
    parent, change = [sign * v for v in parent], [sign * v for v in change]
    if max(change) < min(parent):
        return "better"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if max(p3 - p1, c3 - c1) > bound * abs(pm):
        return "unresolved"
    if cm - pm > bound * abs(pm):
        return "worse"
    return "within bound"


def summarize(end_to_end: list[dict], pairs: dict[str, list[tuple[dict, dict]]]) -> list[dict]:
    """One row per workload and end-to-end metric of BENCHMARK.json, from
    each workload's (parent, change) result pairs."""
    rows = []
    for workload, results in pairs.items():
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["metrics"][name]["value"] for p, _ in results]
            change = [c["metrics"][name]["value"] for _, c in results]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "parent": quartiles(parent),
                "change": quartiles(change),
                "wins": wins,
                "pairs": len(results),
                "verdict": verdict(parent, change, lower, metric["bound"]),
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':<14} {'metric':<12} {'parent median [q1-q3]':<36} {'change median [q1-q3]':<36} "
             f"{'wins':>7}  verdict"]
    for r in rows:
        sides = [f"{m:.6g} [{q1:.6g}-{q3:.6g}] {r['unit']}" for q1, m, q3 in (r["parent"], r["change"])]
        lines.append(f"{r['workload']:<14} {r['metric']:<12} {sides[0]:<36} {sides[1]:<36} "
                     f"{r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    args = parser.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}, expected one of {names}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    incorrect = 0
    for workload in [args.workload] if args.workload else names:
        for i in range(args.pairs):
            seed, result = args.seed + i, {}
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result[side] = run_once(getattr(args, side), workload, seed, declared["run_seconds"])
                if not result[side]["correct"]:
                    incorrect += 1
                    print(f"{workload} seed {seed} {side}: not correct ({result[side].get('failed')} failed) "
                          f"{result[side].get('error', '')}", file=sys.stderr)
            if result["parent"]["correct"] and result["change"]["correct"]:
                pairs.setdefault(workload, []).append((result["parent"], result["change"]))
    print(format_rows(summarize(declared["end_to_end"], pairs)))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
