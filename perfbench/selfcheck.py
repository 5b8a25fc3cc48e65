"""Determinism self-check, and every metric of every workload in one table.

    python3 perfbench/selfcheck.py [--seed N] [--fresh-seed M] [--workload NAME ...]

Per workload: two traced runs of seed N must give exactly the same counts;
an untraced run of N gives the end-to-end metrics; an untraced and a traced
run of a seed M that was not used while the benchmark was built must give
the same metric names and no failed operation.  Prints every metric by name
with its unit, and failed_frac; exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: per-layer metrics that are counts of work or functions of the outcomes,
#: so they must repeat exactly for one seed
EXACT = (
    "process.paths",
    "process.samples",
    "detectors.runs",
    "detectors.steps",
    "detectors.candidate_updates",
    "metrics.trials",
    "metrics.censored_frac",
    "metrics.accepted_frac",
    "conditions.draws",
)


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fresh-seed", type=int, default=987654)
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    args = parser.parse_args()
    seconds = declared["run_seconds"]
    problems = []
    for name in args.workload:
        traced = [bench(name, args.seed, 1, seconds) for _ in range(2)]
        plain = bench(name, args.seed, 0, seconds)
        fresh = [bench(name, args.fresh_seed, t, seconds) for t in (0, 1)]
        for key in EXACT:
            a, b = (r["metrics"][key]["value"] for r in traced)
            if a != b:
                problems.append(f"{name}: {key} differs between two runs of seed {args.seed}: {a} != {b}")
        for old, new in zip((plain, traced[0]), fresh):
            if old["metrics"].keys() != new["metrics"].keys():
                problems.append(f"{name}: seed {args.fresh_seed} reports other metric names")
        for r in (*traced, plain, *fresh):
            if r["failed"] or not r["correct"]:
                problems.append(f"{name}: {r['failed']} of {r['attempted']} operations failed")
        print(f"{name} (seed {args.seed})")
        for r in (plain, traced[0]):
            for key, m in r["metrics"].items():
                print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
        attempted = sum(r["attempted"] for r in (*traced, plain, *fresh))
        failed = sum(r["failed"] for r in (*traced, plain, *fresh))
        print(f"  {'failed_frac':<40} {failed / attempted:>16.6g} ratio  ({attempted} operations, 5 runs)")
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
