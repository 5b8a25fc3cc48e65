"""Record the benchmark's end-to-end metrics for the committed code.

    python3 tools/record_bench.py

Runs ``perfbench/run.py --trace 0`` once per workload and seed, with the
workloads, the end-to-end metrics and the run length that BENCHMARK.json
declares, and writes BENCH_<short rev>.json at the root of the repository:
per workload and metric the median, the quartiles and the raw values, with
the machine, the Python and numpy versions and the size of ``src/``.  It
refuses to run while tracked files differ from HEAD, so the file names
exactly the code it measured, and exits nonzero when a run fails or reports
a wrong result.

Stdlib only.
"""

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from src_size import module_size

ROOT = Path(__file__).resolve().parent.parent
#: one run per seed and workload; five give the median and both quartiles
SEEDS = (201, 202, 203, 204, 205)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] > 0:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations\n{proc.stdout}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def src_size() -> dict:
    sizes = [module_size(path) for path in sorted((ROOT / "src").rglob("*.py"))]
    return {"lines": sum(lines for lines, _ in sizes), "statements": sum(stmts for _, stmts in sizes)}


def main() -> int:
    if git("status", "--porcelain", "--untracked-files=no"):
        print("record_bench.py: tracked files have uncommitted changes; commit them first", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in bench["end_to_end"]]
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        try:
            runs = [run_once(workload, seed, bench["run_seconds"]) for seed in SEEDS]
        except RuntimeError as exc:
            print(f"record_bench.py: {exc}", file=sys.stderr)
            return 1
        workloads[workload] = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in metrics}
        print(workload, {m: round(workloads[workload][m]["median"], 4) for m in metrics}, flush=True)
    rev = git("rev-parse", "--short", "HEAD")
    record = {
        "rev": rev,
        "command": bench["command"] + ["--trace", "0"],
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "src": src_size(),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{rev}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
