"""Benchmark of the excusum CLI: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
workload's CLI configs are generated from --seed into .perfbench_out/, and
every command runs closed loop (one at a time) in a fresh single-threaded
interpreter.  With --trace 0 the result holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced replay.  In both modes every CLI
output is compared byte for byte with the replay's, and a seeded sample of
trials with the O(n^2) oracle; disagreements count as failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, write_configs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: each worker must end well inside the 180 s a run may take
WORKER_TIMEOUT_S = 150
#: BLAS and OpenMP pools pinned to one thread on a 2-core machine
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args: list[str], result: Path) -> dict:
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, str(result)],
            cwd=ROOT,
            env=worker_env(),
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def failures(cli: list[dict], replay: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over CLI commands and oracle checks."""
    messages = []
    for j, (run, expected) in enumerate(zip(cli, replay["expected"])):
        if run["exit"] != expected["exit"]:
            messages.append(f"command {j}: exit {run['exit']!r}, replay expects {expected['exit']}")
        elif not expected["match"]:
            messages.append(f"command {j}: output differs from the replay's")
    for check in replay["oracle"]:
        if check["verdict"] not in ("agree", "inconclusive"):
            messages.append(f"command {check['command']} trial {check['trial']}: {check['verdict']}")
    return len(cli) + len(replay["oracle"]), len(messages), messages


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[list, dict, dict]:
    """Run the workload; returns (CLI results, replay result, metrics)."""
    work = ROOT / ".perfbench_out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = write_configs(workload, seed, seconds, work)
    jobs_path = work / "jobs.json"
    jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
    # untraced, every command gets a fresh interpreter, as on a command line
    cli = [] if trace else [
        spawn(["cli", workload.command, job["config"], job["cli_out"]], work / "cli.json") for job in jobs
    ]
    replay = spawn(["replay", workload.name, str(seed), str(int(trace)), str(jobs_path)], work / "replay.json")
    if trace:
        cli = replay["cli"]
        walls = sum(c["wall_s"] for c in cli)
        metrics = dict(replay["layers"])
        metrics["trace.overhead_frac"] = (sum(replay["traced_walls"]) - walls) / walls
    else:
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in cli),
            "wall_s": statistics.fmean(c["wall_s"] for c in cli),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in cli),
        }
    return cli, replay, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "excusum" / "cli.py").is_file():
        print(f"run.py: no excusum sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        cli, replay, metrics = measure(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if units.keys() != metrics.keys():
        print(f"run.py: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    attempted, failed, messages = failures(cli, replay)
    for message in messages:
        print(f"FAILED {message}")
    inconclusive = sum(c["verdict"] == "inconclusive" for c in replay["oracle"])
    print(
        f"{workload.name}: {len(cli)} x `excusum {workload.command}`, "
        f"oracle {len(replay['oracle'])} trials ({inconclusive} inconclusive)"
    )
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<40} {failed / attempted:>16.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
