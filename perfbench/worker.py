"""One fresh interpreter of a benchmark run; the orchestrator spawns it.

    worker.py cli COMMAND CONFIG OUT RESULT
        import excusum.cli, load CONFIG and build its model (the set-up), then
        run `excusum COMMAND --config CONFIG --out OUT` through
        excusum.cli.main, untraced; report both times and the peak resident
        memory of the process.
    worker.py replay WORKLOAD SEED TRACE JOBS RESULT
        replay every job's command as the public calls it makes, compare the
        files with the CLI's, and run the oracle on a seeded sample of
        trials.  Traced (TRACE 1), each job's CLI command runs just before
        its traced replay, so drift in machine speed hits both sides of the
        tracing overhead alike, and the per-step probes run last.

RESULT receives one JSON object.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def set_up(config_path: str) -> float:
    import excusum.cli  # noqa: F401
    from excusum.config import ExperimentConfig

    ExperimentConfig.from_file(config_path).model.build()
    return time.perf_counter() - _START


def run_cli(command: str, config: str, out: str) -> dict:
    from excusum.cli import main

    argv = [command, "--config", config, "--out", out]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # keep verdict lines out of the report
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    return {"wall_s": time.perf_counter() - start, "exit": code}


def same_files(names: list[str], expected: Path, actual: Path) -> bool:
    try:
        return all((expected / n).read_bytes() == (actual / n).read_bytes() for n in names)
    except OSError:
        return False


def replay_all(workload, seed: int, traced: bool, jobs: list[dict]) -> dict:
    import oracle
    import probes
    import replay
    from excusum.config import ExperimentConfig
    from excusum.process import ChangeSpec, derive_seed, generate_path

    tracer = replay.Tracer() if traced else replay.NullTracer()
    results, cli = [], []
    for job in jobs:
        if traced:
            cli.append(run_cli(workload.command, job["config"], job["cli_out"]))
        out = Path(job["expected_out"])
        if workload.command == "verify":
            r = replay.replay_verify(tracer, job["config"], out)
        else:
            r = replay.replay_trials(tracer, workload.command, job["config"], out)
        r["match"] = same_files(r["files"], out, Path(job["cli_out"]))
        results.append(r)

    # the oracle recomputes a seeded sample of (command, trial) pairs
    picks = [(j, i) for j in range(len(jobs)) for i in range(workload.trials)] if workload.oracle_trials else []
    picks = random.Random(f"{workload.name}:{seed}").sample(picks, min(workload.oracle_trials, len(picks)))
    checks = []
    for j, i in sorted(picks):
        cfg = ExperimentConfig.from_file(jobs[j]["config"])
        model = cfg.model.build()
        nu = int(cfg.run.nu) if workload.command == "cadd" else cfg.run.nu
        horizon = results[j]["horizon"]
        xs = generate_path(model, ChangeSpec(nu=nu, horizon=horizon, seed=derive_seed(cfg.run.seed, i))).samples
        tau, censored_at = results[j]["outcomes"][i]
        verdict = oracle.check(
            cfg.detector.kind, model.schedule.means(horizon), xs, cfg.detector.threshold_value, tau, censored_at
        )
        checks.append({"command": j, "trial": i, "verdict": verdict})

    out = {
        "expected": [{"exit": r["exit"], "match": r["match"]} for r in results],
        "oracle": checks,
        "counts": {},
        "cli": cli,
    }
    for r in results:
        for key, value in r["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
    if traced:
        out["layers"] = layer_metrics(tracer, out["counts"], len(jobs))
        out["traced_walls"] = tracer.durations("cli.command")
        first = ExperimentConfig.from_file(jobs[0]["config"])
        out["layers"].update(probes.probe(first.model.build(), first.run.seed))
        tracer.write(Path(jobs[0]["expected_out"]).parent / "spans.jsonl")
    return out


def layer_metrics(tracer, counts: dict, commands: int) -> dict:
    """Per-layer metrics: times per command, counts per run."""
    layer = tracer.exclusive_by_layer()

    def mean_s(name: str) -> float:
        d = tracer.durations(name)
        return sum(d) / commands if d else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    paths_s = sum(tracer.durations("process.path"))
    seeds = tracer.durations("process.seed")
    detectors_s = layer.get("detectors", 0.0)
    trials = counts.get("trials", 0)
    return {
        "config.load_s": mean_s("config.load"),
        "cli.self_s": layer.get("cli", 0.0) / commands,
        "process.paths": counts.get("paths", 0),
        "process.samples": counts.get("samples", 0),
        "process.busy_s": layer.get("process", 0.0) / commands,
        "process.us_per_sample": ratio(paths_s, counts.get("samples", 0)) * 1e6,
        "process.seed_us": ratio(sum(seeds), len(seeds)) * 1e6,
        "detectors.runs": counts.get("runs", 0),
        "detectors.steps": counts.get("steps", 0),
        "detectors.candidate_updates": counts.get("candidate_updates", 0),
        "detectors.busy_s": detectors_s / commands,
        "detectors.us_per_step": ratio(detectors_s, counts.get("steps", 0)) * 1e6,
        "detectors.ns_per_candidate_update": ratio(detectors_s, counts.get("candidate_updates", 0)) * 1e9,
        "models.mlr_s": mean_s("models.mlr"),
        "metrics.trials": trials,
        "metrics.trials_per_s": ratio(trials, sum(tracer.durations("metrics.estimate"))),
        "metrics.self_s": layer.get("metrics", 0.0) / commands,
        "metrics.censored_frac": ratio(counts.get("censored", 0), trials),
        "metrics.accepted_frac": ratio(counts.get("useful", 0), trials),
        "conditions.cesaro_s": mean_s("conditions.cesaro"),
        "conditions.moment_s": mean_s("conditions.moment"),
        "conditions.slln_s": mean_s("conditions.slln"),
        "conditions.dominance_s": mean_s("conditions.dominance"),
        "conditions.draws": counts.get("draws", 0),
    }


def main(argv: list[str]) -> None:
    mode, *args, result_path = argv
    if mode == "cli":
        command, config, out = args
        result = {"setup_s": set_up(config)}
        result.update(run_cli(command, config, out))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "replay":
        from workloads import WORKLOADS

        name, seed, trace, jobs_path = args
        jobs = json.loads(Path(jobs_path).read_text(encoding="utf-8"))
        result = replay_all(WORKLOADS[name], int(seed), trace == "1", jobs)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
