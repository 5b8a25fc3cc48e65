"""Replays of the CLI commands as the public calls they make, with spans.

A replay loads the config, builds the model and then makes, per trial,
derive_seed -> generate_path -> run_detector -> TrialOutcome.from_stop, or,
for ``verify``, the five condition phases with the budgets the CLI uses.  It
writes the files the command would write, through the CLI's own writers,
so the benchmark can compare them with the CLI's files byte for byte.

Spans are recorded around each call into a layer (a module of the
package), kept in memory and written out at the end of the run.  Counts are
taken at the same boundaries, from the calls' results.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from pathlib import Path

import numpy as np

from excusum import conditions, models
from excusum.cli import write_csv, write_json
from excusum.config import ExperimentConfig
from excusum.detectors import run_detector
from excusum.metrics import TrialOutcome
from excusum.process import NO_CHANGE, ChangeSpec, derive_seed, generate_path

from workloads import delay_horizon

#: scipy.stats.norm.ppf(0.95), the z value behind the CLI's lcb95 column
Z95 = 1.6448536269514722

ARL_HEADER = ["gamma", "A", "trials", "mean_tau", "stderr", "censored_frac", "lcb95"]
CADD_HEADER = ["gamma", "A", "nu", "trials", "accepted", "mean_delay", "stderr"]
TRACE_HEADER = ["n", "cesaro_avg", "moment_est", "slln_q95"]


class Tracer:
    """In-memory spans: [name, start, end, parent index, trial id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str, trial: int = -1) -> "_Span":
        return _Span(self, name, trial)

    def exclusive_by_layer(self) -> dict[str, float]:
        """Per layer, the time its spans cover minus the time of their children."""
        excl = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                excl[s[3]] -= s[2] - s[1]
        out: dict[str, float] = {}
        for s, e in zip(self.spans, excl):
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + e
        return out

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "trial": trial}))
                fh.write("\n")


class _Span:
    __slots__ = ("tracer", "name", "trial", "index")

    def __init__(self, tracer: Tracer, name: str, trial: int) -> None:
        self.tracer, self.name, self.trial = tracer, name, trial

    def __enter__(self) -> None:
        t = self.tracer
        parent = t._open[-1] if t._open else -1
        self.index = len(t.spans)
        t.spans.append([self.name, 0.0, 0.0, parent, self.trial])
        t._open.append(self.index)
        t.spans[self.index][1] = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        t = self.tracer
        t.spans[self.index][2] = end
        t._open.pop()


class NullTracer:
    """Stands in for Tracer in untraced replays."""

    def span(self, name: str, trial: int = -1) -> contextlib.nullcontext:
        return contextlib.nullcontext()


def candidate_updates(kind: str, steps: int, window: int | None) -> int:
    """Running sums updated over `steps` steps: each live candidate gains one term."""
    if kind == "cusum":
        return steps
    if window is None or window >= steps:
        return steps * (steps + 1) // 2
    return window * (window + 1) // 2 + (steps - window) * window


def replay_trials(tracer, command: str, config_path: str, out_dir: Path) -> dict:
    """Replay ``arl`` or ``cadd``; returns the outcomes, counts and exit code."""
    with tracer.span("cli.command"):
        with tracer.span("config.load"):
            cfg = ExperimentConfig.from_file(config_path)
            model = cfg.model.build()
        det, run = cfg.detector, cfg.run
        threshold = det.threshold_value
        if command == "cadd":
            nu = int(run.nu)
            horizon = delay_horizon(nu, threshold, model.schedule.limit_mu)
        else:
            nu, horizon = NO_CHANGE, run.horizon
        outcomes = []
        samples = 0
        with tracer.span("metrics.estimate"):
            for i in range(run.trials):
                with tracer.span("process.seed", i):
                    seed = derive_seed(run.seed, i)
                with tracer.span("process.path", i):
                    path = generate_path(model, ChangeSpec(nu=nu, horizon=horizon, seed=seed))
                with tracer.span("detectors.run", i):
                    res = run_detector(det.kind, model, path, threshold, horizon, window=det.window)
                with tracer.span("metrics.outcome", i):
                    outcomes.append(TrialOutcome.from_stop(res, nu))
                samples += len(path)
            row = arl_row(det, outcomes) if command == "arl" else cadd_row(det, nu, outcomes)
        with tracer.span("cli.write"):
            out_dir.mkdir(parents=True, exist_ok=True)
            header = ARL_HEADER if command == "arl" else CADD_HEADER
            write_csv(out_dir / f"{command}.csv", header, [row])
    steps = [o.tau if o.tau is not None else o.censored_at for o in outcomes]
    censored = sum(o.censored_at is not None for o in outcomes)
    # useful outcomes: accepted detections for cadd, uncensored stops for arl
    useful = sum(o.delay is not None for o in outcomes) if command == "cadd" else len(outcomes) - censored
    passed = row[-1] >= det.gamma_value if command == "arl" else True
    return {
        "exit": 0 if passed else 1,
        "files": [f"{command}.csv"],
        "outcomes": [(o.tau, o.censored_at) for o in outcomes],
        "horizon": horizon,
        "counts": {
            "paths": len(outcomes),
            "samples": samples,
            "runs": len(outcomes),
            "steps": sum(steps),
            "candidate_updates": sum(candidate_updates(det.kind, s, det.window) for s in steps),
            "trials": len(outcomes),
            "censored": censored,
            "useful": useful,
        },
    }


def arl_row(det, outcomes) -> tuple:
    """The arl.csv row, with the arithmetic of the ARL estimate."""
    n = len(outcomes)
    taus = np.array([o.tau if o.tau is not None else o.censored_at for o in outcomes], dtype=np.float64)
    censored = sum(o.censored_at is not None for o in outcomes)
    mean = float(taus.mean())
    sd = float(taus.std(ddof=1)) if n > 1 else 0.0
    se = sd / math.sqrt(n)
    return (det.gamma_value, det.threshold_value, n, mean, se, censored / n, mean - Z95 * se)


def cadd_row(det, nu: int, outcomes) -> tuple:
    """The cadd.csv row, with the arithmetic of the CADD estimate."""
    delays = np.array([o.delay for o in outcomes if o.delay is not None], dtype=np.float64)
    if delays.size == 0:
        raise ValueError("no accepted runs; the workload must not produce this")
    mean = float(delays.mean())
    se = float(delays.std(ddof=1)) / math.sqrt(delays.size) if delays.size > 1 else 0.0
    return (det.gamma_value, det.threshold_value, nu, len(outcomes), int(delays.size), mean, se)


def replay_verify(tracer, config_path: str, out_dir: Path) -> dict:
    """Replay ``verify`` phase by phase with the CLI's budgets."""
    with tracer.span("cli.command"):
        with tracer.span("config.load"):
            cfg = ExperimentConfig.from_file(config_path)
            model = cfg.model.build()
        b = conditions.ConditionBudgets(seed=cfg.run.seed)
        with tracer.span("models.mlr"):
            mlr = {}
            for n in b.mlr_ns:
                check = models.verify_mlr(model, n, models.default_grid(model, max(n + 1, 0), points=b.mlr_points))
                mlr[n] = (check.ok, check.worst_violation)
        with tracer.span("conditions.cesaro"):
            cesaro = conditions.cesaro_kl_average(model, b.cesaro_n_max)
        with tracer.span("conditions.moment"):
            moment = conditions.fourth_moment_check(model, trials=b.moment_trials, seed=b.seed, ks=b.moment_ks)
        with tracer.span("conditions.slln"):
            slln = conditions.slln_empirical(model, b.slln_n, trials=b.slln_trials, seed=b.seed)
        with tracer.span("conditions.dominance"):
            dom = conditions.sum_dominance_check(
                model, b.dominance_pair[0], b.dominance_pair[1], b.dominance_n, b.dominance_trials, b.seed
            )
        verdicts = {
            "mlr": all(ok for ok, _ in mlr.values()),
            "information_number": cesaro.passed,
            "fourth_moment": moment.passed,
            "slln_decay": slln.passed,
            "sum_dominance": dom.passed,
        }
        report = conditions.ConditionReport(
            information_number_I=cesaro.information_number,
            cesaro_trace=cesaro,
            moment_check=moment,
            slln_check=slln,
            dominance_check=dom,
            mlr_results=mlr,
            verdicts=verdicts,
            passed=all(verdicts.values()),
        )
        with tracer.span("cli.write"):
            out_dir.mkdir(parents=True, exist_ok=True)
            write_json(out_dir / "report.json", report.to_dict())
            write_csv(out_dir / "conditions_trace.csv", TRACE_HEADER, report.trace_rows())
    draws = (
        len(b.moment_ks) * b.moment_trials
        + b.slln_n * b.slln_trials
        + 2 * b.dominance_trials * (b.dominance_n + 1)
    )
    return {
        "exit": 0 if report.passed else 1,
        "files": ["report.json", "conditions_trace.csv"],
        "outcomes": [],
        "counts": {"draws": draws},
    }
