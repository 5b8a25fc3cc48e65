"""The benchmark's workloads and the CLI configs they generate from a seed.

Stdlib only: the orchestrator imports this module without numpy or the
package, so it can refuse to run before spawning anything.

Each run of a workload executes ``commands(seconds)`` CLI commands, each on
its own config whose seed is derived from (workload, run seed, command
index).  Averaging over several configs keeps the seed-to-seed spread of the
work small: one false-alarm trial's cost has a coefficient of variation of
about 0.85, and one SR trial's about 1.3, because run lengths are roughly
geometric and the per-step cost grows with the candidate count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

ARCTAN = {"family": "gaussian", "schedule": {"kind": "arctangent"}}
SATURATING = {
    "family": "gaussian",
    "schedule": {"kind": "linear-saturating", "mu": 1.0, "params": {"slope": 0.1}},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    model: dict
    detector: dict
    nu: int | str
    horizon: int
    trials: int
    #: wall seconds of one command at the commit that defined the benchmark;
    #: sizes how many commands fit in a run
    nominal_s: float
    #: trials per run whose stopping time the O(n^2) oracle recomputes
    oracle_trials: int

    def commands(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_s))

    def config_seed(self, run_seed: int, index: int) -> int:
        digest = hashlib.sha256(f"{self.name}:{run_seed}:{index}".encode()).digest()
        return int.from_bytes(digest[:8], "big") >> 1

    def config(self, run_seed: int, index: int, out_dir: Path) -> dict:
        return {
            "model": self.model,
            "detector": self.detector,
            "run": {
                "nu": self.nu,
                "horizon": self.horizon,
                "seed": self.config_seed(run_seed, index),
                "trials": self.trials,
            },
            "output": {"directory": str(out_dir)},
        }


WORKLOADS = {
    w.name: w
    for w in (
        # cadd horizon is the CLI default nu + 10 * ceil(A / I) = 140; the
        # config's horizon field is not read by cadd
        Workload("delay", "cadd", ARCTAN, {"detector": "ex-cusum", "gamma": 1000.0}, 80, 140, 2000, 2.5, 24),
        Workload("false-alarm", "arl", ARCTAN, {"detector": "ex-cusum", "gamma": 100.0}, "inf", 2000, 250, 2.5, 12),
        Workload("sr-saturating", "arl", SATURATING, {"detector": "sr", "gamma": 300.0}, "inf", 6000, 220, 2.5, 8),
        Workload("verify", "verify", ARCTAN, {"detector": "ex-cusum", "gamma": 1000.0}, 80, 200, 1, 1.6, 0),
    )
}


def write_configs(workload: Workload, run_seed: int, seconds: float, work_dir: Path) -> list[dict]:
    """Write one config per command; returns [{config, cli_out, expected_out}]."""
    jobs = []
    for j in range(workload.commands(seconds)):
        cli_out = work_dir / f"cli-{j}"
        cfg_path = work_dir / f"config-{j}.json"
        cfg_path.write_text(json.dumps(workload.config(run_seed, j, cli_out), indent=1), encoding="utf-8")
        jobs.append(
            {"config": str(cfg_path), "cli_out": str(cli_out), "expected_out": str(work_dir / f"expected-{j}")}
        )
    return jobs


def delay_horizon(nu: int, threshold: float, limit_mu: float) -> int:
    """The cadd command's default horizon, nu + 10 * ceil(A / I), I = mu^2 / 2."""
    info = limit_mu**2 / 2.0
    return int(nu + 10 * max(1, math.ceil(max(threshold, 0.0) / info)))
