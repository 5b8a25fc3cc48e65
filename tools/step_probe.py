"""Print what one lockstep step costs, in µs, at 1, 64 and 907 live rows.

Three kernels of ``detectors._lockstep``, each at horizon 2000 on pre-change
paths with a threshold that no run crosses, so every row stays live for every
step:

- bounded ex-cusum on the arctangent schedule, with an explicit head of
  HEAD exact candidates and the model's envelope of the older ages (at this
  threshold the head sized from the schedule passes its cap, so
  ``detectors._certified_tail`` would run the exact kernel);
- folded Shiryaev-Roberts on ``linear-saturating(0.1, 1)``;
- unfolded Shiryaev-Roberts on the arctangent schedule, which never
  saturates, so each row keeps one sum per step taken, up to 2000.  It is
  timed at 1 and 64 rows only: at 907 rows one run takes seconds.

The paths are drawn before the clock starts, so sampling is not timed, and
the kernel reads them through a drawer over the drawn blocks.  Each figure
is the best of 3 runs, divided by the horizon.  The SR rows never cross, so
they time the steps that settle nothing.

The next line times path generation, the block drawer ``simulate_trials``
reads, on the ``delay`` benchmark settings: 1872 trials at nu 80 and
horizon 140, so two blocks of 79 pre-change and 61 post-change steps, in µs
per sample, best of 3; the trials' generators are built before the clock
starts.  The line after it times ``metrics.simulate_trials`` on the
``sr-saturating`` benchmark settings (220 trials of SR on
``linear-saturating(0.1, 1)``, threshold log 300, horizon 6000), sampling and
crossings included, in ms, best of 3.  The two lines after that run one
``metrics.simulate_trials`` on the ``delay`` settings (2000 trials, gamma
1000, nu 80, horizon 140) and on the ``false-alarm`` settings (250 trials,
gamma 100, horizon 2000) and print the head sized from the schedule, the
number of lockstep chunks, the trials that reran exactly and the
``tracemalloc`` peak of the call in MiB.

The last line times the phases of the condition report that ``excusum
verify`` runs, each through its public call at ``ConditionBudgets()`` on the
arctangent schedule, in ms, best of 3: the MLR grid checks, the Cesaro
average, the fourth-moment check, the SLLN check and the block-sum
dominance check.  The schedule's cache is warm after the first run.

    python3 tools/step_probe.py

Imports the package from ``src/`` next to this script; numpy only.
"""

import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from excusum import (  # noqa: E402
    ConditionBudgets,
    MeanSchedule,
    cesaro_kl_average,
    default_grid,
    fourth_moment_check,
    gaussian_model,
    metrics,
    slln_empirical,
    sum_dominance_check,
    verify_mlr,
)
from excusum.detectors import _certified_tail, _lockstep  # noqa: E402
from excusum.process import _CHUNK, NO_CHANGE, _block_drawer, trial_generators  # noqa: E402

HORIZON = 2000
THRESHOLD = 1000.0
HEAD = 32
ROWS = (1, 64, 907)
REPEATS = 3


def best_us_per_step(kind: str, model, certified, rows: int) -> float:
    draw = _block_drawer(model, NO_CHANGE, HORIZON, list(trial_generators(7, np.arange(rows))))
    blocks = [draw(np.arange(rows), t) for t in range(1, HORIZON + 1, _CHUNK)]

    def drawn(live, t):
        return blocks[(t - 1) // _CHUNK][:, live]

    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        taus = _lockstep(kind, model, drawn, rows, THRESHOLD, HORIZON, None, certified)
        best = min(best, time.perf_counter() - start)
        assert not taus.any(), "a run stopped; the probe needs every row live"
    return best / HORIZON * 1e6


def best_ms(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def best_us_per_sample(model, nu: int, horizon: int, rows: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        draw = _block_drawer(model, nu, horizon, list(trial_generators(7, np.arange(rows))))
        live = np.arange(rows)
        start = time.perf_counter()
        steps = draw(live, 1).shape[0]
        draw(live, 1 + steps)
        best = min(best, time.perf_counter() - start)
    return best / (rows * horizon) * 1e6


def traced_run(model, threshold: float, nu, horizon: int, trials: int) -> str:
    """The head, chunk count, reruns and traced peak of one simulate_trials."""
    certified = _certified_tail("ex-cusum", None, model, threshold, horizon)
    chunks, reruns = {True: 0, False: 0}, 0

    def counted(*args):
        nonlocal reruns
        taus = _lockstep(*args)
        chunks[args[-1] is not None] += 1
        reruns += int(np.count_nonzero(taus < 0))
        return taus

    metrics._lockstep = counted
    tracemalloc.start()
    try:
        metrics.simulate_trials(model, "ex-cusum", threshold, nu, horizon, trials, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        metrics._lockstep = _lockstep
    head = None if certified is None else certified[0]
    return (
        f"head {head}, {chunks[True]} bounded and {chunks[False]} exact chunks, {reruns} of {trials} reran, "
        f"traced peak {peak / 2**20:.2f} MiB"
    )


def main() -> int:
    arctan = gaussian_model(MeanSchedule.arctangent())
    saturating = gaussian_model(MeanSchedule.linear_saturating(0.1, 1.0))
    bounded = (HEAD, arctan.llr_envelope(HEAD, HORIZON))
    # (name, kind, model, head and envelope, rows timed)
    kernels = (
        (f"bounded ex-cusum (head {HEAD}), arctangent", "ex-cusum", arctan, bounded, ROWS),
        ("folded sr, linear-saturating(0.1, 1)", "sr", saturating, None, ROWS),
        ("sr, arctangent (unfolded)", "sr", arctan, None, ROWS[:2]),
    )
    print(f"µs per lockstep step, horizon {HORIZON}, best of {REPEATS}")
    print(f"{'kernel':<38}" + "".join(f"{f'{r} rows':>11}" for r in ROWS))
    for name, kind, model, tail, rows in kernels:
        cells = [f"{best_us_per_step(kind, model, tail, r):>11.1f}" if r in rows else f"{'-':>11}" for r in ROWS]
        print(f"{name:<38}" + "".join(cells))
    path_us = best_us_per_sample(arctan, 80, 140, 1872)
    print(f"path generation, delay settings (1872 trials, nu 80, horizon 140): {path_us:.4f} µs per sample, best of {REPEATS}")
    sr_arl = best_ms(lambda: metrics.simulate_trials(saturating, "sr", math.log(300.0), NO_CHANGE, 6000, 220, 7))
    print(f"sr-saturating simulate_trials, 220 trials: {sr_arl:.1f} ms, best of {REPEATS}")
    print(f"delay simulate_trials, 2000 trials: {traced_run(arctan, math.log(1000.0), 80, 140, 2000)}")
    print(f"false-alarm simulate_trials, 250 trials: {traced_run(arctan, math.log(100.0), NO_CHANGE, HORIZON, 250)}")
    b = ConditionBudgets()
    phases = (
        ("mlr", lambda: [verify_mlr(arctan, n, default_grid(arctan, max(n + 1, 0), b.mlr_points)) for n in b.mlr_ns]),
        ("cesaro", lambda: cesaro_kl_average(arctan, b.cesaro_n_max)),
        ("moment", lambda: fourth_moment_check(arctan, b.moment_trials, b.seed, ks=b.moment_ks)),
        ("slln", lambda: slln_empirical(arctan, b.slln_n, b.slln_trials, b.seed)),
        ("dominance", lambda: sum_dominance_check(arctan, *b.dominance_pair, b.dominance_n, b.dominance_trials, b.seed)),
    )
    cells = ", ".join(f"{name} {best_ms(run):.1f}" for name, run in phases)
    print(f"verify phases at ConditionBudgets(), ms, best of {REPEATS}: {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
