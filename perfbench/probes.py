"""Per-step cost probes on the workload's model, at fixed candidate counts.

A state is advanced to n observations and the next PROBE_STEPS steps are
timed one by one; the median is reported in microseconds.  Classic CUSUM is
probed through statistic_trace, because its work per step does not depend on
n: the trace over the first n samples, divided by n, is its cost per step.
"""

from __future__ import annotations

import statistics as stats
import time

import numpy as np

from excusum.detectors import ExCusumState, SrState, ex_cusum_step, sr_step, statistic_trace
from excusum.numerics import logsumexp
from excusum.process import NO_CHANGE, ChangeSpec, derive_seed, generate_path

SIZES = (200, 2000, 20000)
PROBE_STEPS = 101


def _stepwise(make_state, step, model, xs, sizes) -> dict[int, float]:
    state = make_state()
    out = {}
    t = 0
    for n in sizes:
        while t < n:
            step(state, float(xs[t]), model)
            t += 1
        times = []
        for _ in range(PROBE_STEPS):
            x = float(xs[t])
            start = time.perf_counter()
            step(state, x, model)
            times.append(time.perf_counter() - start)
            t += 1
        out[n] = stats.median(times) * 1e6
    return out


def probe(model, seed: int) -> dict[str, float]:
    """Median microseconds per step for each probed detector and size."""
    horizon = SIZES[-1] + PROBE_STEPS
    xs = generate_path(model, ChangeSpec(nu=NO_CHANGE, horizon=horizon, seed=derive_seed(seed, 0))).samples
    out = {}
    for kind, make_state, step, sizes in (
        ("ex-cusum", ExCusumState, ex_cusum_step, SIZES),
        ("sr", SrState, sr_step, SIZES),
        ("ex-cusum-w50", lambda: ExCusumState(window=50), ex_cusum_step, (2000,)),
    ):
        for n, us in _stepwise(make_state, step, model, xs, sizes).items():
            out[f"detectors.step_us.{kind}.n{n}"] = us
    for n in SIZES:
        reps = []
        for _ in range(max(1, 2000 // n) + 2):
            start = time.perf_counter()
            statistic_trace("cusum", model, xs[:n])
            reps.append((time.perf_counter() - start) / n)
        out[f"detectors.step_us.cusum.n{n}"] = stats.median(reps) * 1e6
    values = np.cumsum(xs[:2000])
    reps = []
    for _ in range(PROBE_STEPS):
        start = time.perf_counter()
        logsumexp(values)
        reps.append(time.perf_counter() - start)
    out["numerics.logsumexp_us.n2000"] = stats.median(reps) * 1e6
    return out
