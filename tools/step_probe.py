"""Print what one lockstep step costs, in µs, at 1, 64 and 907 live rows.

Two kernels, each at horizon 2000 on pre-change paths with a threshold that
no run crosses, so every row stays live for every step:

- bounded ex-cusum on the arctangent schedule (``detectors._bounded_lockstep``
  with the envelope of ``detectors._certified_tail``);
- folded Shiryaev-Roberts on ``linear-saturating(0.1, 1)``
  (``detectors.run_detector_batch``).

The paths are drawn before the clock starts, so sampling is not timed.  Each
figure is the best of 3 runs, divided by the horizon.  The folded SR row
never crosses, so it times the steps that settle nothing; a last line times
``metrics._stopping_times`` on the ``sr-saturating`` benchmark settings (220
trials of SR on ``linear-saturating(0.1, 1)``, threshold log 300, horizon
6000), sampling and crossings included, in ms, best of 3.

    python3 tools/step_probe.py

Imports the package from ``src/`` next to this script; numpy only.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from excusum import MeanSchedule, gaussian_model, metrics  # noqa: E402
from excusum.detectors import _bounded_lockstep, _certified_tail, run_detector_batch  # noqa: E402
from excusum.process import NO_CHANGE, _sample_blocks, trial_generators  # noqa: E402

HORIZON = 2000
THRESHOLD = 1000.0
ROWS = (1, 64, 907)
REPEATS = 3


def best_us_per_step(run, model, rows: int) -> float:
    paths = [list(_sample_blocks(model, NO_CHANGE, HORIZON, rng)) for rng in trial_generators(7, 0, rows)]
    best = float("inf")
    for _ in range(REPEATS):
        streams = [iter(blocks) for blocks in paths]
        start = time.perf_counter()
        taus = run(model, streams)
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


def main() -> int:
    arctan = gaussian_model(MeanSchedule.arctangent())
    saturating = gaussian_model(MeanSchedule.linear_saturating(0.1, 1.0))
    envelope = _certified_tail("ex-cusum", None, arctan, THRESHOLD, HORIZON)
    kernels = (
        (
            "bounded ex-cusum, arctangent",
            arctan,
            lambda model, streams: _bounded_lockstep(model, streams, THRESHOLD, HORIZON, envelope),
        ),
        (
            "folded sr, linear-saturating(0.1, 1)",
            saturating,
            lambda model, streams: run_detector_batch("sr", model, streams, THRESHOLD, HORIZON),
        ),
    )
    print(f"µs per lockstep step, horizon {HORIZON}, best of {REPEATS}")
    print(f"{'kernel':<38}" + "".join(f"{f'{r} rows':>11}" for r in ROWS))
    for name, model, run in kernels:
        print(f"{name:<38}" + "".join(f"{best_us_per_step(run, model, r):>11.1f}" for r in ROWS))
    sr_arl = best_ms(lambda: metrics._stopping_times(saturating, "sr", math.log(300.0), NO_CHANGE, 6000, 220, 7, None))
    print(f"sr-saturating _stopping_times, 220 trials: {sr_arl:.1f} ms, best of {REPEATS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
