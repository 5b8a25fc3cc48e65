#!/usr/bin/env python3
"""Estimate the false-alarm / detection-delay tradeoff for the arctan model
and chart mean delay against the asymptotic floor log(gamma) / I.
"""

import argparse
import math
from pathlib import Path

from excusum import MeanSchedule, gaussian_model, tradeoff_curve
from excusum.cli import write_csv
from excusum.svgplot import line_chart


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--gammas",
        type=float,
        nargs="+",
        default=[math.e**2, math.e**3, math.e**4, math.e**5],
    )
    ap.add_argument("--trials", type=int, default=4000, help="delay trials per gamma")
    ap.add_argument("--arl-trials", type=int, default=400)
    ap.add_argument("--seed", type=int, default=31415)
    ap.add_argument("--out", default="out/tradeoff")
    args = ap.parse_args()

    model = gaussian_model(MeanSchedule.arctangent())
    rows = tradeoff_curve(
        model,
        args.gammas,
        trials=args.trials,
        seed=args.seed,
        arl_trials=args.arl_trials,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "tradeoff.csv",
        ["gamma", "A", "arl_lcb", "cadd", "bound"],
        [(r.gamma, r.threshold, r.arl.lcb95, r.cadd.mean_delay, r.bound) for r in rows],
    )
    thresholds = [r.threshold for r in rows]
    (out / "tradeoff.svg").write_text(
        line_chart(
            [
                ("mean delay", thresholds, [r.cadd.mean_delay for r in rows]),
                ("log(gamma)/I floor", thresholds, [r.bound for r in rows]),
            ],
            title="detection delay vs threshold",
            xlabel="threshold A = log(gamma)",
            ylabel="steps after the change",
        ),
        encoding="utf-8",
    )
    for r in rows:
        print(
            f"gamma={r.gamma:10.1f}  A={r.threshold:6.3f}  arl_lcb={r.arl.lcb95:10.1f}  "
            f"delay={r.cadd.mean_delay:6.2f} +- {r.cadd.stderr:.2f}  floor={r.bound:6.2f}"
        )
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
