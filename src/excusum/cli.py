"""Command-line surface: reproducible experiments from JSON configs.

Subcommands: demo, verify, arl, cadd, tradeoff, simulate.  Every command is
a pure function of its config plus the seed, so reruns are byte-identical.
Exit status 0 means every verdict the command checks passed; 1 means a
verdict failed; 2 means the config was rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import conditions, metrics
from .config import ConfigError, ExperimentConfig, default_config
from .detectors import DETECTORS, statistic_trace
from .metrics import EstimationError
from .process import ChangeSpec, generate_path
from .svgplot import line_chart


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_table(out: Path, stem: str, header: list[str], rows: list[tuple] | tuple, json_too: bool) -> None:
    """Write the table ``stem``.csv and, with ``json_too``, its mirror
    ``stem``.json.  ``rows`` is a list of row tuples, mirrored as a list of
    objects, or a single row tuple, mirrored as one object."""
    one = not isinstance(rows, list)
    table = [rows] if one else rows
    write_csv(out / f"{stem}.csv", header, table)
    if json_too:
        objs = [dict(zip(header, row)) for row in table]
        write_json(out / f"{stem}.json", objs[0] if one else objs)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
    if args.out is not None:
        cfg = replace(cfg, output=replace(cfg.output, directory=args.out))
    return cfg


def _outdir(cfg: ExperimentConfig) -> Path:
    d = Path(cfg.output.directory)
    d.mkdir(parents=True, exist_ok=True)
    return d


def cmd_demo(cfg: ExperimentConfig, json_too: bool) -> int:
    model = cfg.model.build()
    run = cfg.run
    threshold = cfg.detector.threshold_value
    spec = ChangeSpec(nu=run.nu, horizon=run.horizon, seed=run.seed)
    path = generate_path(model, spec)
    trace = statistic_trace(cfg.detector.kind, model, path, window=cfg.detector.window)
    out = _outdir(cfg)
    ns = list(range(1, run.horizon + 1))
    write_csv(out / "demo_path.csv", ["n", "x_n"], list(zip(ns, path.samples.tolist())))
    write_csv(out / "demo_stat.csv", ["n", "W_n"], list(zip(ns, trace.tolist())))
    vlines = [] if spec.no_change else [("change point", float(run.nu))]
    svg = line_chart(
        [("detector statistic", ns, trace)],
        title="sequential detection statistic",
        xlabel="n",
        ylabel="W_n",
        hlines=[(f"threshold {threshold:.4g}", threshold)],
        vlines=vlines,
    )
    (out / "demo.svg").write_text(svg, encoding="utf-8")
    crossed = DETECTORS[cfg.detector.kind].crossed(trace, threshold)
    tau = int(crossed.argmax()) + 1 if crossed.any() else None
    print(
        f"demo: PASS nu={run.nu} horizon={run.horizon} threshold={threshold:.6g} "
        f"tau={tau if tau is not None else 'censored'} -> {out}/demo_path.csv, demo_stat.csv, demo.svg"
    )
    return 0


def cmd_verify(cfg: ExperimentConfig, json_too: bool) -> int:
    model = cfg.model.build()
    budgets = conditions.ConditionBudgets(seed=cfg.run.seed)
    report = conditions.full_condition_report(model, budgets)
    out = _outdir(cfg)
    write_json(out / "report.json", report.to_dict())
    write_csv(
        out / "conditions_trace.csv",
        ["n", "cesaro_avg", "moment_est", "slln_q95"],
        report.trace_rows(),
    )
    failing = [name for name, ok in report.verdicts.items() if not ok]
    status = "PASS" if report.passed else "FAIL"
    detail = f"I={report.information_number_I:.6g}"
    if failing:
        detail += " failing=" + ",".join(failing)
    print(f"verify: {status} {detail} -> {out}/report.json, conditions_trace.csv")
    return 0 if report.passed else 1


def cmd_arl(cfg: ExperimentConfig, json_too: bool) -> int:
    model = cfg.model.build()
    threshold = cfg.detector.threshold_value
    gamma = cfg.detector.gamma_value
    horizon = cfg.run.horizon
    est = metrics.estimate_arl2fa(
        model,
        cfg.detector.kind,
        threshold,
        cfg.run.trials,
        horizon,
        cfg.run.seed,
        window=cfg.detector.window,
    )
    out = _outdir(cfg)
    row = (gamma, threshold, est.trials, est.mean_tau, est.stderr, est.censored_fraction, est.lcb95)
    header = ["gamma", "A", "trials", "mean_tau", "stderr", "censored_frac", "lcb95"]
    _write_table(out, "arl", header, row, json_too)
    ok = est.lcb95 >= gamma
    print(
        f"arl: {'PASS' if ok else 'FAIL'} mean_tau={est.mean_tau:.6g} lcb95={est.lcb95:.6g} "
        f"gamma={gamma:.6g} censored={est.censored_fraction:.3f} -> {out}/arl.csv"
    )
    return 0 if ok else 1


def cmd_cadd(cfg: ExperimentConfig, json_too: bool) -> int:
    model = cfg.model.build()
    threshold = cfg.detector.threshold_value
    if cfg.run.nu == math.inf:
        print("cadd: FAIL run.nu must be finite for delay estimation", file=sys.stderr)
        return 1
    try:
        est = metrics.estimate_cadd(
            model,
            cfg.detector.kind,
            threshold,
            int(cfg.run.nu),
            cfg.run.trials,
            cfg.run.seed,
            window=cfg.detector.window,
        )
    except EstimationError as exc:
        print(f"cadd: FAIL {exc}", file=sys.stderr)
        return 1
    out = _outdir(cfg)
    row = (
        cfg.detector.gamma_value,
        threshold,
        est.nu,
        est.trials,
        est.accepted,
        est.mean_delay,
        est.stderr,
    )
    header = ["gamma", "A", "nu", "trials", "accepted", "mean_delay", "stderr"]
    _write_table(out, "cadd", header, row, json_too)
    print(
        f"cadd: PASS nu={est.nu} mean_delay={est.mean_delay:.6g} stderr={est.stderr:.3g} "
        f"accepted={est.accepted}/{est.trials} -> {out}/cadd.csv"
    )
    return 0


def cmd_tradeoff(cfg: ExperimentConfig, json_too: bool) -> int:
    model = cfg.model.build()
    try:
        rows = metrics.tradeoff_curve(
            model,
            cfg.tradeoff.gammas,
            cfg.run.trials,
            cfg.run.seed,
            detector=cfg.detector.kind,
            arl_trials=cfg.tradeoff.arl_trials,
            window=cfg.detector.window,
        )
    except EstimationError as exc:
        print(f"tradeoff: FAIL {exc}", file=sys.stderr)
        return 1
    out = _outdir(cfg)
    csv_rows = [(r.gamma, r.threshold, r.arl.lcb95, r.cadd.mean_delay, r.bound) for r in rows]
    _write_table(out, "tradeoff", ["gamma", "A", "arl_lcb", "cadd", "bound"], csv_rows, json_too)
    thresholds = [r.threshold for r in rows]
    svg = line_chart(
        [
            ("mean delay", thresholds, [r.cadd.mean_delay for r in rows]),
            ("log(gamma)/I floor", thresholds, [r.bound for r in rows]),
        ],
        title="detection delay vs threshold",
        xlabel="threshold A = log(gamma)",
        ylabel="steps after the change",
    )
    (out / "tradeoff.svg").write_text(svg, encoding="utf-8")
    ok = all(r.arl.lcb95 >= r.gamma for r in rows)
    worst = min(r.arl.lcb95 / r.gamma for r in rows)
    print(
        f"tradeoff: {'PASS' if ok else 'FAIL'} {len(rows)} gamma(s), min arl_lcb/gamma={worst:.3f} "
        f"-> {out}/tradeoff.csv"
    )
    return 0 if ok else 1


def cmd_simulate(cfg: ExperimentConfig, json_too: bool) -> int:
    model = cfg.model.build()
    threshold = cfg.detector.threshold_value
    outcomes = metrics.simulate_trials(
        model,
        cfg.detector.kind,
        threshold,
        cfg.run.nu,
        cfg.run.horizon,
        cfg.run.trials,
        cfg.run.seed,
        window=cfg.detector.window,
    )
    out = _outdir(cfg)
    rows = [
        (i, o.tau, o.censored_at, int(o.false_alarm), o.delay)
        for i, o in enumerate(outcomes)
    ]
    header = ["trial", "tau", "censored_at", "false_alarm", "delay"]
    _write_table(out, "outcomes", header, rows, json_too)
    stopped = sum(o.tau is not None for o in outcomes)
    false_alarms = sum(o.false_alarm for o in outcomes)
    print(
        f"simulate: PASS trials={len(outcomes)} stopped={stopped} "
        f"censored={len(outcomes) - stopped} false_alarms={false_alarms} -> {out}/outcomes.csv"
    )
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "verify": cmd_verify,
    "arl": cmd_arl,
    "cadd": cmd_cadd,
    "tradeoff": cmd_tradeoff,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excusum",
        description="Sequential change detection for stochastically growing signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("demo", "simulate one seeded path and emit the statistic trace + SVG"),
        ("verify", "run the optimality-condition checks and emit a report"),
        ("arl", "estimate the mean time to false alarm"),
        ("cadd", "estimate the conditional average detection delay"),
        ("tradeoff", "estimate the false-alarm/delay tradeoff curve"),
        ("simulate", "run seeded detector trials and dump per-trial outcomes"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON experiment config (built-in default if omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--format", choices=["csv", "json"], default="csv", help="also mirror tables as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](cfg, args.format == "json")


if __name__ == "__main__":
    sys.exit(main())
