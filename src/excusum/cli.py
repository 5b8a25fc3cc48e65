"""Command-line surface: reproducible experiments from JSON configs.

Subcommands: demo, verify, arl, cadd, tradeoff, simulate.  Every command is
a pure function of its config plus the seed, so reruns are byte-identical.
Exit status 0 means every verdict the command checks passed; 1 means a
verdict failed; 2 means the config was rejected.  ``conditions`` and
``svgplot`` are imported inside the commands that call them, so the other
commands never load them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import metrics
from .config import DEFAULT_CONFIG, ConfigError, ExperimentConfig, read_json
from .detectors import DETECTORS, statistic_trace
from .metrics import EstimationError
from .models import GaussianModel
from .process import ChangeSpec, generate_path


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


def _write_table(path: Path, header: list[str], rows: list[tuple] | tuple, json_too: bool) -> None:
    """Write the CSV table ``path`` and, with ``json_too``, its mirror next to
    it with a ``.json`` suffix.  ``rows`` is a list of row tuples, mirrored as
    a list of objects, or a single row tuple, mirrored as one object."""
    one = not isinstance(rows, list)
    table = [rows] if one else rows
    write_csv(path, header, table)
    if json_too:
        objs = [dict(zip(header, row)) for row in table]
        write_json(path.with_suffix(".json"), objs[0] if one else objs)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    # --seed and --out go into the parsed config, so they meet its schema
    obj = read_json(args.config) if args.config else json.loads(json.dumps(DEFAULT_CONFIG))
    if isinstance(obj, dict):
        run, output = obj.get("run"), obj.setdefault("output", {})
        if args.seed is not None and isinstance(run, dict):
            run["seed"] = args.seed
        if args.out is not None and isinstance(output, dict):
            output["directory"] = args.out
    return ExperimentConfig.from_dict(obj)


# A command returns its verdict, the text of its summary line, and its files
# in order: (header, rows) for a .csv table, an object for .json, text for .svg.
Result = tuple[bool, str, dict]


def cmd_demo(cfg: ExperimentConfig, model: GaussianModel) -> Result:
    from .svgplot import line_chart

    run = cfg.run
    threshold = cfg.detector.threshold_value
    spec = ChangeSpec(nu=run.nu, horizon=run.horizon, seed=run.seed)
    path = generate_path(model, spec)
    trace = statistic_trace(cfg.detector.kind, model, path, window=cfg.detector.window)
    ns = list(range(1, run.horizon + 1))
    vlines = [] if spec.no_change else [("change point", float(run.nu))]
    svg = line_chart(
        [("detector statistic", ns, trace)],
        title="sequential detection statistic",
        xlabel="n",
        ylabel="W_n",
        hlines=[(f"threshold {threshold:.4g}", threshold)],
        vlines=vlines,
    )
    crossed = DETECTORS[cfg.detector.kind].crossed(trace, threshold)
    tau = int(crossed.argmax()) + 1 if crossed.any() else "censored"
    return True, f"nu={run.nu} horizon={run.horizon} threshold={threshold:.6g} tau={tau}", {
        "demo_path.csv": (["n", "x_n"], list(zip(ns, path.samples.tolist()))),
        "demo_stat.csv": (["n", "W_n"], list(zip(ns, trace.tolist()))),
        "demo.svg": svg,
    }


def cmd_verify(cfg: ExperimentConfig, model: GaussianModel) -> Result:
    from . import conditions

    budgets = conditions.ConditionBudgets(seed=cfg.run.seed)
    report = conditions.full_condition_report(model, budgets)
    failing = [name for name, ok in report.verdicts.items() if not ok]
    detail = f"I={report.information_number_I:.6g}"
    if failing:
        detail += " failing=" + ",".join(failing)
    return report.passed, detail, {
        "report.json": report.to_dict(),
        "conditions_trace.csv": (["n", "cesaro_avg", "moment_est", "slln_q95"], report.trace_rows()),
    }


def cmd_arl(cfg: ExperimentConfig, model: GaussianModel) -> Result:
    threshold = cfg.detector.threshold_value
    gamma = cfg.detector.gamma_value
    est = metrics.estimate_arl2fa(
        model,
        cfg.detector.kind,
        threshold,
        cfg.run.trials,
        cfg.run.horizon,
        cfg.run.seed,
        window=cfg.detector.window,
    )
    row = (gamma, threshold, est.trials, est.mean_tau, est.stderr, est.censored_fraction, est.lcb95)
    header = ["gamma", "A", "trials", "mean_tau", "stderr", "censored_frac", "lcb95"]
    detail = f"mean_tau={est.mean_tau:.6g} lcb95={est.lcb95:.6g} gamma={gamma:.6g} censored={est.censored_fraction:.3f}"
    return est.lcb95 >= gamma, detail, {"arl.csv": (header, row)}


def cmd_cadd(cfg: ExperimentConfig, model: GaussianModel) -> Result:
    threshold = cfg.detector.threshold_value
    if cfg.run.nu == math.inf:
        raise EstimationError("run.nu must be finite for delay estimation")
    est = metrics.estimate_cadd(
        model,
        cfg.detector.kind,
        threshold,
        int(cfg.run.nu),
        cfg.run.trials,
        cfg.run.seed,
        window=cfg.detector.window,
    )
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
    detail = f"nu={est.nu} mean_delay={est.mean_delay:.6g} stderr={est.stderr:.3g} accepted={est.accepted}/{est.trials}"
    return True, detail, {"cadd.csv": (header, row)}


def cmd_tradeoff(cfg: ExperimentConfig, model: GaussianModel) -> Result:
    from .svgplot import line_chart

    rows = metrics.tradeoff_curve(
        model,
        cfg.tradeoff.gammas,
        cfg.run.trials,
        cfg.run.seed,
        detector=cfg.detector.kind,
        arl_trials=cfg.tradeoff.arl_trials,
        window=cfg.detector.window,
    )
    csv_rows = [(r.gamma, r.threshold, r.arl.lcb95, r.cadd.mean_delay, r.bound) for r in rows]
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
    ok = all(r.arl.lcb95 >= r.gamma for r in rows)
    worst = min(r.arl.lcb95 / r.gamma for r in rows)
    return ok, f"{len(rows)} gamma(s), min arl_lcb/gamma={worst:.3f}", {
        "tradeoff.csv": (["gamma", "A", "arl_lcb", "cadd", "bound"], csv_rows),
        "tradeoff.svg": svg,
    }


def cmd_simulate(cfg: ExperimentConfig, model: GaussianModel) -> Result:
    run = cfg.run
    taus = metrics.simulate_trials(
        model,
        cfg.detector.kind,
        cfg.detector.threshold_value,
        run.nu,
        run.horizon,
        run.trials,
        run.seed,
        window=cfg.detector.window,
    ).tolist()
    # tau 0 is a censored trial, 0 < tau < nu a false alarm, and tau >= nu a detection
    rows = [
        (i, t or None, None if t else run.horizon, int(0 < t < run.nu), t - run.nu if t >= run.nu else None)
        for i, t in enumerate(taus)
    ]
    header = ["trial", "tau", "censored_at", "false_alarm", "delay"]
    censored = taus.count(0)
    false_alarms = sum(row[3] for row in rows)
    detail = f"trials={len(taus)} stopped={len(taus) - censored} censored={censored} false_alarms={false_alarms}"
    return True, detail, {"outcomes.csv": (header, rows)}


#: every command, by name: its function and its help line
_COMMANDS = {
    "demo": (cmd_demo, "simulate one seeded path and emit the statistic trace + SVG"),
    "verify": (cmd_verify, "run the optimality-condition checks and emit a report"),
    "arl": (cmd_arl, "estimate the mean time to false alarm"),
    "cadd": (cmd_cadd, "estimate the conditional average detection delay"),
    "tradeoff": (cmd_tradeoff, "estimate the false-alarm/delay tradeoff curve"),
    "simulate": (cmd_simulate, "run seeded detector trials and dump per-trial outcomes"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excusum",
        description="Sequential change detection for stochastically growing signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
    # one line per warning, so stderr names no path or source line
    with warnings.catch_warnings(record=True) as caught:
        try:
            ok, detail, files = _COMMANDS[args.command][0](cfg, cfg.model.build())
        except EstimationError as exc:
            print(f"{args.command}: FAIL {exc}", file=sys.stderr)
            return 1
        else:
            out = Path(cfg.output.directory)
            out.mkdir(parents=True, exist_ok=True)
            for name, content in files.items():
                if name.endswith(".csv"):
                    _write_table(out / name, *content, args.format == "json")
                elif name.endswith(".json"):
                    write_json(out / name, content)
                else:
                    (out / name).write_text(content, encoding="utf-8")
            print(f"{args.command}: {'PASS' if ok else 'FAIL'} {detail} -> {out}/{', '.join(files)}")
            return 0 if ok else 1
        finally:
            for w in caught:
                print(f"{args.command}: warning: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
