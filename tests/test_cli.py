"""CLI surface: config validation, file outputs, determinism, exit codes."""

import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from excusum import detectors, metrics
from excusum.cli import _fmt, main
from excusum.config import DEFAULT_CONFIG, ConfigError, ExperimentConfig
from excusum.detectors import DETECTORS


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def base_config(outdir, **run_overrides):
    run = {"nu": 80, "horizon": 200, "seed": 7, "trials": 50}
    run.update(run_overrides)
    return {
        "model": {"family": "gaussian", "schedule": {"kind": "arctangent"}},
        "detector": {"detector": "ex-cusum", "gamma": 1000.0},
        "run": run,
        "output": {"directory": str(outdir)},
    }


# ---------------------------------------------------------------------------
# config validation


def test_default_config_is_valid():
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(DEFAULT_CONFIG)))
    assert cfg.run.nu == 80 and cfg.run.horizon == 200
    assert cfg.detector.threshold_value == math.log(1000.0)
    assert cfg.detector.gamma_value == 1000.0
    # the built-in default is the paper's demo
    assert cfg == ExperimentConfig.from_file(CONFIGS / "demo.json")


def test_unknown_field_is_rejected_with_path():
    with pytest.raises(ConfigError, match="run"):
        ExperimentConfig.from_dict(
            {
                "model": {"family": "gaussian", "schedule": {"kind": "arctangent"}},
                "detector": {"detector": "ex-cusum", "gamma": 10.0},
                "run": {"nu": 1, "horizon": 5, "seed": 0, "trials": 1, "bogus": 2},
            }
        )


@pytest.mark.parametrize(
    "patch, path_fragment",
    [
        ({"model": {"family": "laplace", "schedule": {"kind": "arctangent"}}}, "model.family"),
        ({"model": {"family": "gaussian", "schedule": {"kind": "arctangent", "mu": 2.0}}}, "model.schedule.mu"),
        ({"model": {"family": "gaussian", "schedule": {"kind": "constant"}}}, "model.schedule.mu"),
        ({"model": {"family": "gaussian", "schedule": {"kind": "explicit-table", "table": []}}}, "model.schedule.table"),
        ({"detector": {"detector": "ex-cusum"}}, "detector"),
        ({"detector": {"detector": "ex-cusum", "gamma": 10.0, "threshold": 1.0}}, "detector"),
        ({"detector": {"detector": "ex-cusum", "gamma": 0.5}}, "detector.gamma"),
        ({"detector": {"detector": "nope", "gamma": 10.0}}, "detector.detector"),
        ({"run": {"nu": "never", "horizon": 5, "seed": 0, "trials": 1}}, "run.nu"),
        ({"run": {"nu": 1, "horizon": 0, "seed": 0, "trials": 1}}, "run.horizon"),
        ({"run": {"nu": 1, "horizon": 5, "trials": 1}}, "run"),  # seed is mandatory
        ({"output": {"formats": ["csv"]}}, "output"),  # no such field
        ({"detector": {"detector": "sr", "gamma": 10.0, "window": 5}}, "detector.window"),
        (
            {"model": {"family": "gaussian", "schedule": {"kind": "linear-saturating", "mu": 1.0, "params": {"slope": -1}}}},
            "model.schedule",
        ),
        (
            {"model": {"family": "gaussian", "schedule": {"kind": "linear-saturating", "mu": 1.0, "params": {"slope": "abc"}}}},
            "model.schedule.params.slope",
        ),
    ],
)
def test_schema_violations_carry_field_paths(patch, path_fragment):
    obj = {
        "model": {"family": "gaussian", "schedule": {"kind": "arctangent"}},
        "detector": {"detector": "ex-cusum", "gamma": 10.0},
        "run": {"nu": 1, "horizon": 5, "seed": 0, "trials": 1},
    }
    obj.update(patch)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(obj)
    assert path_fragment in str(err.value)


def test_every_detector_kind_is_accepted_and_windows_only_where_allowed():
    for kind, spec in DETECTORS.items():
        obj = {
            "model": {"family": "gaussian", "schedule": {"kind": "arctangent"}},
            "detector": {"detector": kind, "gamma": 10.0},
            "run": {"nu": 1, "horizon": 5, "seed": 0, "trials": 1},
        }
        assert ExperimentConfig.from_dict(obj).detector.kind == kind
        obj["detector"]["window"] = 3
        if spec.windowed:
            assert ExperimentConfig.from_dict(obj).detector.window == 3
        else:
            with pytest.raises(ConfigError, match=r"^detector\.window"):
                ExperimentConfig.from_dict(obj)


@pytest.mark.parametrize(
    "section, value, path",
    [
        ("detector", {"detector": "sr", "gamma": 10.0, "window": 5}, "detector.window"),
        (
            "model",
            {"family": "gaussian", "schedule": {"kind": "linear-saturating", "mu": 1.0, "params": {"slope": -1}}},
            "model.schedule",
        ),
        # a NaN gamma failed at its ARL horizon, and an infinite one never finished
        ("tradeoff", {"gammas": [7.38, math.nan]}, "tradeoff.gammas"),
        ("tradeoff", {"gammas": [7.38, math.inf]}, "tradeoff.gammas"),
    ],
)
def test_config_rejected_at_load_exits_2_before_running(tmp_path, capsys, section, value, path):
    obj = base_config(tmp_path / "out")
    obj[section] = value
    assert main(["arl", "--config", write_config(tmp_path, obj)]) == 2
    assert f"config error: {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("use_file", [True, False], ids=["demo.json", "default"])
@pytest.mark.parametrize(
    "flags, path",
    [
        (["--seed", "-1"], "run.seed"),
        (["--seed", str(2**64)], "run.seed"),
        (["--out", ""], "output.directory"),
    ],
)
def test_seed_and_out_flags_meet_the_config_schema(tmp_path, monkeypatch, capsys, use_file, flags, path):
    # run in an empty directory, so a write to the working directory shows
    monkeypatch.chdir(tmp_path)
    config = ["--config", str(CONFIGS / "demo.json")] if use_file else []
    assert main(["simulate", *config, *flags]) == 2
    assert f"config error: {path}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_nu_inf_string_accepted():
    cfg = ExperimentConfig.from_dict(
        {
            "model": {"family": "gaussian", "schedule": {"kind": "constant", "mu": 1.0}},
            "detector": {"detector": "sr", "threshold": 4.0},
            "run": {"nu": "inf", "horizon": 5, "seed": 0, "trials": 1},
        }
    )
    assert math.isinf(cfg.run.nu)


def test_schedule_kinds_build(tmp_path):
    for sched in (
        {"kind": "constant", "mu": 1.0},
        {"kind": "arctangent"},
        {"kind": "linear-saturating", "mu": 1.0, "params": {"slope": 0.2}},
        {"kind": "geometric-approach", "mu": 1.5, "params": {"ratio": 0.5}},
        {"kind": "explicit-table", "table": [0.1, 0.5, 0.9]},
    ):
        obj = {
            "model": {"family": "gaussian", "schedule": sched},
            "detector": {"detector": "ex-cusum", "threshold": 3.0},
            "run": {"nu": 1, "horizon": 5, "seed": 0, "trials": 1},
        }
        cfg = ExperimentConfig.from_dict(obj)
        model = cfg.model.build()
        assert model.schedule.kind == sched["kind"]


def test_bad_config_file_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["demo", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["demo", "--config", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# demo


def test_demo_writes_files_and_is_byte_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["demo", "--config", cfg]) == 0
    out = tmp_path / "out"
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    assert set(first) == {"demo_path.csv", "demo_stat.csv", "demo.svg"}
    assert main(["demo", "--config", cfg]) == 0
    second = {f.name: f.read_bytes() for f in out.iterdir()}
    assert first == second

    header, *rows = (out / "demo_path.csv").read_text().strip().splitlines()
    assert header == "n,x_n"
    assert len(rows) == 200
    # floats carry 17 significant digits
    assert any(len(r.split(",")[1]) >= 17 for r in rows)

    svg = (out / "demo.svg").read_text()
    ET.fromstring(svg)  # well-formed XML
    assert "polyline" in svg and "threshold" in svg


def test_demo_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path / "out"))
    main(["demo", "--config", cfg])
    baseline = (tmp_path / "out" / "demo_stat.csv").read_bytes()
    main(["demo", "--config", cfg, "--seed", "12345"])
    assert (tmp_path / "out" / "demo_stat.csv").read_bytes() != baseline


def test_demo_statistic_quiet_then_growing(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path / "out", seed=20220914))
    main(["demo", "--config", cfg])
    rows = (tmp_path / "out" / "demo_stat.csv").read_text().strip().splitlines()[1:]
    stats = [float(r.split(",")[1]) for r in rows]
    assert max(stats[:79]) < math.log(1000.0)
    assert max(stats[79:]) > math.log(1000.0)


def test_demo_quality_across_seeds():
    # the default demo behavior, tallied over many seeds: quiet before the
    # change and a crossing within 100 steps of it, each in >= 95% of runs
    import numpy as np

    from excusum import ChangeSpec, MeanSchedule, gaussian_model, generate_path, statistic_trace
    from excusum.process import derive_seed

    model = gaussian_model(MeanSchedule.arctangent())
    a = math.log(1000.0)
    runs, quiet, fast = 200, 0, 0
    for t in range(runs):
        path = generate_path(model, ChangeSpec(nu=80, horizon=200, seed=derive_seed(606, t)))
        trace = statistic_trace("ex-cusum", model, path)
        if float(trace[:79].max()) < a:
            quiet += 1
        crossings = np.nonzero(trace > a)[0]
        if crossings.size and crossings[0] + 1 <= 100:
            fast += 1
    assert quiet >= 0.95 * runs
    assert fast >= 0.95 * runs


def test_demo_no_change_variant_stays_quiet():
    # with nu = "inf" the statistic shows no sustained growth: the final
    # value sits under log(1000) in >= 95% of seeded runs at horizon 200
    import numpy as np

    from excusum import NO_CHANGE, ChangeSpec, MeanSchedule, gaussian_model, generate_path, statistic_trace
    from excusum.process import derive_seed

    model = gaussian_model(MeanSchedule.arctangent())
    a = math.log(1000.0)
    runs, quiet_at_end = 200, 0
    for t in range(runs):
        path = generate_path(model, ChangeSpec(nu=NO_CHANGE, horizon=200, seed=derive_seed(607, t)))
        trace = statistic_trace("ex-cusum", model, path)
        if trace[-1] < a:
            quiet_at_end += 1
    assert quiet_at_end >= 0.95 * runs


@pytest.mark.filterwarnings("ignore:schedule is identically zero")
@pytest.mark.parametrize("kind, tau", [("cusum", "1"), ("ex-cusum", ""), ("sr", "2")])
def test_demo_and_simulate_stop_by_the_kinds_crossing_rule(tmp_path, capsys, kind, tau):
    # on the zero schedule every path gives W_n = 0 (CUSUM and ex-cusum) and
    # log R_n = log n (SR), so at threshold 0 the classic CUSUM's weak rule
    # stops at once, ex-cusum's strict rule never stops, and SR stops at 2
    obj = base_config(tmp_path / "out", nu=1, horizon=20, trials=3)
    obj["model"]["schedule"] = {"kind": "constant", "mu": 0.0}
    obj["detector"] = {"detector": kind, "threshold": 0.0}
    cfg = write_config(tmp_path, obj)
    assert main(["demo", "--config", cfg]) == 0
    assert f" tau={tau or 'censored'} " in capsys.readouterr().out
    assert main(["simulate", "--config", cfg]) == 0
    trial0 = (tmp_path / "out" / "outcomes.csv").read_text().splitlines()[1].split(",")
    assert trial0[:3] == ["0", tau, "" if tau else "20"]


def test_line_chart_escapes_markup_in_every_label():
    from excusum.svgplot import line_chart

    svg = line_chart(
        [("a<b", [1, 2], [0.0, 1.0])],
        title="x & y",
        xlabel="n<m",
        ylabel="w>0",
        hlines=[("A & <B>", 0.5)],
        vlines=[("nu > 1", 1.5)],
    )
    texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    for label in ("a<b", "x & y", "n<m", "w>0", "A & <B>", "nu > 1"):
        assert label in texts
    assert "&amp; &lt;B&gt;" in svg and "a&lt;b" in svg


def test_importing_the_cli_loads_no_network_or_email_modules():
    import os
    import subprocess
    import sys

    # nor what only some commands run: the condition checks (verify), the
    # plots (demo, tradeoff), and the numpy.ma and thread-pool modules
    # that neither needs
    code = (
        "import sys, excusum.cli; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request', 'http.client', 'email', 'concurrent.futures',"
        " 'excusum.conditions', 'excusum.svgplot', 'numpy.ma') if m in sys.modules))"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_loads_no_numpy_ma(tmp_path):
    import os
    import subprocess
    import sys

    # the SLLN quantiles interpolate without np.quantile, and the trace
    # indices de-duplicate without np.unique: both import numpy.ma
    code = (
        "import sys; from excusum.cli import main; "
        f"code = main(['verify', '--config', {str(CONFIGS / 'demo.json')!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "report.json").is_file()


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_for_arctan_and_writes_report(tmp_path, capsys):
    cfg_obj = base_config(tmp_path / "out", trials=10)
    cfg = write_config(tmp_path, cfg_obj)
    code = main(["verify", "--config", cfg])
    outtxt = capsys.readouterr().out
    assert code == 0
    assert "verify: PASS" in outtxt and "I=1.23" in outtxt
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert report["information_number_I"] == pytest.approx(math.pi**2 / 8, abs=2e-3)
    trace = (tmp_path / "out" / "conditions_trace.csv").read_text().splitlines()
    assert trace[0] == "n,cesaro_avg,moment_est,slln_q95"


@pytest.mark.parametrize(
    "command, stems",
    [("demo", ["demo_path", "demo_stat"]), ("verify", ["conditions_trace"])],
)
def test_json_format_mirrors_every_table(tmp_path, command, stems):
    cfg = write_config(tmp_path, base_config(tmp_path / "csv"))
    assert main([command, "--config", cfg]) == 0
    assert main([command, "--config", cfg, "--format", "json", "--out", str(tmp_path / "json")]) == 0
    plain = {f.name: f.read_bytes() for f in (tmp_path / "csv").iterdir()}
    both = {f.name: f.read_bytes() for f in (tmp_path / "json").iterdir()}
    # the CSV, SVG and report bytes stay; the only new files are the mirrors
    assert set(both) == set(plain) | {f"{stem}.json" for stem in stems}
    assert all(both[name] == data for name, data in plain.items())
    for stem in stems:
        header, *lines = plain[f"{stem}.csv"].decode().strip().splitlines()
        objs = json.loads(both[f"{stem}.json"])
        assert [",".join(_fmt(obj[h]) for h in header.split(",")) for obj in objs] == lines


def test_verify_command_bytes(tmp_path, capsys):
    # sha256 of verify's files and summary on the paper's demo config, recorded
    # before the checks drew their ratios in place on two threads
    out = tmp_path / "out"
    assert main(["verify", "--config", str(CONFIGS / "demo.json"), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in sorted(os.listdir(out))}
    assert digests == {
        "conditions_trace.csv": "86a55b4cdcb539ac7367e48b2a53cc57b71a09a31c54db32adbd9ee09810b6e2",
        "report.json": "0f9abc8b828890c2f107e00a868a3dd9c01c1d3294eeeecc1c214b997bdb85fd",
    }
    assert capsys.readouterr() == (f"verify: PASS I=1.23351 -> {out}/report.json, conditions_trace.csv\n", "")


def test_verify_fails_for_decreasing_table(tmp_path, capsys):
    obj = base_config(tmp_path / "out")
    obj["model"]["schedule"] = {"kind": "explicit-table", "table": [1.5, 1.0, 0.4]}
    cfg = write_config(tmp_path, obj)
    code = main(["verify", "--config", cfg])
    outtxt = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in outtxt and "mlr" in outtxt


# ---------------------------------------------------------------------------
# arl / cadd / tradeoff / simulate


def test_arl_command_writes_row_and_verdict(tmp_path, capsys):
    obj = base_config(tmp_path / "out", nu="inf", horizon=400, trials=300)
    obj["detector"]["gamma"] = 20.0
    cfg = write_config(tmp_path, obj)
    code = main(["arl", "--config", cfg])
    assert code == 0
    assert "arl: PASS" in capsys.readouterr().out
    header, row = (tmp_path / "out" / "arl.csv").read_text().strip().splitlines()
    assert header == "gamma,A,trials,mean_tau,stderr,censored_frac,lcb95"
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["lcb95"]) >= 20.0
    assert vals["trials"] == "300"


def test_arl_prints_a_short_horizon_warning_as_one_line(tmp_path, capsys):
    # no path or source line, so stderr does not depend on the checkout
    obj = base_config(tmp_path / "out", nu="inf", horizon=50, trials=5)
    assert main(["arl", "--config", write_config(tmp_path, obj)]) == 1
    assert capsys.readouterr().err == (
        "arl: warning: horizon 50 is below 10*exp(threshold) ~ 1e+04; "
        "heavy censoring will depress the ARL estimate\n"
    )


def test_cadd_command(tmp_path, capsys):
    obj = base_config(tmp_path / "out", nu=1, trials=200)
    cfg = write_config(tmp_path, obj)
    assert main(["cadd", "--config", cfg, "--format", "json"]) == 0
    header, row = (tmp_path / "out" / "cadd.csv").read_text().strip().splitlines()
    assert header == "gamma,A,nu,trials,accepted,mean_delay,stderr"
    mirrored = json.loads((tmp_path / "out" / "cadd.json").read_text())
    assert mirrored["nu"] == 1 and mirrored["accepted"] == 200


def test_tradeoff_command(tmp_path, capsys):
    obj = base_config(tmp_path / "out", trials=200)
    obj["tradeoff"] = {"gammas": [math.e**2, math.e**3], "arl_trials": 150}
    cfg = write_config(tmp_path, obj)
    assert main(["tradeoff", "--config", cfg]) == 0
    assert capsys.readouterr().out.rstrip().endswith("/tradeoff.csv, tradeoff.svg")
    lines = (tmp_path / "out" / "tradeoff.csv").read_text().strip().splitlines()
    assert lines[0] == "gamma,A,arl_lcb,cadd,bound"
    assert len(lines) == 3
    for line in lines[1:]:
        gamma, a, arl_lcb, cadd, bound = map(float, line.split(","))
        assert arl_lcb >= gamma
        assert bound == pytest.approx(a / (math.pi**2 / 8), abs=1e-12)


@pytest.mark.filterwarnings("ignore:horizon")
def test_tradeoff_honours_the_detector_window(tmp_path):
    from excusum.process import derive_seed

    obj = base_config(tmp_path / "plain", trials=60)
    obj["tradeoff"] = {"gammas": [7.4, 20.0], "arl_trials": 40}
    assert main(["tradeoff", "--config", write_config(tmp_path, obj)]) == 0
    plain = (tmp_path / "plain" / "tradeoff.csv").read_bytes()
    # a window of 5 still detects at these thresholds but moves both columns
    obj["detector"]["window"] = 5
    obj["output"]["directory"] = str(tmp_path / "windowed")
    assert main(["tradeoff", "--config", write_config(tmp_path, obj)]) == 0
    windowed = (tmp_path / "windowed" / "tradeoff.csv").read_bytes()
    assert windowed != plain

    model = ExperimentConfig.from_dict(obj).model.build()
    info = math.pi**2 / 8
    for j, line in enumerate(windowed.decode().strip().splitlines()[1:]):
        gamma, a, arl_lcb, cadd, _ = map(float, line.split(","))
        arl = metrics.estimate_arl2fa(model, "ex-cusum", a, 40, int(20 * gamma), derive_seed(7, 2 * j), window=5)
        delay = metrics.estimate_cadd(
            model,
            "ex-cusum",
            a,
            1,
            60,
            derive_seed(7, 2 * j + 1),
            horizon=metrics.default_delay_horizon(1, a, info),
            window=5,
        )
        assert (arl_lcb, cadd) == (arl.lcb95, delay.mean_delay)


def test_every_shipped_config_loads_and_runs(tmp_path):
    shipped = sorted(CONFIGS.glob("*.json"))
    assert {p.name for p in shipped} >= {"demo.json", "false_alarm.json", "tradeoff.json"}
    for path in shipped:
        ExperimentConfig.from_file(path)
    obj = json.loads(next(p for p in shipped if p.name == "tradeoff.json").read_text())
    obj["run"]["trials"] = 40
    obj["tradeoff"]["arl_trials"] = 20
    obj["output"]["directory"] = str(tmp_path / "out")
    assert main(["tradeoff", "--config", write_config(tmp_path, obj)]) == 0
    lines = (tmp_path / "out" / "tradeoff.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + len(obj["tradeoff"]["gammas"])
    root = ET.fromstring((tmp_path / "out" / "tradeoff.svg").read_text())
    texts = {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
    assert {"mean delay", "log(gamma)/I floor"} <= texts


@pytest.mark.filterwarnings("ignore:schedule is identically zero")
@pytest.mark.parametrize(
    "schedule",
    [{"kind": "constant", "mu": 0.0}, {"kind": "explicit-table", "table": [1.0, 0.5, 0.0]}],
)
@pytest.mark.parametrize("command", ["cadd", "tradeoff"])
def test_zero_information_number_fails_delay_commands(tmp_path, capsys, command, schedule):
    obj = base_config(tmp_path / "out", nu=1, trials=5)
    obj["model"]["schedule"] = schedule
    obj["tradeoff"] = {"gammas": [10.0], "arl_trials": 5}
    assert main([command, "--config", write_config(tmp_path, obj)]) == 1
    err = capsys.readouterr().err
    assert f"{command}: FAIL" in err and "information number" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_command_names_exactly_the_files_it_writes(tmp_path, capsys, fmt):
    # the summary line lists every file written but the JSON mirrors of its tables
    obj = base_config(tmp_path / "unused", trials=10)
    obj["detector"]["gamma"] = 20.0
    obj["tradeoff"] = {"gammas": [math.e**2], "arl_trials": 10}
    cfg = write_config(tmp_path, obj)
    for command in ("demo", "verify", "arl", "cadd", "tradeoff", "simulate"):
        out = tmp_path / command
        main([command, "--config", cfg, "--out", str(out), "--format", fmt])
        _, listed = capsys.readouterr().out.rstrip().split(" -> ")
        assert listed.startswith(f"{out}/")
        named = listed.removeprefix(f"{out}/").split(", ")
        written = {f.name for f in out.iterdir()}
        mirrors = {n.removesuffix(".csv") + ".json" for n in named if n.endswith(".csv")} if fmt == "json" else set()
        assert mirrors <= written
        assert sorted(named) == sorted(written - mirrors), command


def test_simulate_command(tmp_path, capsys):
    obj = base_config(tmp_path / "out", trials=25)
    cfg = write_config(tmp_path, obj)
    assert main(["simulate", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "outcomes.csv").read_text().strip().splitlines()
    assert lines[0] == "trial,tau,censored_at,false_alarm,delay"
    assert len(lines) == 26
    detections = 0
    for line in lines[1:]:
        trial, tau, censored_at, false_alarm, delay = line.split(",")
        assert censored_at == ""  # gamma=1000 stops well inside horizon 200
        if false_alarm == "1":
            assert int(tau) < 80 and delay == ""
        else:
            detections += 1
            assert int(tau) >= 80 and int(delay) == int(tau) - 80
    # the occasional pre-change false alarm is expected; detections dominate
    assert detections >= 20
    assert f" false_alarms={25 - detections} -> " in capsys.readouterr().out


#: outcomes.csv of test_simulate_command_bytes: a false alarm (trial 0),
#: censored trials (1, 4 and 5) and detections (2 and 3)
SIMULATE_CSV = """trial,tau,censored_at,false_alarm,delay
0,12,,1,
1,,26,0,
2,25,,0,5
3,23,,0,3
4,,26,0,
5,,26,0,
"""


#: its --format json mirror, outcomes.json
SIMULATE_JSON = """[
  {
    "censored_at": null,
    "delay": null,
    "false_alarm": 1,
    "tau": 12,
    "trial": 0
  },
  {
    "censored_at": 26,
    "delay": null,
    "false_alarm": 0,
    "tau": null,
    "trial": 1
  },
  {
    "censored_at": null,
    "delay": 5,
    "false_alarm": 0,
    "tau": 25,
    "trial": 2
  },
  {
    "censored_at": null,
    "delay": 3,
    "false_alarm": 0,
    "tau": 23,
    "trial": 3
  },
  {
    "censored_at": 26,
    "delay": null,
    "false_alarm": 0,
    "tau": null,
    "trial": 4
  },
  {
    "censored_at": 26,
    "delay": null,
    "false_alarm": 0,
    "tau": null,
    "trial": 5
  }
]
"""


def test_simulate_command_bytes(tmp_path, capsys):
    # gamma 100 on 26 steps with the change at 20 gives every kind of outcome
    obj = base_config(tmp_path / "out", nu=20, horizon=26, seed=15, trials=6)
    obj["detector"]["gamma"] = 100.0
    cfg = write_config(tmp_path, obj)
    assert main(["simulate", "--config", cfg, "--format", "json"]) == 0
    out = tmp_path / "out"
    assert (out / "outcomes.csv").read_bytes() == SIMULATE_CSV.encode()
    assert (out / "outcomes.json").read_bytes() == SIMULATE_JSON.encode()
    assert capsys.readouterr().out == (
        f"simulate: PASS trials=6 stopped=3 censored=3 false_alarms=1 -> {out}/outcomes.csv\n"
    )


#: arl.csv, arl.json and cadd.csv, cadd.json of test_lockstep_command_bytes
ARL_BOUNDED_CSV = """gamma,A,trials,mean_tau,stderr,censored_frac,lcb95
20,2.9957322735539909,8,75.5,22.884024371350666,0,37.859129513537972
"""
ARL_BOUNDED_JSON = """{
  "A": 2.995732273553991,
  "censored_frac": 0.0,
  "gamma": 20.0,
  "lcb95": 37.85912951353797,
  "mean_tau": 75.5,
  "stderr": 22.884024371350666,
  "trials": 8
}
"""
ARL_SR_CSV = """gamma,A,trials,mean_tau,stderr,censored_frac,lcb95
20,2.9957322735539909,8,28.5,3.5707142142714248,0,22.62669777384847
"""
ARL_SR_JSON = """{
  "A": 2.995732273553991,
  "censored_frac": 0.0,
  "gamma": 20.0,
  "lcb95": 22.62669777384847,
  "mean_tau": 28.5,
  "stderr": 3.5707142142714248,
  "trials": 8
}
"""
CADD_RERUN_CSV = """gamma,A,nu,trials,accepted,mean_delay,stderr
2.3538526683702e+17,40,1,8,8,34.375,1.870232032968866
"""
CADD_RERUN_JSON = """{
  "A": 40.0,
  "accepted": 8,
  "gamma": 2.3538526683702e+17,
  "mean_delay": 34.375,
  "nu": 1,
  "stderr": 1.870232032968866,
  "trials": 8
}
"""


@pytest.mark.parametrize(
    "command, schedule, detector, run, files, summary, head, bounded, reruns",
    [
        # bounded ex-cusum: every trial runs with the certified tail, none reruns
        (
            "arl",
            {"kind": "arctangent"},
            {"detector": "ex-cusum", "gamma": 20.0},
            {"horizon": 400, "seed": 3},
            (ARL_BOUNDED_CSV, ARL_BOUNDED_JSON),
            "mean_tau=75.5 lcb95=37.8591 gamma=20 censored=0.000",
            None,
            8,
            0,
        ),
        # SR folded at the saturation index, exact with no envelope
        (
            "arl",
            {"kind": "linear-saturating", "mu": 1.0, "params": {"slope": 0.1}},
            {"detector": "sr", "gamma": 20.0},
            {"horizon": 400, "seed": 4},
            (ARL_SR_CSV, ARL_SR_JSON),
            "mean_tau=28.5 lcb95=22.6267 gamma=20 censored=0.000",
            None,
            0,
            0,
        ),
        # at A = 40 the head sized from the schedule passes its cap, so the
        # trials run exact; forced to 32, most delays outrun it and most rerun
        (
            "cadd",
            {"kind": "arctangent"},
            {"detector": "ex-cusum", "threshold": 40.0},
            {"nu": 1, "seed": 1},
            (CADD_RERUN_CSV, CADD_RERUN_JSON),
            "nu=1 mean_delay=34.375 stderr=1.87 accepted=8/8",
            32,
            8,
            6,
        ),
    ],
    ids=["arl-bounded-ex-cusum", "arl-folded-sr", "cadd-reruns"],
)
def test_lockstep_command_bytes(
    tmp_path, capsys, monkeypatch, command, schedule, detector, run, files, summary, head, bounded, reruns
):
    # the bytes of the lockstep paths' tables, recorded before the lockstep
    # loop lost its wrappers; the trials that ran bounded and reran are counted
    counts = {"bounded": 0, "reruns": 0}
    lockstep = metrics._lockstep

    def counted(*args):
        taus = lockstep(*args)
        if args[-1] is not None:
            counts["bounded"] += taus.size
            counts["reruns"] += int(np.count_nonzero(taus < 0))
        return taus

    monkeypatch.setattr(metrics, "_lockstep", counted)
    if head is not None:
        monkeypatch.setattr(detectors, "_head", lambda model, threshold: head)
    obj = base_config(tmp_path / "out", trials=8, **run)
    obj["model"]["schedule"] = schedule
    obj["detector"] = detector
    assert main([command, "--config", write_config(tmp_path, obj), "--format", "json"]) == 0
    out = tmp_path / "out"
    assert (out / f"{command}.csv").read_bytes() == files[0].encode()
    assert (out / f"{command}.json").read_bytes() == files[1].encode()
    assert capsys.readouterr() == (f"{command}: PASS {summary} -> {out}/{command}.csv\n", "")
    assert counts == {"bounded": bounded, "reruns": reruns}


def test_chunk_size_does_not_change_simulate_output(tmp_path, monkeypatch):
    obj = base_config(tmp_path / "o1", trials=40)
    cfg = write_config(tmp_path, obj)
    monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", 1)  # one trial per chunk
    main(["simulate", "--config", cfg])
    one = (tmp_path / "o1" / "outcomes.csv").read_bytes()
    monkeypatch.setattr(metrics, "_CHUNK_ELEMENTS", 40 * 200)  # every trial in one chunk
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "o2")])
    every = (tmp_path / "o2" / "outcomes.csv").read_bytes()
    assert one == every
