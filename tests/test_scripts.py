"""Smoke tests of the experiment scripts: each runs in a subprocess and
writes its CSV and SVG files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script, args, files",
    [
        ("reproduce_demo.py", ["--repeats", "5"], ["demo_path.csv", "demo_stat.csv", "demo.svg"]),
        (
            "tradeoff_study.py",
            ["--trials", "50", "--arl-trials", "20", "--gammas", "7.4", "20"],
            ["tradeoff.csv", "tradeoff.svg"],
        ),
    ],
)
def test_script_runs_and_writes_its_files(tmp_path, script, args, files):
    out = tmp_path / "out"
    proc = run_script(script, *args, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for name in files:
        assert (out / name).stat().st_size > 0, name
