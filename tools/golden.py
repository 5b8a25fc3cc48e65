"""Write or check the golden record of every CLI output.

Runs each of the 6 commands on each ``configs/*.json`` with ``--format csv``
and ``--format json`` (12 runs a config, one process each, two at a time),
and for every run records the exit code and the SHA-256 of stdout, of
stderr and of each output file, with the run's output directory replaced
by ``<OUT>`` in stdout and stderr.  The record also holds the Python
version (major.minor) and the numpy version that made it, since numpy does
not promise the same streams across versions.

    python3 tools/golden.py --write   # rewrite tools/golden.json
    python3 tools/golden.py --check   # exit 1 on any difference from it

``--check`` fails, naming both versions, when the running Python or numpy
differs from the recorded one, and otherwise names every run, stream or file
whose digest differs.  A change that means to move outputs rewrites the
record and says which outputs moved and why.

Imports the package from ``src/`` next to this script; stdlib only.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tools" / "golden.json"
COMMANDS = ("demo", "verify", "arl", "cadd", "tradeoff", "simulate")
FORMATS = ("csv", "json")
PLACEHOLDER = "<OUT>"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    return {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": numpy}


def run_one(command: str, config: Path, fmt: str, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "excusum.cli", command, "--config", str(config), "--out", str(out), "--format", fmt]
    proc = subprocess.run(argv, capture_output=True, cwd=ROOT, env=env)
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    return {
        "exit": proc.returncode,
        "stdout": digest(proc.stdout.replace(str(out).encode(), PLACEHOLDER.encode())),
        "stderr": digest(proc.stderr.replace(str(out).encode(), PLACEHOLDER.encode())),
        "files": {p.relative_to(out).as_posix(): digest(p.read_bytes()) for p in files},
    }


def golden_runs() -> list[tuple[str, Path, str]]:
    """(command, config, format) of every run the record holds."""
    return [(c, cfg, f) for cfg in sorted((ROOT / "configs").glob("*.json")) for c in COMMANDS for f in FORMATS]


def sweep() -> dict:
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(max_workers=2) as pool:
        jobs = {
            f"{c} {cfg.name} {f}": pool.submit(run_one, c, cfg, f, Path(tmp) / f"{c}-{cfg.stem}-{f}")
            for c, cfg, f in golden_runs()
        }
        return {name: job.result() for name, job in jobs.items()}


def differences(want: dict, got: dict) -> list[str]:
    lines = [f"{name}: missing from the record" for name in sorted(got.keys() - want.keys())]
    for name in sorted(want):
        if name not in got:
            lines.append(f"{name}: no longer run")
            continue
        w, g = want[name], got[name]
        for key in ("exit", "stdout", "stderr"):
            if w[key] != g[key]:
                lines.append(f"{name}: {key} differs ({w[key]} -> {g[key]})")
        for file in sorted(w["files"].keys() | g["files"].keys()):
            if w["files"].get(file) != g["files"].get(file):
                lines.append(f"{name}: {file} differs ({w['files'].get(file)} -> {g['files'].get(file)})")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the record from this checkout")
    mode.add_argument("--check", action="store_true", help="compare this checkout with the record")
    args = parser.parse_args()
    have = versions()
    if args.write:
        RECORD.write_text(json.dumps({**have, "runs": sweep()}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"golden: wrote {RECORD.relative_to(ROOT)}")
        return 0
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    wrong = [f"{k} {record[k]} recorded, {have[k]} running" for k in ("python", "numpy") if record[k] != have[k]]
    if wrong:
        print(f"golden: version mismatch: {'; '.join(wrong)}", file=sys.stderr)
        return 1
    lines = differences(record["runs"], sweep())
    for line in lines:
        print(f"golden: {line}", file=sys.stderr)
    print(f"golden: {len(record['runs'])} runs, {'FAIL' if lines else 'PASS'}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
