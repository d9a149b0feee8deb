#!/usr/bin/env python3
"""Compare every CLI output of this checkout with another revision's, byte for byte.

    python3 scripts/compare_outputs.py REV        # e.g. HEAD~ or a commit id

Extracts REV's ``src/`` with ``git archive`` into a temporary directory and
runs ``simulate``, ``initial-branch``, ``final-branch``, ``check-admissible``,
``synthesize`` and ``verify`` on four fixed scenarios, then ``verify
--control-csv`` replaying the ``control.csv`` that ``synthesize`` wrote for the
same scenario, once with this checkout's ``src/`` and once with REV's.  Every
exit code and every file the commands write (CSV and key=value) must match.
One scenario takes the moving final branch (``prefer_moving``), the others
the static one.  Every differing exit code and file is listed (a file with
its first differing byte, or as present on one side only).  Exit status: 0
when all are identical, 1 when anything differs, 2 when REV cannot be
extracted.  Needs only the standard library plus the package's own
dependencies (numpy, PyYAML).
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("simulate", "initial-branch", "final-branch", "check-admissible", "synthesize",
            "verify")
ZERO = "{preset: constant, value: 0.0}"


def _table(xs, vs):
    return "[" + ", ".join(f"[{x!r}, {v!r}]" for x, v in zip(xs, vs)) + "]"


def _sampled_toughness():
    xs = [8.0 * i / 64 for i in range(65)]
    return _table(xs, [1.0 + 0.1 * math.sin(1.3 * x + 0.4) for x in xs])


SCENARIOS = {
    # README expansion: ell0 = 1 -> 2 at rest, kappa = 1, under u = 0.5 sin 2t.
    "expansion": f"""\
T: 6.0
solver: {{h: 1.0e-3, scheme: heun}}
toughness: {{preset: constant, value: 1.0}}
initial: {{ell0: 1.0, regularity: C01, y0: {ZERO}, y1: {ZERO}}}
control:
  u: {{preset: sine, amplitude: 0.5, omega: 2.0, resolution: 6000}}
target: {{ellbar0: 2.0, regularity: C01, ybar0: {ZERO}, ybar1: {ZERO}}}
""",
    # C1 target ybar0 = 0.25 sin(pi x / 2) on a sampled, non-constant toughness.
    "sampled-c1": f"""\
T: 6.0
solver: {{h: 1.0e-3, scheme: heun}}
toughness: {{samples: {_sampled_toughness()}, x_max: 8.0}}
initial: {{ell0: 1.0, regularity: C1, y0: {ZERO}, y1: {ZERO}}}
control:
  u: {{preset: sine, amplitude: 0.3, omega: 1.5, resolution: 3000}}
target:
  ellbar0: 2.0
  regularity: C1
  ybar0: {{preset: sine, amplitude: 0.25, omega: {math.pi / 2.0!r}, resolution: 1600}}
  ybar1: {ZERO}
""",
    # Short initial domain, first-order scheme, linear toughness, moving data.
    "small-ell0-euler": f"""\
T: 1.5
solver: {{h: 1.0e-3, scheme: euler}}
toughness: {{preset: linear, intercept: 0.5, slope: 1.0}}
initial:
  ell0: 0.05
  regularity: C01
  y0: {ZERO}
  y1: {{preset: linear, intercept: 0.4, slope: -2.0}}
control:
  u: {{preset: sine, amplitude: 0.4, omega: 3.0, resolution: 1500}}
target: {{ellbar0: 0.3, regularity: C01, ybar0: {ZERO}, ybar1: {ZERO}}}
""",
    # Constant ybar1 + ybar0' = sqrt(2/3) on the sampled toughness: the backward
    # branch takes the moving root everywhere (the final-branch oracle's target).
    "moving-sampled": f"""\
T: 6.0
solver: {{h: 1.0e-3, scheme: heun}}
toughness: {{samples: {_sampled_toughness()}, x_max: 8.0}}
initial: {{ell0: 1.0, regularity: C01, y0: {ZERO}, y1: {ZERO}}}
control:
  u: {{preset: sine, amplitude: 0.5, omega: 2.0, resolution: 6000}}
target:
  ellbar0: 2.0
  regularity: C01
  ybar0: {ZERO}
  ybar1: {{preset: constant, value: {math.sqrt(2.0 / 3.0)!r}}}
branch: {{policy: prefer_moving}}
""",
}


def extract_src(rev, dest):
    """Unpack REV's src/ under ``dest``; returns the path of that src/."""
    out = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         capture_output=True)
    if out.returncode != 0:
        raise RuntimeError(out.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(out.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src"


def run_all(src, config_dir, out_dir):
    """Run every command on every scenario; returns {(scenario, command): exit code}."""
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = {}
    for name in SCENARIOS:
        # (output label, command, extra arguments); the replay reads synthesize's output.
        replay = ["--control-csv", str(out_dir / name / "synthesize" / "control.csv")]
        runs = [(command, command, []) for command in COMMANDS]
        runs.append(("verify-replay", "verify", replay))
        for label, command, extra in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "debond.cli", command,
                 "--config", str(config_dir / f"{name}.yaml"),
                 "--out", str(out_dir / name / label), *extra],
                env=env, capture_output=True, text=True,
            )
            codes[name, label] = proc.returncode
    return codes


def differences(a, b):
    """Every differing file as (relative path, first differing byte or None if on one side)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            out.append((rel, None))
            continue
        da, db = (a / rel).read_bytes(), (b / rel).read_bytes()
        if da != db:
            offset = next((i for i, (x, y) in enumerate(zip(da, db)) if x != y),
                          min(len(da), len(db)))
            out.append((rel, offset))
    return out


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        try:
            rev_src = extract_src(argv[0], tmp / "rev")
        except (RuntimeError, OSError, tarfile.TarError) as err:
            print(f"error: cannot extract src/ of {argv[0]}: {err}", file=sys.stderr)
            return 2
        configs = tmp / "configs"
        configs.mkdir()
        for name, text in SCENARIOS.items():
            (configs / f"{name}.yaml").write_text(text, encoding="utf-8")
        codes_here = run_all(ROOT / "src", configs, tmp / "here")
        codes_rev = run_all(rev_src, configs, tmp / "rev-out")
        same = True
        for key, code in codes_here.items():
            if code != codes_rev[key]:
                print(f"DIFFER {key[0]} {key[1]}: exit {code} here, {codes_rev[key]} "
                      f"at {argv[0]}")
                same = False
        for rel, offset in differences(tmp / "here", tmp / "rev-out"):
            where = "on one side only" if offset is None else f"first differs at byte {offset}"
            print(f"DIFFER {rel}: {where}")
            same = False
        if not same:
            return 1
        files = sum(1 for p in (tmp / "here").rglob("*") if p.is_file())
        summary = ", ".join(f"{s} {c}={code}" for (s, c), code in codes_here.items())
        print(f"identical: {files} files from {len(codes_here)} runs (exit codes: {summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
