#!/usr/bin/env python3
"""Compare every CLI output of this checkout with another revision's.

    python3 scripts/compare_outputs.py REV        # e.g. HEAD~ or a commit id

Extracts REV's ``src/`` with ``git archive`` into a temporary directory and
runs ``simulate``, ``initial-branch``, ``final-branch``, ``check-admissible``,
``synthesize`` and ``verify`` on six fixed scenarios, then ``verify
--control-csv`` replaying the ``control.csv`` that ``synthesize`` wrote for the
same scenario, once with this checkout's ``src/`` and once with REV's.  Every
exit code and every file the commands write (CSV and key=value) must match
byte for byte.  Two scenarios take the moving final branch
(``prefer_moving``), one of them under the C1 switching rules, one gives the
control as samples whose rate jumps across node pairs 1e-9 apart, the others
take the static branch.  Every
differing exit code and file is listed: a key=value file or ``verify.csv``
with each changed value (REV's beside this checkout's), any other CSV with
its row counts and, when they are equal, the largest change of each
changed column, absolute and relative to REV's largest magnitude in it (or,
when every value is equal as a float, the number of cells per column whose text
differs and how many of those differ only in the sign of a zero), a file
present on one side only as such.  It also prints the line count of
``src/debond/*.py`` on both sides, as ``wc -l`` counts it, and each module
whose count differs.  Exit status: 0
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


def _stepwise_control(T=6.0, piece=0.25, gap=1e-9):
    """u with a constant rate on each piece; the rate jumps across nodes b -+ gap."""
    n = round(T / piece)
    slopes = [2.5 * math.sin(1.3 * k + 0.4) for k in range(n)]
    xs, us = [0.0], [0.0]
    for k in range(1, n):
        b = k * piece
        u_b = us[-1] + slopes[k - 1] * (b - xs[-1])
        xs += [b - gap, b, b + gap]
        us += [u_b - slopes[k - 1] * gap, u_b, u_b + slopes[k] * gap]
    xs.append(T)
    us.append(us[-1] + slopes[-1] * (T - xs[-2]))
    return _table(xs, us)


# |ybar0'| of an active C1 target at ellbar0 = 2 with terminal speed 0.3 on the
# sampled toughness: alpha^2 = 1 - 2 kappa(2) / ybar0'(2)^2.
_C1_SLOPE = math.sqrt(2.0 * (1.0 + 0.1 * math.sin(1.3 * 2.0 + 0.4)) / (1.0 - 0.3 * 0.3))

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
    # Active C1 target (alpha = 0.3 at T) under prefer_moving on the sampled
    # toughness: the C1 backward branch starts and stays on the moving root.
    "c1-moving": f"""\
T: 6.0
solver: {{h: 1.0e-3, scheme: heun}}
toughness: {{samples: {_sampled_toughness()}, x_max: 8.0}}
initial: {{ell0: 1.0, regularity: C1, y0: {ZERO}, y1: {ZERO}}}
control:
  u: {{preset: sine, amplitude: 0.3, omega: 1.5, resolution: 3000}}
target:
  ellbar0: 2.0
  regularity: C1
  ybar0: {{preset: linear, intercept: {2.0 * _C1_SLOPE!r}, slope: {-_C1_SLOPE!r}}}
  ybar1: {{preset: constant, value: {0.3 * _C1_SLOPE!r}}}
branch: {{policy: prefer_moving}}
""",
    # Rate jumps under the byte-identity check: a stepwise control given as
    # samples, the sampled toughness and the zero target of the expansion.
    "stepwise-lipschitz": f"""\
T: 6.0
solver: {{h: 1.0e-3, scheme: heun}}
toughness: {{samples: {_sampled_toughness()}, x_max: 8.0}}
initial: {{ell0: 1.0, regularity: C01, y0: {ZERO}, y1: {ZERO}}}
control:
  u: {{samples: {_stepwise_control()}}}
target: {{ellbar0: 2.0, regularity: C01, ybar0: {ZERO}, ybar1: {ZERO}}}
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


def count_lines(src):
    """{file name: lines} of ``src/debond/*.py``, counted as ``wc -l`` counts them."""
    return {p.name: p.read_bytes().count(b"\n") for p in (Path(src) / "debond").glob("*.py")}


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


def _values(path):
    """{key: value} of a key=value file, or {metric: (value, passed)} of verify.csv."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.name == "verify.csv":
        rows = (line.split(",") for line in lines[1:] if line)
        return {row[0]: f"{row[1]} (passed={row[3]})" for row in rows}
    return dict(line.split("=", 1) for line in lines if "=" in line)


def _rows(path):
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines()[1:] if line)


def _cells(path):
    """{column name: its cells as text} of a CSV."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    return dict(zip(lines[0].split(","), zip(*(line.split(",") for line in lines[1:]))))


def _columns(path):
    """{column name: its values as floats} of a numeric CSV."""
    return {name: [float(cell) for cell in cells] for name, cells in _cells(path).items()}


def _column_changes(rev, here):
    """The largest change of each column that differs, absolute and relative to the column.

    The relative figure divides by REV's largest magnitude in the column, not by
    each old value, so a column that crosses zero reads as its scale warrants.
    """
    cols_rev, cols_here = _columns(rev), _columns(here)
    out = []
    for name in sorted(cols_rev.keys() & cols_here.keys()):
        old, new = cols_rev[name], cols_here[name]
        change = max(abs(b - a) for a, b in zip(old, new))
        if change:
            scale = max(abs(a) for a in old)
            rel = change / scale if scale else math.inf
            out.append(f"{name}: largest change {change:.3g} absolute, {rel:.3g} relative")
    return out


def _text_changes(rev, here):
    """Per column, the cells whose text differs and how many differ only in a zero's sign."""
    cells_rev, cells_here = _cells(rev), _cells(here)
    out = []
    for name in sorted(cells_rev.keys() & cells_here.keys()):
        pairs = [(a, b) for a, b in zip(cells_rev[name], cells_here[name]) if a != b]
        if pairs:
            signs = sum(1 for a, b in pairs if float(a) == float(b) == 0.0)
            out.append(f"{name}: {len(pairs)} cells differ in text only, {signs} of them "
                       "only in the sign of a zero")
    return out


def differences(a, b):
    """Every differing file as (relative path, detail lines; None if on one side only)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            out.append((rel, None))
            continue
        pa, pb = a / rel, b / rel
        if pa.read_bytes() == pb.read_bytes():
            continue
        if rel.suffix == ".csv" and rel.name != "verify.csv":
            rows_a, rows_b = _rows(pa), _rows(pb)
            details = [f"rows: {rows_b} at REV, {rows_a} here"]
            if rows_a == rows_b:
                details += _column_changes(pb, pa) or _text_changes(pb, pa)
            out.append((rel, details))
            continue
        va, vb = _values(pa), _values(pb)
        out.append((rel, [f"{key}: {vb.get(key, '-')} at REV, {va.get(key, '-')} here"
                          for key in sorted(va.keys() | vb.keys()) if va.get(key) != vb.get(key)]))
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
        lines_rev, lines_here = count_lines(rev_src), count_lines(ROOT / "src")
        print(f"src/debond/*.py: {sum(lines_rev.values())} lines at {argv[0]}, "
              f"{sum(lines_here.values())} here")
        for name in sorted(lines_rev.keys() | lines_here.keys()):
            if lines_rev.get(name) != lines_here.get(name):
                print(f"    {name}: {lines_rev.get(name, '-')} at {argv[0]}, "
                      f"{lines_here.get(name, '-')} here")
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
        for rel, details in differences(tmp / "here", tmp / "rev-out"):
            print(f"DIFFER {rel}" + (": on one side only" if details is None else ""))
            for line in details or ():
                print(f"    {line}")
            same = False
        if not same:
            return 1
        files = sum(1 for p in (tmp / "here").rglob("*") if p.is_file())
        summary = ", ".join(f"{s} {c}={code}" for (s, c), code in codes_here.items())
        print(f"identical: {files} files from {len(codes_here)} runs (exit codes: {summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
