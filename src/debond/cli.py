"""Command-line front end: scenario files in, CSV time series out.

Commands: simulate, initial-branch, final-branch, check-admissible,
synthesize, verify.  Exit codes are the scripting contract:

    0  success (verify: all tolerances met)
    1  verify ran but at least one error exceeds its tolerance
    2  configuration problem (message names the offending field)
    3  solver failure (incompatible data, a front speed rounding to 1, memory, ...)
    4  control-time infeasibility
    5  no admissible branch / size constraint violated
    6  continuity assertion failed while assembling a C1 control

Every number is written as Python's ``"%.17g"`` prints it, so identical
configs produce byte-identical outputs.  CSV cells go through one vectorized
numpy formatter that writes the same bytes.  Each command imports its solver
modules when it is dispatched, so importing this module loads none of them.
"""

from __future__ import annotations

import functools
import os
import sys

import numpy as np

from .config import ConfigError, _number, load_config
from .errors import (
    C1SwitchViolation,
    ConstraintViolated,
    ContinuityFailure,
    DeadEnd,
    DebondError,
    IncompatibleTarget,
    InfeasibleTime,
)
from .func1d import SampledFunction, union
from .model import FRONT_TOL, CheckItem, ControlSignal, check_damping_bound, classify_final_state

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INFEASIBLE = 4
EXIT_DEAD_END = 5
EXIT_CONTINUITY = 6


def _fmt(x) -> str:
    return f"{float(x):.17g}"


# Rows formatted per numpy pass: bounds the formatter's temporaries, which
# peak at about 210 bytes a cell, most of it the cell words, their mask rows
# and the copy that tobytes makes.
_CSV_CHUNK = 1024

_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles


@functools.cache
def _csv_tables():
    """The CSV kernel's tables, built from bytes so that byte order cannot matter.

    A cell is six uint64 words, 48 byte slots: 0 the sign, 1-5 "0.000", digit k
    of 17 at 6 + 2k followed by a slot for the point, 40-47 "e-0N" and the
    separator.  Returns the tables lead, groups, tails, last and masks: word 0 is
    lead[digit 0], words 1-4 groups[g] ("d.d.d.d." of the 4-digit group g), word
    5 tails[(E + 6) 2 + row end]; last[k - 1, g] is the last nonzero digit of
    group k in 1-4, 0 for g = 0.  Mask row ((E + 6) 17 + last nonzero digit) 2 +
    sign is zero on the slots the "%.17g" layout drops.
    """
    quads = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
    quads = quads.reshape(10000, 4)
    groups = np.full((10000, 8), 46, np.uint8)
    groups[:, ::2] = quads
    lead = b"".join([b"-0.000%d." % k for k in range(10)])
    tails = b"".join([((b"e-0%d" % -e if e < -4 else b"") + sep).ljust(8, b"\0")
                      for e in range(-6, 17) for sep in (b",", b"\n")])
    place = ((quads != 48) * np.arange(1, 5, dtype=np.int8)).max(1)
    last = np.where(place > 0, place + np.arange(0, 16, 4, dtype=np.int8)[:, None], 0)
    e, last_digit, neg = np.unravel_index(np.arange(23 * 17 * 2), (23, 17, 2))
    e, last_digit = e[:, None] - 6, last_digit[:, None]
    # The digit the point follows; -1 where the "0." lead holds it.
    point = np.where(e < -4, 0, np.where(e < 0, -1, e))
    keep = np.zeros((e.size, 48), bool)
    keep[:, 0] = neg
    keep[:, 1:6] = np.arange(1, 6) <= np.where(point < 0, 1 - e, 0)
    keep[:, 6:39:2] = np.arange(17) <= np.maximum(point, last_digit)
    keep[:, 7:38:2] = np.arange(16) == np.where(last_digit > point, point, -1)
    keep[:, 40:] = True
    return (np.frombuffer(lead, np.uint64), groups.view(np.uint64).ravel(),
            np.frombuffer(tails, np.uint64), last, (keep * np.uint8(255)).view(np.uint64))


def _two_product(a, b):
    """hi + lo equal to a * b exactly: Dekker's product with Veltkamp's split."""
    hi = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _csv_text(block):
    """The rows of a 2-D float array as CSV bytes, each cell exactly as "%.17g" prints it."""
    lead, groups, tails, group_last, masks = _csv_tables()
    x = block.ravel()
    ax = np.abs(x)
    zero = ax == 0
    fast = zero | ((ax >= 1e-6) & (ax < 1e16))
    a = np.where(fast & ~zero, ax, 1.0)
    # log10 may miss the decimal exponent E by one beside a power of ten; the
    # unrounded product |x| 10^(16 - E), in [1e16, 1e17), decides it.
    e = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.int8)
    hi, lo = _two_product(a, _POW10[16 - e])
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    e += above
    e -= below
    fast &= e >= -6  # the double 1e-6 lies below 10^-6
    e[~fast | zero] = 0
    moved = np.flatnonzero(above | below)
    hi[moved], lo[moved] = _two_product(a[moved], _POW10[16 - e[moved]])
    # hi >= 2^53 is an even integer, so this rounds the 17 digits half to even.
    # They never round up to 10^17: below each power of ten 10^m, -5 <= m <= 16,
    # the nearest double is over 4e-17 of it away, not within 5e-18.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    d[zero] = 0
    words = np.empty((x.size, 6), np.uint64)
    last = np.zeros(x.size, np.int8)
    for k in range(4, 0, -1):  # digits 4k - 3 to 4k
        q = d // 10000
        d -= q * 10000
        words[:, k] = np.take(groups, d)
        np.maximum(last, np.take(group_last[k - 1], d), out=last)
        d = q
    words[:, 0] = np.take(lead, d)
    e6 = (e + 6).astype(np.intp)
    sep = 2 * e6
    sep.reshape(block.shape)[:, -1] += 1  # "\n" ends a row
    words[:, 5] = np.take(tails, sep)
    words &= np.take(masks, (e6 * 17 + last) * 2 + np.signbit(x), axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:  # non-finite, subnormal, below 10^-6 (the double 1e-6 too) or from 1e16
        # Written after the mask into words 0-4; word 5 keeps the separator.
        text = "".join([("%.17g" % v).ljust(40, "\0") for v in x[slow].tolist()])
        words[slow, :5] = np.frombuffer(text.encode("ascii"), np.uint64).reshape(-1, 5)
    return words.tobytes().translate(None, b"\0")


def _write_csv(path, header, columns):
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for lo in range(0, len(columns[0]), _CSV_CHUNK):
            fh.write(_csv_text(np.column_stack(
                [np.asarray(col[lo:lo + _CSV_CHUNK], dtype=float) for col in columns])))


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _keyvals(obj, *names):
    """``name=value`` lines of the named attributes of obj."""
    return [f"{name}={_fmt(getattr(obj, name))}" for name in names]


def _outdir(cfg, args):
    directory = args.out or cfg.output.get("directory", "out")
    os.makedirs(directory, exist_ok=True)
    return directory


def _control_csv(path, control):
    grid = union(control.u.xs, control.uprime.xs)
    _write_csv(path, ["t", "u", "uprime"], [grid, control.u(grid), control.uprime(grid)])


_BRANCH_HEADER = ("t", "scriptL", "scriptLprime")


def _front_csv(path, front, header=("t", "ell", "ellprime")):
    _write_csv(path, header, [front.times, front.positions, front.speeds])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, args):
    from .forward import solve_front

    initial = cfg.build_initial()
    control = cfg.build_control()
    kappa = cfg.build_toughness()
    scfg = cfg.solver_config()
    sol = solve_front(initial, control, kappa, scfg)
    out = _outdir(cfg, args)

    _front_csv(os.path.join(out, "front.csv"), sol.front)
    trace = sol.trace_function()
    _write_csv(os.path.join(out, "trace.csv"), ["s", "f", "fprime"],
               [trace.xs, sol.trace_value(trace.xs), trace.vs])
    _control_csv(os.path.join(out, "control.csv"), control)
    n = cfg.output.get("state_points", 512)
    xs = np.linspace(0.0, sol.front.ell(scfg.T), n + 1)
    y, dty, dxy = sol.reconstruct(scfg.T, xs)
    _write_csv(os.path.join(out, "state_at_T.csv"), ["x", "y", "dty", "dxy"],
               [xs, y, dty, dxy])
    return EXIT_OK


def cmd_initial_branch(cfg, args):
    from .forward import solve_initial_branch

    initial = cfg.build_initial()
    kappa = cfg.build_toughness()
    res = solve_initial_branch(initial, kappa, cfg.solver_config())
    out = _outdir(cfg, args)
    _front_csv(os.path.join(out, "initial_branch.csv"), res.front)
    _write_lines(os.path.join(out, "initial_branch.txt"),
                 _keyvals(res, "t_star", "ell_star", "ell_star_prime")
                 + [f"slope_authoritative={str(res.slope_authoritative).lower()}"])
    return EXIT_OK


def cmd_final_branch(cfg, args):
    from .branch import solve_final_branch

    target = cfg.build_target()
    kappa = cfg.build_toughness()
    res = solve_final_branch(target, kappa, cfg.T, cfg.branch_policy())
    out = _outdir(cfg, args)
    _front_csv(os.path.join(out, "branch.csv"), res.front_segment, _BRANCH_HEADER)
    _write_lines(os.path.join(out, "final_branch.txt"),
                 _keyvals(res, "t_bar_star", "ell_bar_star", "ell_bar_star_prime", "alpha"))
    return EXIT_OK


def cmd_check_admissible(cfg, args):
    target = cfg.build_target(strict=False)
    kappa = cfg.build_toughness()
    items = [CheckItem("final_set_ybar0_vanishes", abs(target.ybar0(target.ellbar0)), FRONT_TOL)]

    damp = check_damping_bound(target, kappa(target.ellbar0)).items[0]
    items.append(CheckItem("damping_bound", max(damp.residual, 0.0), damp.tol))

    if target.regularity == "C1":
        try:
            alpha = classify_final_state(target, kappa)
            items.append(CheckItem("terminal_classification", 0.0, FRONT_TOL))
            items.append(CheckItem("alpha", alpha, 1.0))
        except IncompatibleTarget:
            items.append(CheckItem("terminal_classification",
                                   abs(target.ybar1(target.ellbar0)), FRONT_TOL))

    out = _outdir(cfg, args)
    lines = ["check,passed,residual,tol"]
    for item in items:
        lines.append(f"{item.name},{str(item.passed).lower()},{_fmt(item.residual)},"
                     f"{_fmt(item.tol)}")
    _write_lines(os.path.join(out, "admissibility.csv"), lines)
    return EXIT_OK if all(item.passed for item in items) else EXIT_VERIFY_FAILED


def _synthesize(cfg):
    from .branch import solve_final_branch
    from .control import synthesize_c01, synthesize_c1

    initial = cfg.build_initial()
    target = cfg.build_target()
    kappa = cfg.build_toughness()
    scfg = cfg.solver_config()
    branch = solve_final_branch(target, kappa, cfg.T, cfg.branch_policy())
    c1 = initial.regularity == "C1" and target.regularity == "C1"
    synth = synthesize_c1 if c1 else synthesize_c01
    report = synth(initial, target, kappa, cfg.T, branch, scfg)
    return report, initial, target, kappa, scfg


def _emit_synthesis(report, out):
    _control_csv(os.path.join(out, "control.csv"), report.control)
    _front_csv(os.path.join(out, "branch.csv"), report.branch.front_segment, _BRANCH_HEADER)
    _write_lines(os.path.join(out, "plan.txt"),
                 [f"case={report.plan.case}"] + _keyvals(report.plan, "v", "delta", "t_circ")
                 + _keyvals(report.initial_branch, "t_star", "ell_star", "ell_star_prime")
                 + _keyvals(report.branch, "t_bar_star", "ell_bar_star", "ell_bar_star_prime",
                            "alpha")
                 + [f"stage_s{k}={_fmt(s)}" for k, s in enumerate(report.stage_boundaries, 1)])


def cmd_synthesize(cfg, args):
    report, *_ = _synthesize(cfg)
    _emit_synthesis(report, _outdir(cfg, args))
    return EXIT_OK


def _load_control_csv(path):
    """The control a ``control.csv`` holds; any unreadable file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines() or [""]
        if lines[0] != "t,u,uprime":
            raise ValueError(f"header is {lines[0]!r}, expected 't,u,uprime'")
        table = []
        for number, line in enumerate(lines[1:], start=2):  # errors name the file's line
            if not line.strip():
                continue
            cells = line.split(",")
            try:
                if len(cells) != 3:
                    raise ValueError(f"{len(cells)} cells, expected 3")
                table.append([float(cell) for cell in cells])
            except ValueError as err:
                raise ValueError(f"line {number}: {err}") from None
        if not table:
            raise ValueError("no data rows")
        t, u, uprime = np.array(table).T
        return ControlSignal(SampledFunction(t, u), SampledFunction(t, uprime))
    except (OSError, ValueError) as err:
        raise ConfigError("--control-csv", f"cannot read {path}: {err}") from err


def cmd_verify(cfg, args):
    from .control import verify_control, verify_synthesis

    out = _outdir(cfg, args)
    tol_front, tol_disp, tol_vel = cfg.verify_tolerances()
    if args.control_csv:
        initial = cfg.build_initial()
        target = cfg.build_target()
        kappa = cfg.build_toughness()
        scfg = cfg.solver_config()
        control = _load_control_csv(args.control_csv)
        result = verify_control(control, initial, target, kappa, scfg)
    else:
        report, initial, target, kappa, scfg = _synthesize(cfg)
        _emit_synthesis(report, out)
        result = verify_synthesis(report, initial, target, kappa, scfg)

    items = [
        CheckItem("front_error", result.front_error, tol_front),
        CheckItem("displacement_sup_error", result.displacement_error, tol_disp),
        CheckItem("velocity_sup_interior_error", result.velocity_error, tol_vel),
    ]
    lines = ["metric,value,tolerance,passed"]
    for item in items:
        lines.append(f"{item.name},{_fmt(item.residual)},{_fmt(item.tol)},"
                     f"{str(item.passed).lower()}")
    _write_lines(os.path.join(out, "verify.csv"), lines)
    return EXIT_OK if result.within(tol_front, tol_disp, tol_vel) else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "initial-branch": cmd_initial_branch,
    "final-branch": cmd_final_branch,
    "check-admissible": cmd_check_admissible,
    "synthesize": cmd_synthesize,
    "verify": cmd_verify,
}


@functools.cache
def _parser():
    """The argument parser, built on first use: argparse is imported only here."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="debond",
        description="Simulate and steer a 1D dynamic debonding front via boundary control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--h", type=float, default=None, help="override the time step")
        p.add_argument(
            "--policy",
            choices=("prefer_static", "prefer_moving"),
            default=None,
            help="override the branch policy",
        )
        if name == "verify":
            p.add_argument(
                "--control-csv",
                default=None,
                help="replay this control file instead of synthesizing one",
            )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.h is not None:
            cfg.solver["h"] = _number({"--h": args.h}, "--h", "", positive=True)
        if args.policy is not None:
            cfg.branch["policy"] = args.policy
        code = _COMMANDS[args.command](cfg, args)
    except (ConfigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleTime as err:
        print(f"error: infeasible control time: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DeadEnd, ConstraintViolated, C1SwitchViolation) as err:
        print(f"error: no admissible branch: {err}", file=sys.stderr)
        return EXIT_DEAD_END
    except ContinuityFailure as err:
        print(f"error: continuity assertion failed: {err}", file=sys.stderr)
        return EXIT_CONTINUITY
    except (DebondError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except (RecursionError, FloatingPointError, OverflowError) as err:
        print(f"error: numerical failure ({type(err).__name__}): {err}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as err:  # numpy's message names the failed allocation
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_SOLVER
    return code


if __name__ == "__main__":
    sys.exit(main())
