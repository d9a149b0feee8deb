"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Produces genuine outputs of each workload on small inputs, confirms that
every check passes on them, then feeds each check a deliberately corrupted
copy (a perturbed front, a shifted trace column, a control whose u no longer
integrates its u', ...) and confirms that it reports a failure.  Exits 1 if
any check misses a corruption or rejects a genuine output.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402
from debond import branch, cli, control, forward, model  # noqa: E402

SELFTEST_H = 5e-3  # coarser than the workloads' step, so the self-test is quick


class Report:
    def __init__(self):
        self.misses = 0

    def expect(self, name, problems, should_fail):
        ok = bool(problems) == should_fail
        self.misses += not ok
        verdict = "ok  " if ok else "MISS"
        what = "corrupted" if should_fail else "genuine"
        detail = problems[0] if problems else "no problem reported"
        print(f"{verdict} {name} ({what}): {detail}")


def _rewrite_csv(path, column, change):
    table = W._read_csv(path)
    table[column] = change(table[column].copy())
    names = list(table)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*(table[n] for n in names)):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _rewrite_text(path, old, new):
    text = Path(path).read_text(encoding="utf-8")
    if old not in text:
        raise AssertionError(f"{old!r} not in {path}")
    Path(path).write_text(text.replace(old, new, 1), encoding="utf-8")


def cli_checks(report, work):
    genuine = work / "genuine"
    genuine.mkdir(parents=True)
    scenario = genuine / "scenario.yaml"
    scenario.write_text(W.EXPANSION_YAML.format(h=SELFTEST_H, amplitude=1.0, omega=2.0),
                        encoding="utf-8")
    for command in W.COMMANDS:
        code = cli.main([command, "--config", str(scenario), "--out", str(genuine / command)])
        if code != 0:
            raise AssertionError(f"debond {command} exited {code} on the self-test scenario")
    report.expect("cli outputs", W.check_cli_outputs(str(genuine), SELFTEST_H)[0], False)

    def shift(v):
        return np.concatenate((v[1:], v[-1:]))

    def bump(rows, by):
        def change(v):
            v[rows] += by
            return v
        return change

    corruptions = [
        ("perturbed front speeds", "simulate/front.csv", "ellprime", bump(slice(100, 200), 0.05)),
        ("front moving back", "simulate/front.csv", "ell", bump(slice(300, None), -1e-3)),
        ("shifted trace f column", "simulate/trace.csv", "f", shift),
        ("displaced y(T, 0)", "simulate/state_at_T.csv", "y", bump(0, 1e-3)),
        ("nonzero y at the front", "simulate/state_at_T.csv", "y", bump(-1, 1e-3)),
        ("u not integrating u'", "synthesize/control.csv", "u", lambda v: 1.01 * v),
    ]
    for name, rel, column, change in corruptions:
        bad = work / name.replace(" ", "_").replace("'", "")
        shutil.copytree(genuine, bad)
        _rewrite_csv(bad / rel, column, change)
        report.expect(name, W.check_cli_outputs(str(bad), SELFTEST_H)[0], True)

    text_corruptions = [
        ("plan off the closed form", "synthesize/plan.txt", "t_bar_star=4\n", "t_bar_star=4.01\n"),
        ("verify row failed", "verify/verify.csv", ",true\n", ",false\n"),
    ]
    for name, rel, old, new in text_corruptions:
        bad = work / name.replace(" ", "_")
        shutil.copytree(genuine, bad)
        _rewrite_text(bad / rel, old, new)
        report.expect(name, W.check_cli_outputs(str(bad), SELFTEST_H)[0], True)


def forward_checks(report):
    h, T = SELFTEST_H, 5.0
    rng = np.random.default_rng(0)
    kappa = 1.3
    ctrl = W.stepwise_control(T, rng)
    sol = forward.solve_front(W.zero_initial(), ctrl, model.Toughness(kappa),
                              forward.SolverConfig(h=h, T=T))
    f = sol.front
    x = np.linspace(0.0, f.positions[-1], 160)
    y, dty, dxy = sol.reconstruct(T, x)
    res = sol.griffith_residuals()
    kap = np.full(x.shape, kappa)
    report.expect("front shape", checks.check_front_shape(f.times, f.positions, f.speeds), False)
    report.expect("front shape", checks.check_front_shape(
        f.times, f.positions, np.where(f.times > 2.0, 1.0, f.speeds)), True)
    report.expect("Griffith residuals", checks.check_griffith_residuals(res, h), False)
    report.expect("Griffith residuals", checks.check_griffith_residuals(res + 0.2, h), True)
    report.expect("damping bound", checks.check_damping(dty, dxy, kap, h), False)
    report.expect("damping bound", checks.check_damping(dty + 2.0, dxy + 2.0, kap, h), True)
    report.expect("boundary values", checks.check_boundary_values(y, ctrl.u.vs[-1]), False)
    report.expect("boundary values", checks.check_boundary_values(y + 1e-3, ctrl.u.vs[-1]), True)

    initial = W.velocity_initial()
    sol = forward.solve_front(initial, model.ControlSignal.zero(6.0), model.Toughness(0.5),
                              forward.SolverConfig(h=h, T=6.0))
    f = sol.front
    x = np.linspace(0.0, f.positions[-1], 401)
    y, _, _ = sol.reconstruct(6.0, x)
    report.expect("constant-speed front", checks.check_constant_speed_oracle(
        f.times, f.positions, f.positions[-1]), False)
    report.expect("constant-speed front", checks.check_constant_speed_oracle(
        f.times, f.positions * 1.01, f.positions[-1] * 1.01), True)
    report.expect("constant-speed state", checks.check_constant_speed_state(x, y), False)
    report.expect("constant-speed state", checks.check_constant_speed_state(x, np.roll(y, 40)), True)
    m = forward.solve_initial_branch(initial, model.Toughness(0.5), forward.SolverConfig(h=h, T=4.0))
    s = forward.solve_initial_branch(W.zero_initial(), model.Toughness(1.0),
                                     forward.SolverConfig(h=h, T=3.0))
    report.expect("initial branch", checks.check_initial_branch_oracle(m.t_star, m.ell_star, s.t_star),
                  False)
    report.expect("initial branch", checks.check_initial_branch_oracle(
        m.t_star + 0.01, m.ell_star + 0.01, s.t_star), True)


def roundtrip_checks(report):
    h, T = SELFTEST_H, 6.0
    target, kappa_xy = W.moving_target()
    kappa = model.Toughness(W._fn(*kappa_xy))
    cfg = forward.SolverConfig(h=h, T=T)
    res = branch.solve_final_branch(target, kappa, T, branch.BranchPolicy("prefer_moving", h=h))
    seg = res.front_segment
    w = float(target.ybar1.vs[0])

    def inclusion(speeds):
        return checks.check_backward_inclusion(seg.times, seg.positions, speeds,
                                               lambda x: np.full(np.shape(x), w),
                                               lambda L: np.interp(L, *kappa_xy), T, h)

    report.expect("backward inclusion", inclusion(seg.speeds), False)
    report.expect("backward inclusion", inclusion(seg.speeds * 0.9), True)

    rep = control.synthesize_c01(W.zero_initial(), target, kappa, T, res, cfg)
    c = rep.control
    report.expect("control integral", checks.check_control_integral(c.u.xs, c.u.vs, c.uprime.vs), False)
    report.expect("control integral", checks.check_control_integral(
        c.u.xs, c.u.vs, c.uprime.vs * 1.01), True)
    verdict = control.verify_synthesis(rep, W.zero_initial(), target, kappa, cfg)
    sol = verdict.solution
    ell_T = float(sol.front.positions[-1])
    x = np.linspace(0.0, min(ell_T, target.ellbar0), 401)
    y, dty, _ = sol.reconstruct(T, x)
    ybar0, ybar1 = W._interp_fn(target.ybar0)(x), W._interp_fn(target.ybar1)(x)
    report.expect("terminal state", checks.check_terminal_errors(
        *checks.terminal_errors(x, y, dty, ybar0, ybar1, ell_T, target.ellbar0, h)), False)
    report.expect("terminal state", checks.check_terminal_errors(
        *checks.terminal_errors(x, y + 0.02 * x, dty, ybar0, ybar1, ell_T, target.ellbar0, h)), True)
    report.expect("terminal state", checks.check_terminal_errors(
        *checks.terminal_errors(x, y, dty + 0.2, ybar0, ybar1, ell_T, target.ellbar0, h)), True)

    xs = np.linspace(0.0, 2.0, 1601)
    c1_target = model.TargetState(2.0, W._fn(xs, 0.3 * np.sin(np.pi * xs / 2.0)),
                                  W._fn([0.0, 2.0], [0.0, 0.0]), "C1")
    rep = control.synthesize_static_c1(W.zero_initial("C1"), c1_target, kappa, T, cfg)
    up, sp = rep.control.uprime.vs, rep.front.speeds
    left, right, ref = rep.stage3_junction
    report.expect("C1 control", checks.check_c1_control(up, sp, rep.stage3_junction, h), False)
    kinked = up.copy()
    kinked[len(kinked) // 2:] += 0.1
    report.expect("C1 control (u' jump)", checks.check_c1_control(kinked, sp, rep.stage3_junction, h),
                  True)
    report.expect("C1 control (junction)", checks.check_c1_control(
        up, sp, (left, right + 1e-6, ref), h), True)


def main():
    work = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    report = Report()
    try:
        cli_checks(report, work)
        forward_checks(report)
        roundtrip_checks(report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{report.misses} check(s) misbehaved")
    return 1 if report.misses else 0


if __name__ == "__main__":
    sys.exit(main())
