"""The three seeded workloads: their inputs, operations and output checks.

A workload builds one round of operations from its seed; the runner repeats
that round for the length of the run, so every operation is timed several
times on the same inputs.  An operation is a list of named steps that make
only program calls and are what the runner times (each step gets the results
of the steps before it); its ``check`` gets the list of step results, reads
the outputs back and applies the checks in ``checks.py``.  Every program
call goes through a module attribute (``forward.solve_front``,
``cli.main``, ...) so that the tracer's wrappers are the ones called while
it is installed.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from debond import branch, cli, control, forward, func1d, model

H = 1e-3  # time step of every workload (the acceptance criteria's step)


@dataclass
class Outcome:
    """What a check found: a failure the program reported, or output problems."""

    failed: bool = False
    problems: list = field(default_factory=list)
    front_dev: float = None
    state_dev: float = None
    extra: dict = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    steps: list  # [(name, callable(previous results) -> result)]
    check: Callable[[list], Outcome]


# ---------------------------------------------------------------------------
# Input builders (plain numpy; the program receives only the built objects)
# ---------------------------------------------------------------------------

def _fn(xs, vs):
    return func1d.SampledFunction(np.asarray(xs, dtype=float), np.asarray(vs, dtype=float))


def zero_initial(regularity="C01"):
    z = _fn([0.0, 1.0], [0.0, 0.0])
    return model.InitialState(1.0, z, z, regularity)


def velocity_initial():
    """ell0 = 1, y0 = 0, y1 = 2: the constant-speed seed of criteria 2-3."""
    return model.InitialState(1.0, _fn([0.0, 1.0], [0.0, 0.0]), _fn([0.0, 1.0], [2.0, 2.0]))


def stepwise_control(T, rng, bound=3.0, piece=0.25):
    """u' constant on pieces of length ``piece``, with paired nodes at the jumps."""
    n = max(int(round(T / piece)), 1)
    slopes = rng.uniform(-bound, bound, n)
    xs, vs = [0.0], [slopes[0]]
    for k in range(1, n):
        xs += [k * piece, k * piece + 1e-9]
        vs += [slopes[k - 1], slopes[k]]
    xs.append(T)
    vs.append(slopes[-1])
    u = checks.cumulative_trapezoid(xs, vs)
    return model.ControlSignal(_fn(xs, u), _fn(xs, vs))


def toughness_samples(base, amplitude, omega, phase, x_max=8.0, n=64):
    """A positive, non-constant toughness profile sampled on [0, x_max]."""
    xs = np.linspace(0.0, x_max, n + 1)
    return xs, base * (1.0 + amplitude * np.sin(omega * xs + phase))


def _yaml_table(xs, vs):
    return "[" + ", ".join(f"[{x!r}, {v!r}]" for x, v in zip(xs.tolist(), vs.tolist())) + "]"


def _interp_fn(fn):
    """Evaluate a target profile from its samples, without the program's code."""
    return lambda x: np.interp(x, fn.xs, fn.vs)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def _read_keyvals(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


# ---------------------------------------------------------------------------
# cli-expansion
# ---------------------------------------------------------------------------

EXPANSION_YAML = """\
T: 6.0
solver: {{h: {h!r}, scheme: heun}}
toughness: {{preset: constant, value: 1.0}}
initial:
  ell0: 1.0
  regularity: C01
  y0: {{preset: constant, value: 0.0}}
  y1: {{preset: constant, value: 0.0}}
control:
  u: {{preset: sine, amplitude: {amplitude!r}, omega: {omega!r}, phase: 0.0}}
target:
  ellbar0: 2.0
  regularity: C01
  ybar0: {{preset: constant, value: 0.0}}
  ybar1: {{preset: constant, value: 0.0}}
branch: {{policy: prefer_static}}
"""

COMMANDS = ("simulate", "synthesize", "verify")


def check_cli_outputs(out, h=H):
    """All checks on one simulate/synthesize/verify session's output directories."""
    problems = []
    sim = os.path.join(out, "simulate")
    trace = _read_csv(os.path.join(sim, "trace.csv"))
    front = _read_csv(os.path.join(sim, "front.csv"))
    state = _read_csv(os.path.join(sim, "state_at_T.csv"))
    ctrl = _read_csv(os.path.join(sim, "control.csv"))
    problems += checks.nonfinite_problem("simulate CSVs", *trace.values(), *front.values(),
                                         *state.values(), *ctrl.values())
    problems += checks.check_trace_integral(trace["s"], trace["f"], trace["fprime"], h)
    problems += checks.check_front_shape(front["t"], front["ell"], front["ellprime"])
    problems += checks.check_griffith_law(front["t"], front["ell"], front["ellprime"],
                                          trace["s"], trace["fprime"], 1.0)
    if abs(state["x"][-1] - front["ell"][-1]) > 1e-12:
        problems.append("state_at_T.csv does not end at the front ell(T)")
    problems += checks.check_boundary_values(state["y"], ctrl["u"][-1])

    syn = os.path.join(out, "synthesize")
    sctrl = _read_csv(os.path.join(syn, "control.csv"))
    problems += checks.check_control_integral(sctrl["t"], sctrl["u"], sctrl["uprime"])
    problems += checks.check_expansion_plan(_read_keyvals(os.path.join(syn, "plan.txt")))

    rows = _read_rows(os.path.join(out, "verify", "verify.csv"))
    problems += checks.check_verify_rows(rows)
    values = {row["metric"]: float(row["value"]) for row in rows}
    # The zero target is reached to rounding level, so the state deviation
    # also counts the O(h) gap between trace.csv's f and the integral of f'.
    state_dev = max(values.get("displacement_sup_error", np.nan),
                    checks.trace_integral_gap(trace["s"], trace["f"], trace["fprime"]))
    return problems, values.get("front_error"), state_dev


class CliExpansion:
    """The README expansion through ``debond.cli.main``, writing every CSV.

    One operation is the session a user runs: ``simulate`` under the sine
    control u = sin(2t), then ``synthesize`` and ``verify`` toward the zero
    target.  The scenario is the same for every seed: its accuracy figures
    are then exact repeats, and one run holds too few sessions to average
    over varied controls (the simulate cost grows with how far the control
    pushes the front).
    """

    name = "cli-expansion"

    def __init__(self, seed, workdir):
        self.scenario = EXPANSION_YAML.format(h=H, amplitude=1.0, omega=2.0)
        self.workdir = workdir

    def setup_scenario(self):
        return self.scenario

    def ops(self):
        out = os.path.join(self.workdir, "session")
        path = os.path.join(out, "scenario.yaml")

        def command(name):
            def step(_):
                if not os.path.isdir(out):
                    os.makedirs(out)
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(self.scenario)
                return cli.main([name, "--config", path, "--out", os.path.join(out, name)])

            return name, step

        def check(results):
            codes = dict(zip(COMMANDS, results))
            csv_bytes = sum(os.path.getsize(os.path.join(d, f))
                            for d in (os.path.join(out, c) for c in COMMANDS) if os.path.isdir(d)
                            for f in os.listdir(d))
            extra = {"csv_bytes": csv_bytes}
            try:
                if any(codes.values()):
                    return Outcome(failed=True, extra=extra,
                                   problems=[f"exit codes {codes}"])
                problems, front_dev, state_dev = check_cli_outputs(out)
                return Outcome(problems=problems, front_dev=front_dev, state_dev=state_dev,
                               extra=extra)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return [Op("session", [command(name) for name in COMMANDS], check)]


# ---------------------------------------------------------------------------
# forward-suite
# ---------------------------------------------------------------------------

class ForwardSuite:
    """Seeded stepwise controls over zero data (criteria 4-5), plus the oracles.

    A round holds eight random operations (random constant kappa, T = 5), one
    constant-speed oracle run (criterion 2) and one initial-branch oracle run
    (criterion 3).
    """

    name = "forward-suite"
    T = 5.0
    RANDOM_PER_ROUND = 8

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.inputs = [(float(rng.uniform(0.3, 3.0)), stepwise_control(self.T, rng))
                       for _ in range(self.RANDOM_PER_ROUND)]

    def setup_scenario(self):
        kappa, ctrl = self.inputs[0]
        return (f"T: {self.T!r}\nsolver: {{h: {H!r}, scheme: heun}}\n"
                f"toughness: {{preset: constant, value: {kappa!r}}}\n"
                "initial:\n  ell0: 1.0\n  regularity: C01\n"
                "  y0: {preset: constant, value: 0.0}\n  y1: {preset: constant, value: 0.0}\n"
                f"control:\n  u: {{samples: {_yaml_table(ctrl.u.xs, ctrl.u.vs)}}}\n")

    def ops(self):
        ops = [self._random_op(kappa, ctrl) for kappa, ctrl in self.inputs]
        return ops + [self._speed_oracle_op(), self._branch_oracle_op()]

    def _random_op(self, kappa_value, ctrl):
        T = self.T
        initial = zero_initial()
        kappa = model.Toughness(kappa_value)
        cfg = forward.SolverConfig(h=H, T=T)

        def run(_):
            sol = forward.solve_front(initial, ctrl, kappa, cfg)
            residuals = sol.griffith_residuals()
            x = np.linspace(0.0, sol.front.positions[-1], 160)
            return sol, residuals, x, sol.reconstruct(T, x)

        def check(results):
            sol, residuals, x, (y, dty, dxy) = results[0]
            f = sol.front
            problems = checks.nonfinite_problem("solution", f.positions, f.speeds, y, dty, dxy)
            problems += checks.check_front_shape(f.times, f.positions, f.speeds)
            problems += checks.check_griffith_residuals(residuals, H)
            problems += checks.check_damping(dty, dxy, np.full(x.shape, kappa_value), H)
            problems += checks.check_boundary_values(y, ctrl.u.vs[-1])
            return Outcome(problems=problems)

        return Op("random", [("forward", run)], check)

    def _speed_oracle_op(self):
        T = 6.0
        initial = velocity_initial()
        ctrl = model.ControlSignal.zero(T)
        kappa = model.Toughness(0.5)
        cfg = forward.SolverConfig(h=H, T=T)

        def run(_):
            sol = forward.solve_front(initial, ctrl, kappa, cfg)
            x = np.linspace(0.0, sol.front.positions[-1], 401)
            return sol, x, sol.reconstruct(T, x)

        def check(results):
            sol, x, (y, _, _) = results[0]
            f = sol.front
            problems = checks.check_front_shape(f.times, f.positions, f.speeds)
            problems += checks.check_constant_speed_oracle(f.times, f.positions, f.positions[-1])
            problems += checks.check_constant_speed_state(x, y)
            front_dev = float(np.max(np.abs(f.positions - checks.constant_speed_front(f.times))))
            state_dev = float(np.max(np.abs(y - checks.constant_speed_state(x))))
            return Outcome(problems=problems, front_dev=front_dev, state_dev=state_dev)

        return Op("speed-oracle", [("forward", run)], check)

    def _branch_oracle_op(self):
        moving = (velocity_initial(), model.Toughness(0.5), forward.SolverConfig(h=H, T=4.0))
        static = (zero_initial(), model.Toughness(1.0), forward.SolverConfig(h=H, T=3.0))

        def run(_):
            return forward.solve_initial_branch(*moving), forward.solve_initial_branch(*static)

        def check(results):
            m, s = results[0]
            return Outcome(problems=checks.check_initial_branch_oracle(m.t_star, m.ell_star, s.t_star))

        return Op("branch-oracle", [("initial-branch", run)], check)


# ---------------------------------------------------------------------------
# roundtrip-suite
# ---------------------------------------------------------------------------

def static_lipschitz_target():
    """The fixed criterion-7 style target that trips the velocity smear.

    Drawn once from a fixed generator, never from the workload seed: its
    velocity error is a property of the program at h = 1e-3, the same in
    every run.  Toughness follows a fixed non-constant profile.
    """
    rng = np.random.default_rng(7)
    ellbar0 = float(rng.uniform(1.0, 1.6))
    kap = float(rng.uniform(0.5, 2.0))
    xs = np.linspace(0.0, ellbar0, 1025)
    y0_vals = np.zeros(xs.size)
    for k in range(1, 4):
        y0_vals += rng.uniform(-0.3, 0.3) * np.sin(k * np.pi * (ellbar0 - xs) / ellbar0)
    y0 = _fn(xs, y0_vals)
    y0p = func1d.derivative(y0)
    beta = float(rng.uniform(0.0, 0.85)) * math.sqrt(2.0 * kap)
    wobble = beta * np.sin(rng.uniform(0.5, 3.0) * xs + rng.uniform(0.0, 6.28))
    y1 = _fn(xs, np.interp(xs, y0p.xs, -y0p.vs) + wobble)
    return model.TargetState(ellbar0, y0, y1), toughness_samples(kap, 0.05, 1.7, 0.3)


def moving_target():
    """Criterion 6's target (ellbar0 = 2, ybar1 = sqrt(2/3)) on a fixed toughness profile."""
    w = math.sqrt(2.0 / 3.0)
    target = model.TargetState(2.0, _fn([0.0, 2.0], [0.0, 0.0]), _fn([0.0, 2.0], [w, w]))
    return target, toughness_samples(1.0, 0.1, 1.3, 0.0)


class RoundtripSuite:
    """``synthesize_*`` followed by ``verify_synthesis`` on sampled-toughness targets.

    A round holds the fixed static Lipschitz target (C0,1 path; fails through
    the velocity smear), the fixed moving final branch under ``prefer_moving``
    (backward branch, C0,1 path) and two seeded C1 case-(d) targets (C1 path)
    shaped as in criterion 8: ellbar0 = 2, T = 6, ybar0 = a sin(pi x / 2) with
    a seeded amplitude and a seeded toughness profile.
    """

    name = "roundtrip-suite"
    C1_PER_ROUND = 2
    C1_ELLBAR0 = 2.0
    C1_T = 6.0

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.c1_inputs = [
            (float(rng.uniform(0.1, 0.4)),
             (float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.05, 0.2)),
              float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 2.0 * math.pi))))
            for _ in range(self.C1_PER_ROUND)
        ]

    def setup_scenario(self):
        amp, tough = self.c1_inputs[0]
        kx, kv = toughness_samples(*tough)
        return (f"T: {self.C1_T!r}\nsolver: {{h: {H!r}, scheme: heun}}\n"
                f"toughness: {{samples: {_yaml_table(kx, kv)}, x_max: {float(kx[-1])!r}}}\n"
                "initial:\n  ell0: 1.0\n  regularity: C1\n"
                "  y0: {preset: constant, value: 0.0}\n  y1: {preset: constant, value: 0.0}\n"
                f"target:\n  ellbar0: {self.C1_ELLBAR0!r}\n  regularity: C1\n"
                f"  ybar0: {{preset: sine, amplitude: {amp!r}, "
                f"omega: {math.pi / self.C1_ELLBAR0!r}, phase: 0.0, resolution: 1600}}\n"
                "  ybar1: {preset: constant, value: 0.0}\n"
                "branch: {policy: prefer_static}\n")

    def ops(self):
        ops = [self._static_c01_op(), self._moving_op()]
        ellbar0 = self.C1_ELLBAR0
        xs = np.linspace(0.0, ellbar0, 1601)
        for amp, tough in self.c1_inputs:
            target = model.TargetState(ellbar0, _fn(xs, amp * np.sin(np.pi * xs / ellbar0)),
                                       _fn([0.0, ellbar0], [0.0, 0.0]), "C1")
            ops.append(self._c1_op(target, toughness_samples(*tough)))
        return ops

    @staticmethod
    def _verify_and_check(kind, initial, target, kappa_xy, T, synthesize, extra_checks):
        kappa = model.Toughness(_fn(*kappa_xy))
        cfg = forward.SolverConfig(h=H, T=T)

        def synthesis(_):
            return synthesize(initial, target, kappa, T, cfg)

        def verification(results):
            return control.verify_synthesis(results[0][0], initial, target, kappa, cfg)

        def check(results):
            (report, branch_result), verdict = results
            sol = verdict.solution
            ell_T = float(sol.front.positions[-1])
            x = np.linspace(0.0, min(ell_T, target.ellbar0), 401)
            y, dty, _ = sol.reconstruct(T, x)
            errors = checks.terminal_errors(x, y, dty, _interp_fn(target.ybar0)(x),
                                            _interp_fn(target.ybar1)(x), ell_T, target.ellbar0, H)
            outcome = Outcome(front_dev=errors[0], state_dev=errors[1])
            if not verdict.within(*checks.VERIFY_DEFAULTS):
                outcome.failed = True
                outcome.problems = [
                    f"verify miss: front {verdict.front_error:.3e}, displacement "
                    f"{verdict.displacement_error:.3e}, velocity {verdict.velocity_error:.3e}"
                ]
                return outcome
            c = report.control
            outcome.problems = (checks.nonfinite_problem("terminal state", y, dty)
                                + checks.check_terminal_errors(*errors)
                                + checks.check_control_integral(
                                    c.u.xs, c.u.vs, np.interp(c.u.xs, c.uprime.xs, c.uprime.vs))
                                + extra_checks(report, branch_result, target, kappa_xy, T))
            return outcome

        return Op(kind, [("synthesize", synthesis), ("verify", verification)], check)

    def _static_c01_op(self):
        target, kappa_xy = static_lipschitz_target()
        T = 2.0 * target.ellbar0 + 1.0

        def synthesize(initial, target, kappa, T, cfg):
            return control.synthesize_static_c01(initial, target, kappa, T, cfg), None

        return self._verify_and_check("static-c01", zero_initial(), target, kappa_xy, T,
                                      synthesize, lambda *a: [])

    def _moving_op(self):
        target, kappa_xy = moving_target()

        def synthesize(initial, target, kappa, T, cfg):
            res = branch.solve_final_branch(target, kappa, T, branch.BranchPolicy("prefer_moving", h=H))
            return control.synthesize_c01(initial, target, kappa, T, res, cfg), res

        def inclusion(report, res, target, kappa_xy, T):
            seg = res.front_segment
            slope = np.diff(target.ybar0.vs) / np.diff(target.ybar0.xs)

            def w_of(x):  # ybar1 + ybar0', from the target samples
                return _interp_fn(target.ybar1)(x) + np.interp(x, target.ybar0.xs[:-1], slope)

            return checks.check_backward_inclusion(seg.times, seg.positions, seg.speeds, w_of,
                                                   lambda L: np.interp(L, *kappa_xy), T, H)

        return self._verify_and_check("moving-c01", zero_initial(), target, kappa_xy, 6.0,
                                      synthesize, inclusion)

    def _c1_op(self, target, kappa_xy):
        T = self.C1_T

        def synthesize(initial, target, kappa, T, cfg):
            return control.synthesize_static_c1(initial, target, kappa, T, cfg), None

        def c1_checks(report, _, target, kappa_xy, T):
            problems = [] if report.plan.case == "d" else [f"plan case {report.plan.case!r}, expected 'd'"]
            return problems + checks.check_c1_control(report.control.uprime.vs, report.front.speeds,
                                                      report.stage3_junction, H)

        return self._verify_and_check("c1-static", zero_initial("C1"), target, kappa_xy, T,
                                      synthesize, c1_checks)


WORKLOADS = {w.name: w for w in (CliExpansion, ForwardSuite, RoundtripSuite)}
