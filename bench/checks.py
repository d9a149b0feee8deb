"""Output checks of the benchmark: oracles and properties the method must have.

Every check takes plain arrays or dictionaries, as read back from the
program's CSV files or taken from its result objects, and returns a list of
problems; an empty list means the output passed.  Nothing here compares
against a stored copy of earlier output, and nothing calls the program, so
``selftest.py`` can feed each check a deliberately corrupted output.
"""

from __future__ import annotations

import numpy as np

# Tolerances of the method, in units of the time step h where they are O(h).
GRIFFITH_RESIDUAL_STEPS = 10.0   # criterion 4: worst |ell' - Griffith speed| <= 10 h
DAMPING_STEPS = 20.0             # criterion 5: |w|^2 - 2 kappa <= 20 h at the horizon
TRACE_INTEGRAL_STEPS = 2.0       # f equals the integral of f' within O(h); 0.3-0.8 h seen
ORACLE_TOL = 5e-3                # criteria 2-3: closed-form front quantities
EXACT_TOL = 1e-9                 # identities the discretization keeps exactly
FRONT_ZERO_TOL = 1e-6            # y vanishes at the front up to rounding of the maps
JUNCTION_TOL = 1e-8              # criterion 8: stage-3 junction identity
VERIFY_DEFAULTS = (1e-2, 1e-2, 0.1)  # verify's default front/displacement/velocity tolerances


def cumulative_trapezoid(x, y, start=0.0):
    """Trapezoid integral of the polyline (x, y) from x[0] to every node."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return start + np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))


def griffith(fprime, kappa):
    """The benchmark's own copy of the Griffith speed law, in [0, 1)."""
    twice_sq = 2.0 * np.asarray(fprime, dtype=float) ** 2
    return np.maximum((twice_sq - kappa) / (twice_sq + kappa), 0.0)


def _excess(name, value, tol):
    if not value <= tol:  # also catches NaN
        return [f"{name} = {value:.3e} exceeds {tol:.3e}"]
    return []


# ---------------------------------------------------------------------------
# Forward solutions
# ---------------------------------------------------------------------------

def check_front_shape(t, ell, speed):
    """Speeds lie in [0, 1) and the front never moves back."""
    problems = []
    speed = np.asarray(speed, dtype=float)
    if not (np.all(speed >= 0.0) and np.all(speed < 1.0)):
        problems.append(f"front speed outside [0, 1): min {speed.min():.3g}, max {speed.max():.3g}")
    back = float(np.min(np.diff(ell))) if len(ell) > 1 else 0.0
    if back < -1e-15:
        problems.append(f"front moves back by {-back:.3e}")
    if np.any(np.diff(t) <= 0.0):
        problems.append("front times do not increase")
    return problems


def check_griffith_law(t, ell, speed, trace_s, trace_fprime, kappa):
    """Stored front speeds equal the Griffith speed of the trace at t - ell."""
    fp = np.interp(np.asarray(t) - np.asarray(ell), trace_s, trace_fprime)
    gap = float(np.max(np.abs(griffith(fp, kappa) - np.asarray(speed))))
    return _excess("Griffith speed recomputation gap", gap, EXACT_TOL)


def check_griffith_residuals(residuals, h):
    return _excess("worst Griffith residual", float(np.max(residuals)), GRIFFITH_RESIDUAL_STEPS * h)


def check_damping(dty, dxy, kappa_along, h):
    """Expansion-damping bound |y_t + y_x|^2 <= 2 kappa at the horizon."""
    worst = float(np.max((np.asarray(dty) + np.asarray(dxy)) ** 2 - 2.0 * np.asarray(kappa_along)))
    return _excess("damping excess |w|^2 - 2 kappa", worst, DAMPING_STEPS * h)


def check_boundary_values(y, u_T):
    """y(T, 0) = u(T) and y(T, ell(T)) = 0 on a grid that spans [0, ell(T)]."""
    return _excess("|y(T, 0) - u(T)|", abs(float(y[0]) - float(u_T)), EXACT_TOL) + _excess(
        "|y(T, ell(T))|", abs(float(y[-1])), FRONT_ZERO_TOL
    )


def trace_integral_gap(s, f, fprime):
    """Largest gap between the f column and the trapezoid integral of fprime."""
    integral = cumulative_trapezoid(s, fprime, start=float(f[0]))
    return float(np.max(np.abs(integral - np.asarray(f))))


def check_trace_integral(s, f, fprime, h):
    """trace.csv: the f column is the integral of its fprime column, within O(h)."""
    return _excess("|f - integral of f'|", trace_integral_gap(s, f, fprime),
                   TRACE_INTEGRAL_STEPS * h)


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------

def constant_speed_front(t):
    """Front of the constant-speed oracle (ell0 = 1, y1 = 2, kappa = 1/2, u = 0)."""
    t = np.asarray(t, dtype=float)
    return np.where(t <= 5.0, 1.0 + 0.6 * t, 4.0)


def constant_speed_state(x):
    """Displacement of the constant-speed oracle at t = 6, by d'Alembert.

    The seed trace has slope 1 on [-1, 0] and -1 on (0, 1]; its echoes come
    back with the reflection factor (1 - 0.6)/(1 + 0.6) = 1/4, which keeps
    the front at rest from t = 5, and y(6, .) is a trapezoid.
    """
    x = np.asarray(x, dtype=float)
    return np.minimum(np.minimum(0.5 * x, 0.5), 2.0 - 0.5 * x)


def check_constant_speed_oracle(t, ell, ell_at_6):
    return _excess("constant-speed front path deviation",
                   float(np.max(np.abs(np.asarray(ell) - constant_speed_front(t)))), ORACLE_TOL) + \
        _excess("|ell(6) - 4|", abs(float(ell_at_6) - 4.0), ORACLE_TOL)


def check_constant_speed_state(x, y):
    return _excess("constant-speed state deviation at t = 6",
                   float(np.max(np.abs(np.asarray(y) - constant_speed_state(x)))), ORACLE_TOL)


def check_initial_branch_oracle(moving_t_star, moving_ell_star, static_t_star):
    """Criterion 3: t* = 2.5 for the moving seed, t* = 1 for zero data."""
    problems = _excess("|t* - 2.5| (moving seed)", abs(moving_t_star - 2.5), ORACLE_TOL)
    if moving_ell_star != moving_t_star:
        problems.append(f"ell* = {moving_ell_star!r} differs from t* = {moving_t_star!r}")
    return problems + _excess("|t* - 1| (zero data)", abs(static_t_star - 1.0), 1e-12)


# Closed form of the README expansion (ell0 = 1 -> 2, kappa = 1, T = 6, zero data).
EXPANSION_PLAN = {
    "t_star": 1.0, "ell_star": 1.0, "t_bar_star": 4.0, "ell_bar_star": 2.0,
    "v": 1.0 / 3.0, "stage_s1": 2.0, "stage_s2": 4.0, "stage_s3": 6.0,
}


def check_expansion_plan(plan):
    problems = []
    if plan.get("case") != "d":
        problems.append(f"plan case {plan.get('case')!r}, expected 'd'")
    for key, want in EXPANSION_PLAN.items():
        try:
            got = float(plan[key])
        except (KeyError, ValueError):
            problems.append(f"plan.txt lacks a number for {key}")
            continue
        problems += _excess(f"|{key} - {want:.6g}|", abs(got - want), EXACT_TOL)
    return problems


# ---------------------------------------------------------------------------
# Controls, synthesis and verification
# ---------------------------------------------------------------------------

def check_control_integral(t, u, uprime):
    """The control's u is the integral of its u' from u(0)."""
    integral = cumulative_trapezoid(t, uprime, start=float(u[0]))
    scale = max(1.0, float(np.max(np.abs(u))))
    return _excess("|u - integral of u'|", float(np.max(np.abs(integral - np.asarray(u)))),
                   EXACT_TOL * scale)


def check_verify_rows(rows):
    """verify.csv: every metric is finite, within its tolerance and marked passed."""
    problems = []
    if len(rows) != 3:
        problems.append(f"verify.csv has {len(rows)} metric rows, expected 3")
    for row in rows:
        value, tol = float(row["value"]), float(row["tolerance"])
        if row["passed"] != "true" or not value <= tol:
            problems.append(f"verify row {row['metric']} = {value:.3e} (tol {tol:.3e}) did not pass")
    return problems


def terminal_errors(x, y, dty, ybar0, ybar1, ell_T, ellbar0, h):
    """Front, displacement and interior-velocity errors against the target data.

    The velocity skips the same end margin as the program's verify, because a
    Lipschitz control puts trace jumps exactly at the domain ends.
    """
    hi = float(x[-1])
    margin = max(4.0 * h, 1e-3 * hi)
    inner = (x >= margin) & (x <= hi - margin)
    return (
        abs(float(ell_T) - float(ellbar0)),
        float(np.max(np.abs(np.asarray(y) - ybar0))),
        float(np.max(np.abs(np.asarray(dty)[inner] - np.asarray(ybar1)[inner]))),
    )


def check_terminal_errors(front_err, disp_err, vel_err):
    tol_f, tol_d, tol_v = VERIFY_DEFAULTS
    return (_excess("terminal front error", front_err, tol_f)
            + _excess("terminal displacement error", disp_err, tol_d)
            + _excess("terminal velocity error", vel_err, tol_v))


def check_c1_control(uprime, speeds, junction, h):
    """Criterion 8: u' and ell' have no jumps, and the stage-3 junction identity holds."""
    jump_tol = 1e-6 + 10.0 * h
    left, right, ref = junction
    return (_excess("largest u' jump", float(np.max(np.abs(np.diff(uprime)))), jump_tol)
            + _excess("largest ell' jump", float(np.max(np.abs(np.diff(speeds)))), jump_tol)
            + _excess("stage-3 junction gap", max(abs(left - ref), abs(right - ref)), JUNCTION_TOL))


def check_backward_inclusion(t, L, speed, w_of, kappa_of, T, h):
    """Every node of a final branch takes one of the admissible backward speeds.

    With Y = w(t + L - T)^2 and K = 2 kappa(L), the options are 0 and
    (K - Y)/(K + Y) when it lies in [0, 1); Y <= K must hold.  The last node
    is interpolated to the closing time, hence the O(h) slack.
    """
    problems = []
    Y = np.asarray(w_of(np.asarray(t) + np.asarray(L) - T)) ** 2
    K = 2.0 * np.asarray(kappa_of(np.asarray(L)))
    if np.any(Y > K * (1.0 + 1e-12)):
        problems.append("size constraint |w|^2 <= 2 kappa fails on the branch")
    root = (K - Y) / (K + Y)
    moving = np.where((root > 0.0) & (root < 1.0), root, 0.0)
    gap = np.minimum(np.abs(np.asarray(speed)), np.abs(np.asarray(speed) - moving))
    return problems + _excess("worst backward-inclusion gap", float(np.max(gap)), 1e-6 + 10.0 * h)


def nonfinite_problem(name, *arrays):
    if all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays):
        return []
    return [f"{name} holds NaN or inf"]

