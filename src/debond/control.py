"""Exact boundary-control synthesis.

The control is assembled in trace coordinates s = t - ell(t) in three stages:

  Stage 1, s in (0, tau_minus(t_bar_star)]: inflate the front from the end of
      the initial branch to the start of the final branch.  Wherever the
      prescribed front moves, the trace-slope magnitude is forced by the
      Griffith kernel; where it is static, the slope is free inside the
      threshold band 2 f'^2 <= kappa and is used to connect endpoint values
      (and to flip sign, when needed, inside a zero-speed plateau).

  Stage 2, s in (tau_minus(t_bar_star), tau_minus(T)]: follow the admissible
      final branch while writing the outgoing half (ybar1 + ybar0') of the
      target onto the trace:
          f'(s) = -(ybar1 + ybar0')((tau_plus o tau_minus^-1)(s) - T) / 2
                  * (1 + ell') / (1 - ell').

  Stage 3, s in (tau_minus(T), T]: write the incoming half directly,
          f'(s) = (ybar1 - ybar0')(T - s) / 2.

The boundary rate u' is then read off the trace relation and integrated from
u(0) = y0(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branch import static_branch
from .errors import (
    ConstraintViolated,
    ContinuityFailure,
    DomainError,
    IncompatibleData,
    IncompatibleTarget,
    InfeasibleTime,
)
from .forward import SolverConfig, solve_front, solve_initial_branch
from .func1d import SampledFunction, cumulative_trapezoid, pair_width, sides, union
from .model import (
    SPEED_CAP,
    BranchResult,
    ControlSignal,
    FrontCurve,
    InitialBranchResult,
    InitialState,
    TargetState,
    Toughness,
    check_damping_bound,
    check_initial_compatibility,
    classify_final_state,
    speed_to_fprime_magnitude,
)

_SPEED_TOL = 1e-12
_SLOPE_TOL = 1e-9
_SPEED_MARGIN = 1e-6
# Uniform intervals of [0, min(ell(T), ellbar0)] on which verification compares states.
_VERIFY_INTERVALS = 400


@dataclass(frozen=True)
class InflationPlan:
    """Geometry of the Stage-1 inflation between the two data-driven branches.

    Its end points are the initial branch's end and the final branch's start,
    which the report holds as ``initial_branch`` and ``branch``.
    """

    v: float
    t_circ: float
    delta: float
    case: str
    front_segment: FrontCurve


@dataclass(frozen=True)
class SynthesisReport:
    """Everything produced by a synthesis run.

    ``stage_boundaries`` holds the trace coordinates (tau_minus(t_bar_star),
    tau_minus(T), T) separating the three half-open stages.
    ``stage3_junction`` stores (stage-2 limit, stage-3 limit, reference value
    -(1 + alpha) ybar0'(ellbar0) / 2) at the middle boundary.
    """

    control: ControlSignal
    plan: InflationPlan
    branch: BranchResult
    initial_branch: InitialBranchResult
    stage_boundaries: tuple
    front: FrontCurve
    designed_trace: SampledFunction
    stage3_junction: tuple


# ---------------------------------------------------------------------------
# Trace-level operations
# ---------------------------------------------------------------------------

def fprime_for_prescribed_front(
    front: FrontCurve,
    kappa: Toughness,
    sign_policy=1.0,
    left_value: float = None,
    right_value: float = None,
):
    """Trace slope on tau_minus(segment) realizing the prescribed front.

    ``sign_policy`` is either a number or a callable mapping the array of the
    moving nodes' times to their signs.  On static stretches the slope
    interpolates linearly (in s) between the neighbouring forced values or the
    given endpoint requirements, clipped into the threshold band
    |f'| <= sqrt(kappa/2).

    Returns (s_nodes, values).
    """
    ts = front.times
    Ls = front.positions
    vs = front.speeds
    s_nodes = ts - Ls
    n = ts.shape[0]

    vals = np.empty(n)
    moving = vs > _SPEED_TOL
    mags = speed_to_fprime_magnitude(np.minimum(vs[moving], SPEED_CAP), kappa(Ls[moving]))
    sign = sign_policy(ts[moving]) if callable(sign_policy) else float(sign_policy)
    vals[moving] = np.copysign(mags, sign)

    # Static runs [i, j]: edges of the runs of non-moving nodes.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], (~moving).astype(np.int8), [0]))))
    for i, j in zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()):
        sa, va = (s_nodes[i - 1], vals[i - 1]) if i > 0 else (s_nodes[i], left_value)
        sb, vb = (s_nodes[j + 1], vals[j + 1]) if j + 1 < n else (s_nodes[j], right_value)
        # A missing end takes the other end's value, or 0 when both are missing.
        if va is None:
            va = 0.0 if vb is None else vb
        if vb is None:
            vb = va
        run = slice(i, j + 1)
        w = np.clip((s_nodes[run] - sa) / (sb - sa), 0.0, 1.0) if sb > sa else 0.0
        raw = va * (1.0 - w) + vb * w
        band = np.sqrt(0.5 * kappa(Ls[run]))
        vals[run] = np.clip(raw, -band, band)
    return s_nodes, vals


def uprime_from_fprime(fprime, front: FrontCurve, initial: InitialState, s):
    """Boundary rate making the trace relation hold at coordinate(s) s.

    ``fprime`` is a callable returning the (designed or solved) trace slope;
    it is called with float arrays, ``s`` itself and the echoes of the points
    above ell0, shaped like ``s`` when every point is above (0-d for a float s).
    Up to ell0 the relation involves only the initial data; above it the echo
    term is subtracted with the reflection factor of the prescribed front.  A
    float gives a float, an array an array.
    """
    s = np.asarray(s, dtype=float)
    ell0, fp = initial.ell0, np.broadcast_to(fprime(s), s.shape)

    def data(i):
        x = s[i]
        return fp[i] + 0.5 * (initial.y0_prime(x) + initial.y1(x))

    def reflected(i):
        echo, factor = front.reflect(s[i])
        early = echo < -ell0 * (1.0 + 1e-9) - 1e-12
        if np.any(early):
            raise DomainError(f"echo point {np.extract(early, echo)[0]:g} precedes -ell0")
        return fp[i] - fprime(np.maximum(echo, -ell0)) * factor

    out = sides(~(s > ell0), data, reflected)  # NaN: the data formula's domain check names it
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Stage-1 front construction
# ---------------------------------------------------------------------------

def _speed_profile(p, q, va, vb, gain, h):
    """Continuous speed samples on [p, q] from va to vb with a given integral.

    Tries a single cubic-Hermite position interpolant first; if its slope
    leaves [0, 1), falls back to a ramp/plateau/ramp profile whose plateau
    level is solved from the integral (halving the ramp width until the level
    is admissible).
    """
    L = q - p
    ts = np.linspace(p, q, max(int(np.ceil(L / h)), 8) + 1)
    # cubic Hermite for the position: slope is quadratic in t
    c2 = 3.0 * gain / L**2 - (2.0 * va + vb) / L
    c3 = (va + vb) / L**2 - 2.0 * gain / L**3
    tau = ts - p
    sigma = va + 2.0 * c2 * tau + 3.0 * c3 * tau * tau
    if np.all(sigma >= -1e-12) and np.all(sigma <= 1.0 - _SPEED_MARGIN):
        return ts, np.clip(sigma, 0.0, 1.0 - _SPEED_MARGIN)
    w = 0.25 * L
    while True:
        m = (gain - 0.5 * w * (va + vb)) / (L - w)
        if 0.0 <= m <= 1.0 - _SPEED_MARGIN:
            break
        w *= 0.5
        if w < 1e-9 * L:
            raise InfeasibleTime(
                f"cannot gain length {gain:.6g} over {L:.6g} time units with speed < 1"
            )
    knots = np.array([p, p + w, q - w, q])
    kvals = np.array([va, m, m, vb])
    sigma = np.interp(ts, knots, kvals)
    return ts, sigma


def _stage1_case(dl_zero, a_moving, b_moving):
    if dl_zero:
        return "static_match"
    return {(True, True): "a", (False, True): "b", (True, False): "c", (False, False): "d"}[
        (a_moving, b_moving)
    ]


def _static_piece(t0, t1, length, h):
    """Resting front samples on [t0, t1]; ``length`` (= t1 - t0) sets the node count."""
    n = max(int(np.ceil(length / h)), 4)
    return np.linspace(t0, t1, n + 1), np.zeros(n + 1)


# Both stage-1 builders map the start (t0, ell0_, v0), the end (t1, ell1, v1),
# the average speed v and the step h to (times, positions, speeds, t_circ, delta).
def _build_stage1_c01(t0, ell0_, v0, t1, ell1, v1, v, h):
    n = max(int(np.ceil((t1 - t0) / h)), 4)
    ts = np.linspace(t0, t1, n + 1)
    ells = ell0_ + v * (ts - t0)
    ells[-1] = ell1
    return ts, ells, np.full(n + 1, v), 0.5 * (t0 + t1), 0.0


def _build_stage1_c1(t0, ell0_, v0, t1, ell1, v1, v, h):
    dt = t1 - t0
    dl = ell1 - ell0_
    t_mid = 0.5 * (t0 + t1)
    if dl <= _SLOPE_TOL * max(1.0, ell1):
        ts, rest = _static_piece(t0, t1, dt, h)
        return ts, np.full(ts.size, ell0_), rest, t_mid, 0.0

    a_moving = v0 > _SLOPE_TOL
    b_moving = v1 > _SLOPE_TOL
    # The initial branch ends where t0 = ell0_, so dt - dl = t1 - ell1 > 0 once
    # T > T_min; both moving intervals then keep at least 0.4 dt.
    delta = min(0.05 * dt, (dt - dl) / 8.0)
    left = t0 + delta if not a_moving else t0
    right = t1 - delta if not b_moving else t1
    m1 = (left, t_mid - delta)
    m2 = (t_mid + delta, right)
    len1 = m1[1] - m1[0]
    len2 = m2[1] - m2[0]
    gain1 = dl * len1 / (len1 + len2)
    gain2 = dl - gain1

    # Each resting piece's length is passed as computed here, not as t1 - t0,
    # whose rounding can change the node count.
    pieces = []
    if not a_moving:
        pieces.append(_static_piece(t0, left, delta, h))
    pieces.append(_speed_profile(m1[0], m1[1], v0 if a_moving else 0.0, 0.0, gain1, h))
    pieces.append(_static_piece(t_mid - delta, t_mid + delta, 2 * delta, h))
    pieces.append(_speed_profile(m2[0], m2[1], 0.0, v1 if b_moving else 0.0, gain2, h))
    if not b_moving:
        pieces.append(_static_piece(right, t1, delta, h))

    ts = np.concatenate([p[0] if i == 0 else p[0][1:] for i, p in enumerate(pieces)])
    sigma = np.concatenate([p[1] if i == 0 else p[1][1:] for i, p in enumerate(pieces)])
    ells = ell0_ + cumulative_trapezoid(ts, sigma)
    # pin the endpoint exactly; the profile integrals put us within float noise
    ells[-1] = ell1
    return ts, ells, sigma, t_mid, delta


# ---------------------------------------------------------------------------
# Front composition and trace assembly
# ---------------------------------------------------------------------------

def _join(parts, eps, pairs):
    """Concatenate (x, *values) pieces into arrays, dropping nodes closer than eps / 2.

    Where a piece starts within ``eps`` of the previous end, its first node
    moves to ``end + eps`` if ``pairs`` marks that junction, so both one-sided
    values survive; otherwise that node is dropped.
    """
    out = [parts[0]]
    for part, pair in zip(parts[1:], pairs):
        x, *values = part
        end = out[-1][0][-1]
        if x[0] - end <= eps and pair:
            part = (np.concatenate(([end + eps], x[1:])), *values)
        elif x[0] - end <= eps:
            part = [a[1:] for a in part]
        out.append(part)
    columns = [np.concatenate(c) for c in zip(*out)]
    keep = np.concatenate(([True], np.diff(columns[0]) > eps / 2))
    return [c[keep] for c in columns]


def _echo_images(front, seeds, T):
    """Forward images s -> tau_plus(tau_minus^-1(s)) of trace breakpoints, up to T.

    Each image lies at least 2 ell0 beyond its source, so at most T / (2 ell0)
    generations are walked, all breakpoints of one generation at once.
    """
    out = []
    s = np.asarray(seeds, dtype=float)
    while True:
        s = s[s < front.times[-1] - front.positions[-1] - 1e-12]  # tau_minus at the end
        if not s.size:
            return out
        s = front.tau_plus(front.tau_minus.invert(s))
        s = s[s <= T]
        out += s.tolist()


# ---------------------------------------------------------------------------
# Synthesis core
# ---------------------------------------------------------------------------

def _check_branch(branch: BranchResult, target: TargetState, T: float):
    f = branch.front_segment
    tol = 1e-6 * max(T, 1.0)
    if abs(f.t_end - T) > tol or abs(f.ell(f.t_end) - target.ellbar0) > tol:
        raise ValueError("branch does not end at (T, ellbar0)")
    if abs(branch.t_bar_star + branch.ell_bar_star - T) > tol:
        raise ValueError("branch start does not close the characteristic triangle")


def _synthesize(initial, target, kappa, T, branch, cfg, c1_mode):
    if T != cfg.T:
        raise ValueError(f"synthesis horizon T = {T:.17g} is not the solver's T = {cfg.T:.17g}")
    _check_branch(branch, target, T)
    ctol = 1e-6 + 10.0 * cfg.h

    if c1_mode:
        if initial.regularity != "C1" or target.regularity != "C1":
            raise IncompatibleData("C1 synthesis needs C1-tagged initial and target data")
        compat = check_initial_compatibility(
            initial, initial.y0(0.0), initial.y1(0.0), kappa, tol=1e-6
        )
        if not compat.passed:
            worst = compat.worst
            raise IncompatibleData(
                f"initial data violates C1 compatibility: {worst.name} residual "
                f"{worst.residual:.3g}"
            )
        alpha = classify_final_state(target, kappa)
        if abs(branch.alpha - alpha) > ctol:
            raise IncompatibleTarget(
                f"branch terminal speed {branch.alpha:.6g} does not match the "
                f"classification alpha = {alpha:.6g}"
            )
    else:
        alpha = branch.alpha

    t_bar, ell_bar, v_bar = branch.t_bar_star, branch.ell_bar_star, branch.ell_bar_star_prime
    len_tol = 1e-9 * max(ell_bar, 1.0)
    if ell_bar >= t_bar - len_tol:
        raise InfeasibleTime(
            f"final branch start (t, ell) = ({t_bar:.6g}, {ell_bar:.6g}) leaves no time to "
            f"inflate the domain: need T > 2 ell_bar_star = {2.0 * ell_bar:.6g}"
        )

    ib = solve_initial_branch(initial, kappa, cfg)
    t_star, ell_star, v_star = ib.t_star, ib.ell_star, ib.ell_star_prime
    if ell_bar < ell_star - len_tol:
        raise InfeasibleTime(
            f"final branch starts at ell = {ell_bar:.6g} left of the initial branch "
            f"end {ell_star:.6g}"
        )
    equal_len = abs(ell_bar - ell_star) <= max(len_tol, 1e-7)
    if c1_mode and equal_len and (v_star > _SLOPE_TOL or v_bar > _SLOPE_TOL):
        raise InfeasibleTime(
            "equal branch lengths require both endpoint front speeds to vanish"
        )

    # Stage-1 prescribed front; a C1 inflation between equal lengths rests at ell_star.
    ell_end = ell_star if c1_mode and equal_len else ell_bar
    v_lin = (ell_end - ell_star) / (t_bar - t_star)
    build = _build_stage1_c1 if c1_mode else _build_stage1_c01
    ts1, ells1, sig1, t_circ, delta = build(
        t_star, ell_star, v_star, t_bar, ell_end, v_bar, v_lin, cfg.h
    )
    case = _stage1_case(equal_len, v_star > _SLOPE_TOL, v_bar > _SLOPE_TOL)
    stage1_front = FrontCurve(ts1, ells1, np.minimum(sig1, SPEED_CAP))

    # Composite prescribed front on [0, T], its jumps paired like the designed trace's
    eps = pair_width(T, initial.ell0)
    pieces = [(f.times, f.positions, f.speeds)
              for f in (ib.front, stage1_front, branch.front_segment)]
    jumps = []  # a Lipschitz front keeps both one-sided speeds where they jump
    for a, b in zip(pieces, pieces[1:]):
        if abs(b[0][0] - a[0][-1]) > 1e-9 * max(T, 1.0):
            raise ContinuityFailure("front parts do not abut in time")
        jumps.append(not c1_mode and abs(b[2][0] - a[2][-1]) > _SPEED_TOL)
    front = FrontCurve(*_join(pieces, eps, jumps))
    if c1_mode:
        l_jump = float(np.max(np.abs(np.diff(front.speeds))))
        if l_jump > ctol:
            raise ContinuityFailure(f"prescribed front speed jumps by {l_jump:.3g}")

    # Stage boundaries in trace coordinates
    s1 = t_bar - ell_bar
    s2 = T - target.ellbar0

    w_plus, w_minus = target.w_plus, target.w_minus
    fp0 = 0.5 * (initial.y1(0.0) - initial.y0_prime(0.0))
    junction = -0.5 * w_plus(0.0) * (1.0 + v_bar) / (1.0 - v_bar)

    sgn_r = math.copysign(1.0, junction) if abs(junction) > 0.0 else 1.0
    sgn_l = math.copysign(1.0, fp0) if v_star > _SLOPE_TOL and abs(fp0) > 0.0 else sgn_r

    s1_nodes, s1_vals = fprime_for_prescribed_front(
        stage1_front,
        kappa,
        lambda t: np.where(t <= t_circ, sgn_l, sgn_r),
        left_value=fp0,
        right_value=junction,
    )

    # Sample stage 2 on the branch's own nodes.  On a static branch the trace
    # is linear in s between w_plus's abscissae, so those nodes are exact; on
    # a marched branch the nodes are at most h apart in r.
    seg = branch.front_segment
    t2, bls, bvs = seg.times, seg.positions, seg.speeds
    s2_nodes = t2 - bls
    args = np.clip(t2 + bls - T, w_plus.lo, w_plus.hi)
    s2_vals = -0.5 * w_plus(args) * (1.0 + bvs) / (1.0 - bvs)

    n3 = max(int(np.ceil(target.ellbar0 / cfg.h)), 8)
    x3 = union(np.linspace(0.0, target.ellbar0, n3 + 1), w_minus.xs)
    s3_nodes = (T - x3)[::-1]
    s3_vals = 0.5 * w_minus(x3)[::-1]

    # Seed and stages glued into one slope polyline on [-ell0, T], every stage
    # boundary a pair: one-sided limits for Lipschitz synthesis, for C1
    # synthesis any jump above ctol is an internal error.
    seed = initial.seed_trace
    stages = [(seed.minus_xs, seed.minus_vs), (s1_nodes, s1_vals), (s2_nodes, s2_vals),
              (s3_nodes, s3_vals)]
    for (sa, va), (sb, vb) in zip(stages, stages[1:]):
        jump = abs(vb[0] - va[-1])
        if c1_mode and jump > ctol and sb[0] - sa[-1] <= eps:
            raise ContinuityFailure(f"designed trace jumps by {jump:.3g} at s = {sa[-1]:.6g}")
    trace_s, trace_v = _join(stages, eps, [True] * 3)
    designed_trace = SampledFunction(trace_s, trace_v)

    # Stage-3 junction identity (the proof's linchpin computation)
    stage2_limit = float(s2_vals[-1])
    stage3_limit = float(s3_vals[0])
    junction_ref = -0.5 * (1.0 + alpha) * target.ybar0_prime(target.ellbar0)
    if c1_mode and abs(stage2_limit - stage3_limit) > ctol:
        raise ContinuityFailure(
            f"trace jumps by {abs(stage2_limit - stage3_limit):.3g} at tau_minus(T)"
        )

    # Boundary rate on a grid carrying every designed node plus echo images
    breakpoints = [0.0, initial.ell0, s1, s2, T]
    marks = np.array(breakpoints + _echo_images(front, breakpoints, T))
    base = trace_s[trace_s > 0.0]
    grids = [base, np.linspace(0.0, T, int(np.ceil(T / cfg.h)) + 1), marks]
    if not c1_mode:
        # The +side sample's echo must clear the jump sliver of the designed
        # trace, so this offset has to dominate the trace pair spacing even
        # after the echo map contracts it.
        off = 1e-7 * max(T, 1.0)
        inner = marks[(marks > 0.0) & (marks < T)]
        grids += [inner - off, inner + off]
    grid = union(*grids)
    grid = grid[(grid >= 0.0) & (grid <= T)]
    keep = np.concatenate(([True], np.diff(grid) > max(1e-12 * T, 1e-14)))
    grid = grid[keep]

    up_vals = uprime_from_fprime(designed_trace, front, initial, grid)
    # T's echo is s1, where the designed trace and the front's speed jump; rounding
    # can put it inside that pair, so u'(T) takes its left limit, on the stage-1 side.
    v1 = stage1_front.speeds[-1]
    up_vals[-1] = trace_v[-1] - s1_vals[-1] * ((1.0 - v1) / (1.0 + v1))
    u_vals = initial.y0(0.0) + cumulative_trapezoid(grid, up_vals)
    control = ControlSignal(SampledFunction(grid, u_vals), SampledFunction(grid, up_vals))
    plan = InflationPlan(v=v_lin, t_circ=t_circ, delta=delta, case=case,
                         front_segment=stage1_front)
    return SynthesisReport(
        control=control, plan=plan, branch=branch, initial_branch=ib,
        stage_boundaries=(s1, s2, T), front=front, designed_trace=designed_trace,
        stage3_junction=(stage2_limit, stage3_limit, float(junction_ref)),
    )


def synthesize_c01(
    initial: InitialState,
    target: TargetState,
    kappa: Toughness,
    T: float,
    branch: BranchResult,
    cfg: SolverConfig,
) -> SynthesisReport:
    """Lipschitz control steering the system exactly onto the target at T."""
    return _synthesize(initial, target, kappa, T, branch, cfg, c1_mode=False)


def synthesize_c1(
    initial: InitialState,
    target: TargetState,
    kappa: Toughness,
    T: float,
    branch: BranchResult,
    cfg: SolverConfig,
) -> SynthesisReport:
    """Continuously differentiable control steering exactly onto the target."""
    return _synthesize(initial, target, kappa, T, branch, cfg, c1_mode=True)


def _synthesize_static(initial, target, kappa, T, cfg, c1_mode):
    """The damping bound a static branch needs, then the general path on that branch."""
    check = check_damping_bound(target, kappa(target.ellbar0)).worst
    if not check.passed:
        raise ConstraintViolated(
            f"sup |ybar1 + ybar0'|^2 exceeds 2 kappa(ellbar0) by {check.residual:.6g}",
            excess=check.residual,
        )
    return _synthesize(initial, target, kappa, T, static_branch(target, kappa, T), cfg, c1_mode)


def synthesize_static_c01(
    initial: InitialState,
    target: TargetState,
    kappa: Toughness,
    T: float,
    cfg: SolverConfig,
) -> SynthesisReport:
    """Static-final-branch shortcut: size constraint, then the general path."""
    return _synthesize_static(initial, target, kappa, T, cfg, c1_mode=False)


def synthesize_static_c1(
    initial: InitialState,
    target: TargetState,
    kappa: Toughness,
    T: float,
    cfg: SolverConfig,
) -> SynthesisReport:
    """C1 static shortcut: size constraint, then the general path (passive targets only)."""
    return _synthesize_static(initial, target, kappa, T, cfg, c1_mode=True)


# ---------------------------------------------------------------------------
# Round-trip verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationResult:
    front_error: float
    displacement_error: float
    velocity_error: float
    solution: object

    def within(self, tol_front, tol_disp, tol_vel) -> bool:
        return (
            self.front_error <= tol_front
            and self.displacement_error <= tol_disp
            and self.velocity_error <= tol_vel
        )


def verify_synthesis(
    report: SynthesisReport,
    initial: InitialState,
    target: TargetState,
    kappa: Toughness,
    cfg: SolverConfig,
) -> VerificationResult:
    """Simulate forward under the emitted control and compare against the target at ``cfg.T``.

    ``cfg.T`` must be the report's horizon (its last stage boundary)."""
    if report.stage_boundaries[-1] != cfg.T:
        raise ValueError(f"report horizon T = {report.stage_boundaries[-1]:.17g} is not the "
                         f"solver's T = {cfg.T:.17g}")
    return verify_control(report.control, initial, target, kappa, cfg)


def verify_control(
    control: ControlSignal,
    initial: InitialState,
    target: TargetState,
    kappa: Toughness,
    cfg: SolverConfig,
) -> VerificationResult:
    """Simulate forward under ``control``; front, displacement and velocity errors at T.

    A control that runs past ``cfg.T`` is accepted and verified at ``cfg.T``.

    The velocity comparison skips a thin margin at both domain ends: for
    Lipschitz controls the designed trace jumps map exactly onto the target
    endpoints, where the terminal velocity is only defined almost everywhere.
    """
    T = cfg.T
    sol = solve_front(initial, control, kappa, cfg)
    ell_T = sol.front.ell(T)
    front_err = abs(ell_T - target.ellbar0)
    hi = min(ell_T, target.ellbar0)
    xs = np.linspace(0.0, hi, _VERIFY_INTERVALS + 1)
    y, dty, _ = sol.reconstruct(T, xs)
    disp_err = float(np.max(np.abs(y - target.ybar0(xs))))
    margin = max(4.0 * cfg.h, 1e-3 * hi)
    inner = (xs >= margin) & (xs <= hi - margin)
    if not inner.any():
        raise ValueError(f"step h = {cfg.h:g} too coarse to verify: a margin of {margin:g} at "
                         f"each end leaves no velocity check point in [0, {hi:g}]")
    vel_err = float(np.max(np.abs(dty[inner] - target.ybar1(xs[inner]))))
    return VerificationResult(front_err, disp_err, vel_err, sol)
