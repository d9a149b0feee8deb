import collections
import dataclasses
import math
import re

import numpy as np
import pytest

from debond import (
    ConstraintViolated,
    ContinuityFailure,
    FrontCurve,
    IncompatibleData,
    IncompatibleTarget,
    InfeasibleTime,
    InitialState,
    SampledFunction,
    SolverConfig,
    TargetState,
    Toughness,
)
from debond.branch import BranchPolicy, solve_final_branch, static_branch
from debond.cli import main
from debond.config import parse_config
from debond.control import (
    _speed_profile,
    fprime_for_prescribed_front,
    synthesize_c01,
    synthesize_c1,
    synthesize_static_c01,
    synthesize_static_c1,
    uprime_from_fprime,
    verify_control,
    verify_synthesis,
)
from debond import model
from debond.func1d import cumulative_trapezoid, merged_eval, pair_width

H = 1e-3


def sampled(fn, lo, hi, n=400):
    xs = np.linspace(lo, hi, n + 1)
    return SampledFunction(xs, [fn(x) for x in xs])


def make_initial(ell0, y0_fn, y1_fn, regularity="C01", n=400):
    return InitialState(ell0, sampled(y0_fn, 0, ell0, n), sampled(y1_fn, 0, ell0, n), regularity)


def make_target(ellbar0, y0_fn, y1_fn, regularity="C01", n=400):
    return TargetState(
        ellbar0, sampled(y0_fn, 0, ellbar0, n), sampled(y1_fn, 0, ellbar0, n), regularity
    )


def zero_initial(ell0=1.0, regularity="C01"):
    return make_initial(ell0, lambda x: 0.0, lambda x: 0.0, regularity, n=4)


def zero_target(ellbar0, regularity="C01"):
    return make_target(ellbar0, lambda x: 0.0, lambda x: 0.0, regularity, n=4)


def static_front(ell, t0, t1, n=64):
    ts = np.linspace(t0, t1, n + 1)
    return FrontCurve(ts, np.full(n + 1, ell), np.zeros(n + 1))


def assert_front_jumps_on_trace_pairs(rep, ell0, T):
    """Each speed-jump pair of the prescribed front, mapped by t - ell, is a designed-trace pair."""
    eps = pair_width(T, ell0)
    f, xs = rep.front, rep.designed_trace.xs
    s = f.times - f.positions
    fronts = np.flatnonzero(np.diff(f.times) < 2.0 * eps)
    traces = np.flatnonzero(np.diff(xs) < 2.0 * eps)
    assert fronts.size
    for k in fronts:
        left = np.abs(xs[traces] - s[k]) <= eps / 100
        assert np.any(left & (np.abs(xs[traces + 1] - s[k + 1]) <= eps / 100)), s[k]


# -- op-level ---------------------------------------------------------------------

@pytest.mark.parametrize("h", [1e-3, 1e-2])
def test_speed_profile_falls_back_to_ramp_and_plateau(h):
    # From rest to rest, gaining 0.9 over [0, 1]: the cubic's slope peaks at 1.35.
    ts, sigma = _speed_profile(0.0, 1.0, 0.0, 0.0, 0.9, h)
    assert ts[0] == 0.0 and ts[-1] == 1.0 and sigma[0] == 0.0 and sigma[-1] == 0.0
    assert sigma.min() >= 0.0 and sigma.max() <= 1.0 - 1e-6
    assert abs(cumulative_trapezoid(ts, sigma)[-1] - 0.9) <= 5.0 * h * h
    with pytest.raises(InfeasibleTime, match="cannot gain length"):
        _speed_profile(0.0, 1.0, 0.0, 0.0, 0.9999999999, h)


def positive(t):
    return 1.0


def test_fprime_static_segment_zero_requirements():
    seg = static_front(1.0, 1.0, 3.0)
    s, v = fprime_for_prescribed_front(seg, Toughness(1.0), positive, left_value=0.0,
                                       right_value=0.0)
    assert np.max(np.abs(v)) == 0.0


def test_fprime_constant_speed_magnitude():
    ts = np.linspace(0.0, 3.0, 31)
    seg = FrontCurve(ts, 1.0 + ts / 3.0, np.full(31, 1.0 / 3.0))
    _, v = fprime_for_prescribed_front(seg, Toughness(3.0), positive, 0.0, 0.0)
    assert np.max(np.abs(v - math.sqrt(3.0))) <= 1e-12


def test_fprime_sign_change_through_plateau():
    seg = static_front(1.0, 1.0, 3.0)
    thr = math.sqrt(0.5)
    s, v = fprime_for_prescribed_front(
        seg, Toughness(1.0), positive, left_value=thr, right_value=-thr
    )
    assert v[0] == pytest.approx(thr)
    assert v[-1] == pytest.approx(-thr)
    assert np.max(np.abs(v)) <= thr + 1e-12
    assert np.any(np.diff(np.sign(v[np.abs(v) > 0])) != 0)


def _prescribed_front_by_node(front, kappa, sign_at, left_value, right_value):
    # Node-by-node reference: math.sqrt and scalar toughness queries.
    ts, Ls, vs = front.times.tolist(), front.positions.tolist(), front.speeds.tolist()
    s_nodes = [t - L for t, L in zip(ts, Ls)]
    n = len(ts)
    moving = [v > 1e-12 for v in vs]
    vals = [0.0] * n
    for i in range(n):
        if moving[i]:
            v = min(vs[i], 1.0 - 1e-12)
            mag = math.sqrt(kappa(Ls[i]) * (1.0 + v) / (2.0 * (1.0 - v)))
            vals[i] = math.copysign(mag, sign_at(ts[i]))
    i = 0
    while i < n:
        if moving[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and not moving[j + 1]:
            j += 1
        sa, va = (s_nodes[i - 1], vals[i - 1]) if i > 0 else (s_nodes[i], left_value)
        sb, vb = (s_nodes[j + 1], vals[j + 1]) if j + 1 < n else (s_nodes[j], right_value)
        for k in range(i, j + 1):
            w = min(max((s_nodes[k] - sa) / (sb - sa), 0.0), 1.0) if sb > sa else 0.0
            band = math.sqrt(0.5 * kappa(Ls[k]))
            vals[k] = min(max(va * (1.0 - w) + vb * w, -band), band)
        i = j + 1
    return np.array(s_nodes), np.array(vals)


@pytest.mark.parametrize("ends", [(0.3, -0.2)])
def test_fprime_prescribed_front_matches_node_by_node(ends):
    rng = np.random.default_rng(17)
    ts = np.linspace(1.0, 4.0, 601)
    speeds = np.where(np.sin(5.0 * ts) > 0.2, rng.uniform(0.05, 0.9, ts.size), 0.0)
    speeds[:40] = 0.0  # a static run at each end
    speeds[-25:] = 0.0
    ells = 1.0 + np.concatenate(([0.0], np.cumsum(0.5 * (speeds[1:] + speeds[:-1]) * np.diff(ts))))
    front = FrontCurve(ts, ells, speeds)
    kx = np.linspace(0.0, 8.0, 65)
    for kappa in (Toughness(1.3), Toughness(SampledFunction(kx, 1.0 + 0.2 * np.sin(1.7 * kx)))):
        sign_at = lambda t: np.where(t < 2.5, 1.0, -1.0)
        s, v = fprime_for_prescribed_front(front, kappa, sign_at, *ends)
        s_ref, v_ref = _prescribed_front_by_node(front, kappa, sign_at, *ends)
        assert np.all(s == s_ref)
        assert np.all(v == v_ref)


def test_uprime_inside_data_region():
    st = make_initial(1.0, lambda x: 0.0, lambda x: 2.0)
    seg = static_front(1.0, 0.0, 3.0)
    got = uprime_from_fprime(lambda s: 1.0, seg, st, 0.5)
    assert got == pytest.approx(2.0, abs=1e-12)


def test_uprime_reflection_with_static_front():
    st = zero_initial()
    seg = static_front(1.0, 0.0, 4.0)
    fp = lambda s: math.sin(s)
    got = uprime_from_fprime(fp, seg, st, 2.5)
    assert got == pytest.approx(math.sin(2.5) - math.sin(0.5), abs=1e-9)


def test_uprime_zero_trace():
    st = zero_initial()
    seg = static_front(1.0, 0.0, 4.0)
    assert uprime_from_fprime(lambda s: 0.0, seg, st, 3.0) == 0.0


def _uprime_by_where(fprime, front, initial, s):
    """u' from the data formula and the reflection at every point, picked by np.where."""
    s = np.asarray(s, dtype=float)
    ell0 = initial.ell0
    inside = s <= ell0
    fp_s = fprime(s)
    x = np.minimum(s, ell0)
    data = fp_s + 0.5 * (initial.y0_prime(x) + initial.y1(x))
    echo, factor = front.reflect(np.where(inside, front.tau_plus.fn.vs[0], s))
    reflected = fp_s - fprime(np.maximum(echo, -ell0)) * factor
    return np.where(inside, data, reflected)


def test_uprime_each_side_on_its_points_equals_the_where_formulation():
    initial = make_initial(1.0, lambda x: 0.3 * x * (1.0 - x), lambda x: 0.5 * math.cos(3.0 * x))
    target = make_target(1.5, lambda x: 0.0, lambda x: 0.0)
    kappa = Toughness(0.8)
    branch = solve_final_branch(target, kappa, 5.0, BranchPolicy("prefer_static", h=H))
    rep = synthesize_c01(initial, target, kappa, 5.0, branch, SolverConfig(h=H, T=5.0))
    s = np.concatenate((np.linspace(0.0, 5.0, 389), [1.0, np.nextafter(1.0, 2.0), 0.999]))
    for points in (s, s[s <= 1.0], s[s > 1.0], s.reshape(-1, 7)):
        got = uprime_from_fprime(rep.designed_trace, rep.front, initial, points)
        want = _uprime_by_where(rep.designed_trace, rep.front, initial, points)
        assert got.shape == points.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    shapes = []

    def fprime(q):
        shapes.append(np.shape(q))
        return rep.designed_trace(q)

    for point in (0.5, 1.0, 3.5):  # a float: fprime sees 0-d arrays, and a float comes back
        shapes.clear()
        got = uprime_from_fprime(fprime, rep.front, initial, point)
        assert type(got) is float and got == float(_uprime_by_where(
            rep.designed_trace, rep.front, initial, point))
        assert shapes == [()] * (1 if point <= 1.0 else 2)


# -- C01 synthesis ------------------------------------------------------------------

def test_zero_to_zero_c01_is_null_steering():
    initial = zero_initial()
    target = zero_target(1.0)
    kappa = Toughness(1.0)
    cfg = SolverConfig(h=H, T=3.0)
    branch = static_branch(target, kappa, 3.0)
    rep = synthesize_c01(initial, target, kappa, 3.0, branch, cfg)
    assert rep.plan.case == "static_match"
    assert np.max(np.abs(rep.control.u.vs)) <= 1e-12
    res = verify_synthesis(rep, initial, target, kappa, cfg)
    assert res.front_error <= 1e-10
    assert res.displacement_error <= 1e-10
    assert res.velocity_error <= 1e-10


def test_verify_synthesis_rejects_a_report_for_another_horizon():
    # README's library example, synthesized for T = 6 and verified with T = 5.
    initial, target, kappa = zero_initial(), zero_target(2.0), Toughness(1.0)
    cfg = SolverConfig(h=H, T=6.0)
    rep = synthesize_c01(initial, target, kappa, 6.0, static_branch(target, kappa, 6.0), cfg)
    short = SolverConfig(h=H, T=5.0)
    with pytest.raises(ValueError, match=r"^report horizon T = 6 is not the solver's T = 5$"):
        verify_synthesis(rep, initial, target, kappa, short)
    # A bare control that runs past T is still verified, at T.
    res = verify_control(rep.control, initial, target, kappa, short)
    assert res.solution.front.t_end == 5.0 and res.displacement_error > 0.4


def test_expansion_c01_plan_and_roundtrip():
    initial = zero_initial()
    target = zero_target(2.0)
    kappa = Toughness(1.0)
    T = 6.0
    cfg = SolverConfig(h=H, T=T)
    branch = static_branch(target, kappa, T)
    rep = synthesize_c01(initial, target, kappa, T, branch, cfg)
    # v = (2 - 1)/(4 - 1) and the forced stage-1 magnitude is exactly 1
    assert rep.plan.v == pytest.approx(1.0 / 3.0, abs=1e-9)
    s_mid = 0.5 * rep.stage_boundaries[0]
    assert abs(rep.designed_trace(s_mid)) == pytest.approx(1.0, abs=1e-9)
    res = verify_synthesis(rep, initial, target, kappa, cfg)
    assert res.front_error <= 1e-2
    # The front and the designed trace pair their jump nodes alike, so the round trip is exact
    # up to rounding.
    assert res.displacement_error <= 1e-10
    assert_front_jumps_on_trace_pairs(rep, initial.ell0, T)


def test_expansion_c01_control_shape():
    # Hand-computed rates for the canonical expansion: u' = 1 until s = 2,
    # then -1/2 up to T.
    initial = zero_initial()
    target = zero_target(2.0)
    kappa = Toughness(1.0)
    T = 6.0
    cfg = SolverConfig(h=H, T=T)
    rep = synthesize_c01(initial, target, kappa, T, static_branch(target, kappa, T), cfg)
    up = rep.control.uprime
    for s, want in ((0.5, 1.0), (1.5, 1.0), (2.5, -0.5), (4.5, -0.5), (5.9, -0.5)):
        assert up(s) == pytest.approx(want, abs=1e-6), s
    assert rep.control.u(6.0) == pytest.approx(0.0, abs=1e-6)


def test_infeasible_time_when_branch_left_of_initial():
    # moving initial data pushes ell_star to ~2.5 > ellbar_star = 2
    initial = make_initial(1.0, lambda x: 0.0, lambda x: 2.0)
    target = zero_target(2.0)
    kappa = Toughness(0.5)
    T = 6.0
    cfg = SolverConfig(h=H, T=T)
    branch = static_branch(target, kappa, T)
    with pytest.raises(InfeasibleTime, match="left of the initial branch end"):
        synthesize_c01(initial, target, kappa, T, branch, cfg)
    with pytest.raises(InfeasibleTime, match="left of the initial branch end"):
        synthesize_static_c01(initial, target, kappa, T, cfg)


def test_moving_branch_roundtrip_c01():
    # Follow a genuinely moving final branch (root 0.5 throughout stage 2).
    initial = zero_initial()
    w = math.sqrt(2.0 / 3.0)
    target = make_target(2.0, lambda x: 0.0, lambda x: w, n=8)
    kappa = Toughness(1.0)
    T = 6.0
    cfg = SolverConfig(h=H, T=T)
    branch = solve_final_branch(target, kappa, T, BranchPolicy("prefer_moving", h=H))
    rep = synthesize_c01(initial, target, kappa, T, branch, cfg)
    res = verify_synthesis(rep, initial, target, kappa, cfg)
    assert res.front_error <= 1e-2
    assert res.displacement_error <= 1e-2
    assert res.velocity_error <= 0.1
    # the designed trace drives the kernel back onto the branch speeds
    from debond import griffith_speed

    seg = branch.front_segment
    for t in np.linspace(branch.t_bar_star + 0.05, T - 0.05, 15):
        s = t - seg.ell(t)
        v = griffith_speed(rep.designed_trace(s), kappa(seg.ell(t)))
        assert v == pytest.approx(seg.ell_prime(t), abs=10 * H)
    assert_front_jumps_on_trace_pairs(rep, initial.ell0, T)


def test_stage3_trace_is_direct_assignment():
    # On (tau_minus(T), T] the designed slope equals (ybar1 - ybar0')(T - s)/2
    # at every node: an assignment, not an integration.
    initial = zero_initial()
    target = make_target(2.0, lambda x: 0.3 * math.sin(math.pi * x / 2.0), lambda x: 0.0, n=600)
    kappa = Toughness(1.0)
    T = 6.0
    cfg = SolverConfig(h=H, T=T)
    rep = synthesize_c01(initial, target, kappa, T, static_branch(target, kappa, T), cfg)
    s2 = rep.stage_boundaries[1]
    w_minus = target.w_minus
    nodes = rep.designed_trace.xs
    sel = nodes > s2 + 1e-9
    vals = rep.designed_trace.vs[sel]
    expect = 0.5 * w_minus(np.clip(T - nodes[sel], 0.0, target.ellbar0))
    assert np.max(np.abs(vals - expect)) <= 1e-14
    assert_front_jumps_on_trace_pairs(rep, initial.ell0, T)


SMALL_ELL0_EULER = """\
T: 1.5
solver: {h: 1.0e-3, scheme: euler}
toughness: {preset: linear, intercept: 0.5, slope: 1.0}
initial:
  ell0: 0.05
  regularity: C01
  y0: {preset: constant, value: 0.0}
  y1: {preset: linear, intercept: 0.4, slope: -2.0}
target:
  ellbar0: 0.3
  regularity: C01
  ybar0: {preset: constant, value: 0.0}
  ybar1: {preset: constant, value: 0.0}
"""


def test_uprime_at_T_is_the_left_limit():
    # T's echo is s1, where the designed trace jumps; here it rounds one ulp into that pair.
    cfg = parse_config(SMALL_ELL0_EULER)
    initial, target, kappa = cfg.build_initial(), cfg.build_target(), cfg.build_toughness()
    branch = solve_final_branch(target, kappa, cfg.T, cfg.branch_policy())
    rep = synthesize_c01(initial, target, kappa, cfg.T, branch, cfg.solver_config())
    left = uprime_from_fprime(rep.designed_trace, rep.front, initial, cfg.T - 1e-9)
    assert rep.control.uprime.vs[-1] == pytest.approx(left, abs=1e-7)


# -- static corollaries ---------------------------------------------------------------

def test_static_corollary_sine_target():
    initial = zero_initial()
    target = make_target(
        2.0,
        lambda x: math.sin(math.pi * x / 2.0) * (2.0 - x) / 2.0,
        lambda x: -(math.pi / 2.0 * math.cos(math.pi * x / 2.0) * (2.0 - x) / 2.0
                    - math.sin(math.pi * x / 2.0) / 2.0),
        n=800,
    )
    kappa = Toughness(1.0)
    cfg = SolverConfig(h=H, T=5.0)
    rep = synthesize_static_c01(initial, target, kappa, 5.0, cfg)
    res = verify_synthesis(rep, initial, target, kappa, cfg)
    assert res.front_error <= 1e-2
    assert res.displacement_error <= 1e-2
    assert_front_jumps_on_trace_pairs(rep, initial.ell0, 5.0)


def test_static_corollary_constraint_violation():
    initial = zero_initial()
    target = make_target(1.0, lambda x: 2.0 * (1.0 - x), lambda x: 4.0)
    message = re.escape("exceeds 2 kappa(ellbar0) by 2")
    with pytest.raises(ConstraintViolated, match=message) as err:
        synthesize_static_c01(initial, target, Toughness(1.0), 5.0, SolverConfig(h=H, T=5.0))
    assert err.value.excess == pytest.approx(2.0, abs=1e-9)


def test_static_corollary_boundary_time_rejected():
    initial = zero_initial()
    target = zero_target(2.0)
    with pytest.raises(InfeasibleTime, match="need T > 2 ell_bar_star = 4"):
        synthesize_static_c01(initial, target, Toughness(1.0), 4.0, SolverConfig(h=H, T=4.0))


def test_synthesis_horizon_must_be_the_solver_horizon():
    # A control on [0, 6] would be verified on [0, 5]: both entry kinds refuse it.
    initial, target, kappa = zero_initial(), zero_target(2.0), Toughness(1.0)
    cfg = SolverConfig(h=H, T=5.0)
    message = re.escape("synthesis horizon T = 6 is not the solver's T = 5")
    with pytest.raises(ValueError, match=message):
        synthesize_c01(initial, target, kappa, 6.0, static_branch(target, kappa, 6.0), cfg)
    with pytest.raises(ValueError, match=message):
        synthesize_static_c01(initial, target, kappa, 6.0, cfg)


def _bits(rep):
    """Every array the equivalence below compares, as uint64 words."""
    c, f, d = rep.control, rep.front, rep.designed_trace
    arrays = (c.u.xs, c.u.vs, c.uprime.xs, c.uprime.vs, f.times, f.positions, f.speeds,
              d.xs, d.vs, rep.stage_boundaries, rep.stage3_junction)
    return [np.asarray(a, dtype=float).view(np.uint64) for a in arrays]


@pytest.mark.parametrize("regularity", ["C01", "C1"])
def test_static_shortcut_is_the_general_path_on_a_static_branch(regularity):
    if regularity == "C1":
        initial, target, _, T = case_d_problem()
        shortcut, general = synthesize_static_c1, synthesize_c1
    else:  # the outgoing half ybar1 + ybar0' is nonzero, so stage 2 is too
        initial, T = zero_initial(), 5.0
        target = make_target(2.0, lambda x: 0.25 * math.sin(math.pi * x / 2.0), lambda x: 0.3)
        shortcut, general = synthesize_static_c01, synthesize_c01
    kappa = sampled_kappa()
    cfg = SolverConfig(h=H, T=T)
    a = shortcut(initial, target, kappa, T, cfg)
    b = general(initial, target, kappa, T, static_branch(target, kappa, T), cfg)
    for x, y in zip(_bits(a), _bits(b), strict=True):
        assert np.array_equal(x, y)


# -- C1 synthesis ------------------------------------------------------------------------

@pytest.mark.parametrize("branch_T, shift, message", [
    (5.0, 0.0, r"branch does not end at \(T, ellbar0\)"),
    (6.0, 0.1, "branch start does not close the characteristic triangle"),
])
def test_synthesis_refuses_a_branch_off_the_target_or_the_triangle(branch_T, shift, message):
    initial, target, kappa = zero_initial(), zero_target(2.0), Toughness(1.0)
    branch = static_branch(target, kappa, branch_T)
    branch = dataclasses.replace(branch, t_bar_star=branch.t_bar_star + shift)
    with pytest.raises(ValueError, match=f"^{message}$"):
        synthesize_c01(initial, target, kappa, 6.0, branch, SolverConfig(h=1e-2, T=6.0))


def max_uprime_jump(control):
    """Largest difference of u' between consecutive sample nodes."""
    return float(np.max(np.abs(np.diff(control.uprime.vs))))


def test_zero_to_zero_c1():
    initial = zero_initial(regularity="C1")
    target = zero_target(1.0, regularity="C1")
    kappa = Toughness(1.0)
    cfg = SolverConfig(h=H, T=3.0)
    rep = synthesize_c1(initial, target, kappa, 3.0, static_branch(target, kappa, 3.0), cfg)
    assert max_uprime_jump(rep.control) <= 1e-8
    res = verify_synthesis(rep, initial, target, kappa, cfg)
    assert res.front_error <= 1e-10
    assert res.displacement_error <= 1e-10


def case_d_problem():
    ell0, ellbar0, T = 1.0, 2.0, 6.0
    initial = zero_initial(regularity="C1")
    amp = 0.35
    target = make_target(
        ellbar0,
        lambda x: amp * math.sin(math.pi * x / ellbar0),
        lambda x: 0.0,
        regularity="C1",
        n=1600,
    )
    return initial, target, Toughness(1.0), T


def test_case_d_c1_roundtrip():
    initial, target, kappa, T = case_d_problem()
    cfg = SolverConfig(h=H, T=T)
    rep = synthesize_static_c1(initial, target, kappa, T, cfg)
    assert rep.plan.case == "d"
    assert rep.plan.delta > 0.0
    # zero-speed intervals at both ends and around the middle of stage 1
    seg = rep.plan.front_segment
    for t_probe in (rep.initial_branch.t_star + 1e-6, rep.plan.t_circ,
                    rep.branch.t_bar_star - 1e-6):
        assert seg.ell_prime(t_probe) <= 1e-9
    jump_tol = 1e-6 + 10 * H
    assert max_uprime_jump(rep.control) <= jump_tol
    assert np.max(np.abs(np.diff(rep.front.speeds))) <= jump_tol
    # Stage-3 junction identity, both one-sided limits vs -(1 + alpha) ybar0'(L)/2
    left, right, ref = rep.stage3_junction
    assert left == pytest.approx(ref, abs=1e-8)
    assert right == pytest.approx(ref, abs=1e-8)
    res = verify_synthesis(rep, initial, target, kappa, cfg)
    assert res.front_error <= 1e-2
    assert res.displacement_error <= 1e-2
    assert res.velocity_error <= 0.1


def test_c1_rejects_incompatible_initial_data():
    bad = make_initial(1.0, lambda x: 1.0 - x, lambda x: 2.0, regularity="C1")
    target = zero_target(2.0, regularity="C1")
    kappa = Toughness(1.0)
    cfg = SolverConfig(h=H, T=6.0)
    with pytest.raises(IncompatibleData):
        synthesize_c1(bad, target, kappa, 6.0, static_branch(target, kappa, 6.0), cfg)


def test_c1_rejects_lipschitz_tagged_data():
    initial = zero_initial(regularity="C01")
    target = zero_target(1.0, regularity="C1")
    kappa = Toughness(1.0)
    cfg = SolverConfig(h=H, T=3.0)
    with pytest.raises(IncompatibleData):
        synthesize_c1(initial, target, kappa, 3.0, static_branch(target, kappa, 3.0), cfg)


def test_round_trip_builds_each_state_combination_once(monkeypatch):
    initial, target, kappa, T = case_d_problem()
    calls = collections.Counter()

    def counting(fn_a, fn_b, combine):
        calls[id(fn_a), id(fn_b), combine if isinstance(combine, np.ufunc) else None] += 1
        return merged_eval(fn_a, fn_b, combine)

    monkeypatch.setattr(model, "merged_eval", counting)
    cfg = SolverConfig(h=H, T=T)
    verify_synthesis(synthesize_static_c1(initial, target, kappa, T, cfg), initial, target,
                     kappa, cfg)
    ybar = id(target.ybar1), id(target.ybar0_prime)
    assert calls == {(*ybar, np.add): 1, (*ybar, np.subtract): 1,
                     (id(initial.y1), id(initial.y0_prime), None): 1,
                     (id(initial.y0_prime), id(initial.y1), None): 1}


def sampled_kappa():
    xk = np.linspace(0.0, 8.0, 65)
    return Toughness(SampledFunction(xk, 1.0 + 0.1 * np.sin(1.3 * xk + 0.4)))


def _c1_moving_problem(short):
    """An active C1 target (alpha = 0.3) whose tables end ``short`` before ellbar0 = 2."""
    kappa = sampled_kappa()
    c = math.sqrt(2.0 * kappa(2.0) / (1.0 - 0.3 * 0.3))
    xs = np.linspace(0.0, 2.0 - short, 401)
    target = TargetState(2.0, SampledFunction(xs, c * (2.0 - xs)),
                         SampledFunction(xs, np.full(xs.size, 0.3 * c)), "C1")
    return zero_initial(regularity="C1"), target, kappa


@pytest.mark.parametrize("short, message", [(0.0, "designed trace jumps by"),
                                            (5e-10, "at tau_minus(T)")])
def test_c1_trace_jump_at_tau_minus_T_is_caught_whether_stages_abut_or_not(short, message):
    # The branch's terminal speed is raised by 0.6 ctol: the prescribed front's speed
    # stays continuous within ctol, while the stage-2 limit moves by about 2.2 times as
    # much.  Tables ending inside the domain slack end the branch 5e-10 before T, so
    # stages 2 and 3 no longer abut and only the check at tau_minus(T) sees the jump.
    initial, target, kappa = _c1_moving_problem(short)
    cfg = SolverConfig(h=H, T=6.0)
    branch = solve_final_branch(target, kappa, 6.0, BranchPolicy("prefer_moving", h=H))
    assert branch.front_segment.t_end == pytest.approx(6.0 - short, abs=1e-13)
    synthesize_c1(initial, target, kappa, 6.0, branch, cfg)  # consistent: no jump
    f = branch.front_segment
    speeds = f.speeds.copy()
    speeds[-1] += 0.6 * (1e-6 + 10.0 * H)
    off = dataclasses.replace(branch, front_segment=FrontCurve(f.times, f.positions, speeds))
    with pytest.raises(ContinuityFailure, match=re.escape(message)):
        synthesize_c1(initial, target, kappa, 6.0, off, cfg)


def test_static_c1_rejects_an_active_target():
    # A static branch ends at rest, so its terminal speed 0 misses alpha = 0.3.
    initial, target, kappa = _c1_moving_problem(0.0)
    with pytest.raises(IncompatibleTarget, match="does not match the classification alpha = 0.3"):
        synthesize_static_c1(initial, target, kappa, 6.0, SolverConfig(h=H, T=6.0))


NEAR_PASSIVE_C1 = """\
T: 6.0
solver: {h: 1.0e-3, scheme: heun}
toughness: {preset: constant, value: 1.0}
initial:
  ell0: 1.0
  regularity: C1
  y0: {preset: constant, value: 0.0}
  y1: {preset: constant, value: 0.0}
target:
  ellbar0: 2.0
  regularity: C1
  ybar0: {preset: sine, amplitude: 0.1, omega: 1.5707963267948966}
  ybar1: {preset: constant, value: 1.0e-7}
"""


def test_terminal_classification_agrees_across_synthesis_branch_and_check_admissible(tmp_path):
    # |ybar1(ellbar0)| = 1e-7: passive only at a tolerance above 1e-8, active at none.
    cfg = parse_config(NEAR_PASSIVE_C1)
    initial, target, kappa = cfg.build_initial(), cfg.build_target(), cfg.build_toughness()
    with pytest.raises(IncompatibleTarget, match="matches neither passive"):
        synthesize_static_c1(initial, target, kappa, 6.0, cfg.solver_config())
    with pytest.raises(IncompatibleTarget, match="matches neither passive"):
        solve_final_branch(target, kappa, 6.0, cfg.branch_policy())
    path = tmp_path / "scenario.yaml"
    path.write_text(NEAR_PASSIVE_C1)
    assert main(["check-admissible", "--config", str(path), "--out", str(tmp_path)]) == 1
    rows = (tmp_path / "admissibility.csv").read_text().splitlines()
    assert any(row.startswith("terminal_classification,false,") for row in rows)


def _from_minus_zero(fn):
    """fn's samples with the first abscissa, 0.0, written as -0.0."""
    xs = fn.xs.copy()
    assert xs[0] == 0.0
    xs[0] = -0.0
    return SampledFunction(xs, fn.vs)


def test_round_trip_does_not_depend_on_the_sign_of_a_zero_abscissa():
    # Grid unions (the seed trace's halves, w_plus and w_minus, the backward nodes, stage 3)
    # here meet 0.0 from one table and -0.0 from another; which one a union keeps
    # must not change a bit of the result.
    initial = make_initial(1.0, lambda x: 0.1 * x * (1.0 - x), lambda x: 0.2, n=50)
    target = make_target(2.0, lambda x: 0.0, lambda x: math.sqrt(2.0 / 3.0), n=8)
    kx = np.linspace(0.0, 8.0, 65)
    kappa = Toughness(SampledFunction(kx, 1.0 + 0.05 * np.sin(1.3 * kx)))
    cfg = SolverConfig(h=H, T=6.0)
    runs = []
    for init, tgt in ((initial, target),
                      (InitialState(1.0, _from_minus_zero(initial.y0), initial.y1),
                       TargetState(2.0, _from_minus_zero(target.ybar0), target.ybar1))):
        branch = solve_final_branch(tgt, kappa, 6.0, BranchPolicy("prefer_moving", h=H))
        rep = synthesize_c01(init, tgt, kappa, 6.0, branch, cfg)
        core = verify_synthesis(rep, init, tgt, kappa, cfg).solution._core
        assert np.signbit(init.seed_trace.plus_xs[0]) == (init is not initial)  # y0' first
        runs.append([rep.control.u.xs, rep.control.u.vs, rep.control.uprime.vs,
                     rep.designed_trace.xs, rep.designed_trace.vs, rep.front.positions,
                     branch.front_segment.times, core.t, core.ell, core.fp])
    assert np.signbit(runs[1][0][0]) == np.signbit(runs[0][0][0])  # u starts at +0.0
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()
