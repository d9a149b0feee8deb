"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from debond import (
    ConstraintViolated,
    ControlSignal,
    DeadEnd,
    InfeasibleTime,
    InitialState,
    SampledFunction,
    SolverConfig,
    TargetState,
    Toughness,
    solve_front,
    solve_initial_branch,
)
from debond.branch import BranchPolicy, solve_final_branch, static_branch
from debond.control import (
    synthesize_c01,
    synthesize_static_c01,
    synthesize_static_c1,
    verify_synthesis,
)

H = 1e-3


def _report(num, name, ok, detail):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def sampled(fn, lo, hi, n=400):
    xs = np.linspace(lo, hi, n + 1)
    return SampledFunction(xs, [fn(x) for x in xs])


def zero_initial(ell0=1.0, regularity="C01"):
    z = SampledFunction([0.0, ell0], [0.0, 0.0])
    return InitialState(ell0, z, z, regularity)


def zero_target(ellbar0, regularity="C01"):
    z = SampledFunction([0.0, ellbar0], [0.0, 0.0])
    return TargetState(ellbar0, z, z, regularity)


def velocity_initial(y1=2.0, ell0=1.0):
    return InitialState(
        ell0,
        SampledFunction([0.0, ell0], [0.0, 0.0]),
        SampledFunction([0.0, ell0], [y1, y1]),
    )


def stepwise_control(T, rng, bound=3.0, piece=0.25):
    n = max(int(round(T / piece)), 1)
    slopes = rng.uniform(-bound, bound, n)
    eps = 1e-9
    xs, vs = [0.0], [slopes[0]]
    for k in range(1, n):
        t = k * piece
        xs += [t, t + eps]
        vs += [slopes[k - 1], slopes[k]]
    xs.append(T)
    vs.append(slopes[-1])
    xs, vs = np.array(xs), np.array(vs)
    u = np.concatenate(([0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * np.diff(xs))))
    return ControlSignal(SampledFunction(xs, u), SampledFunction(xs, vs))


# ---------------------------------------------------------------------------
# 1. Static invariance
# ---------------------------------------------------------------------------

def test_criterion_1_static_invariance():
    initial = zero_initial()
    cfg = SolverConfig(h=H, T=3.0)
    kappa = Toughness(1.0)
    control = ControlSignal.zero(3.0)
    solve_front(initial, control, kappa, cfg)  # exclude interpreter warm-up
    t0 = time.perf_counter()
    sol = solve_front(initial, control, kappa, cfg)
    elapsed = time.perf_counter() - t0
    front_dev = float(np.max(np.abs(sol.front.positions - 1.0)))
    y, dty, dxy = sol.reconstruct(3.0, np.linspace(0.0, 1.0, 101))
    state_dev = float(np.max(np.abs(np.concatenate([y, dty, dxy]))))
    ok = front_dev <= 1e-12 and state_dev <= 1e-12 and elapsed < 0.1
    _report(1, "static invariance",
            ok, f"front dev {front_dev:.2e}, state dev {state_dev:.2e}, {elapsed:.3f} s")


# ---------------------------------------------------------------------------
# 2. Constant-speed oracle and h-refinement
# ---------------------------------------------------------------------------

def _constant_speed_error(h, scheme):
    sol = solve_front(
        velocity_initial(), ControlSignal.zero(6.0), Toughness(0.5),
        SolverConfig(h=h, T=6.0, scheme=scheme),
    )
    return abs(sol.front.ell(6.0) - 4.0)


def test_criterion_2_constant_speed_oracle():
    t0 = time.perf_counter()
    sol = solve_front(
        velocity_initial(), ControlSignal.zero(6.0), Toughness(0.5),
        SolverConfig(h=H, T=6.0, scheme="heun"),
    )
    elapsed = time.perf_counter() - t0
    t = sol.front.times
    exact = np.where(t <= 5.0, 1.0 + 0.6 * t, 4.0)
    path_err = float(np.max(np.abs(sol.front.positions - exact)))
    end_err = abs(sol.front.ell(6.0) - 4.0)

    # The error in this scenario is the localization of one kink, an O(h)
    # envelope whose constant depends on grid alignment; the scheme orders
    # show up on the smooth companion below.
    envelope_ok = True
    for scheme in ("euler", "heun"):
        for h in (1e-3, 5e-4, 2.5e-4):
            envelope_ok &= _constant_speed_error(h, scheme) <= 1.2 * 0.6 * h + 1e-9

    st = InitialState(
        1.0,
        SampledFunction([0.0, 1.0], [0.0, 0.0]),
        sampled(lambda x: 2.0 + 0.5 * math.sin(2.0 * x), 0.0, 1.0, 3000),
    )

    def terminal(h, scheme):
        sol = solve_front(st, ControlSignal.zero(1.5), Toughness(0.5),
                          SolverConfig(h=h, T=1.5, scheme=scheme))
        return sol.front.ell(1.5)

    ref = terminal(6.25e-5, "heun")
    orders_ok = True
    ratios = {}
    for scheme, lo, hi in (("euler", 1.5, 2.7), ("heun", 2.7, 5.8)):
        errs = [abs(terminal(h, scheme) - ref) for h in (1e-3, 5e-4, 2.5e-4)]
        rs = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
        ratios[scheme] = [round(r, 2) for r in rs]
        orders_ok &= all(lo <= r <= hi for r in rs)

    ok = end_err <= 5e-3 and path_err <= 5e-3 and envelope_ok and orders_ok and elapsed < 1.0
    _report(2, "constant-speed oracle",
            ok,
            f"|ell(6)-4| = {end_err:.2e}, path {path_err:.2e}, refinement ratios "
            f"{ratios}, {elapsed:.3f} s")


# ---------------------------------------------------------------------------
# 3. Initial branch
# ---------------------------------------------------------------------------

def test_criterion_3_initial_branch():
    res_m = solve_initial_branch(velocity_initial(), Toughness(0.5), SolverConfig(h=H, T=4.0))
    res_s = solve_initial_branch(zero_initial(), Toughness(1.0), SolverConfig(h=H, T=3.0))
    moving_err = abs(res_m.t_star - 2.5)
    static_err = abs(res_s.t_star - 1.0)
    ok = moving_err <= 5e-3 and res_m.ell_star == res_m.t_star and static_err <= 1e-12
    _report(3, "initial branch",
            ok, f"moving |t*-2.5| = {moving_err:.2e}, static |t*-1| = {static_err:.2e}")


# ---------------------------------------------------------------------------
# 4 + 5. Griffith residual suite and damping bound at the horizon
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(2024)
    T = 5.0
    cfg = SolverConfig(h=H, T=T)
    runs = []
    t0 = time.perf_counter()
    for _ in range(200):
        kappa = Toughness(float(rng.uniform(0.3, 3.0)))
        control = stepwise_control(T, rng)
        sol = solve_front(zero_initial(), control, kappa, cfg)
        runs.append((kappa, sol))
    return runs, time.perf_counter() - t0


def test_criterion_4_griffith_residual_suite(random_suite):
    runs, elapsed = random_suite
    worst = 0.0
    speeds_ok = True
    for _, sol in runs:
        worst = max(worst, float(np.max(sol.griffith_residuals())))
        speeds_ok &= bool(np.all(sol.front.speeds >= 0.0) and np.all(sol.front.speeds < 1.0))
        speeds_ok &= bool(np.all(np.diff(sol.front.positions) >= -1e-15))
    ok = worst <= 10 * H and speeds_ok and elapsed < 60.0
    _report(4, "Griffith residual suite",
            ok, f"200 runs, worst residual {worst:.2e} (tol {10 * H:.0e}), {elapsed:.1f} s")


def test_criterion_5_damping_bound(random_suite):
    runs, _ = random_suite
    T = 5.0
    worst = -np.inf
    for kappa, sol in runs[::1]:
        ell_T = sol.front.ell(T)
        xs = np.linspace(0.0, ell_T, 160)
        _, dty, dxy = sol.reconstruct(T, xs)
        w_sq = (dty + dxy) ** 2
        kap_along = np.array(
            [kappa(sol.front.ell(sol.front.tau_plus.invert(x + T))) for x in xs]
        )
        worst = max(worst, float(np.max(w_sq - 2.0 * kap_along)))
    ok = worst <= 20 * H
    _report(5, "damping bound at horizon",
            ok, f"worst |w|^2 - 2 kappa = {worst:.2e} (tol {20 * H:.0e})")


# ---------------------------------------------------------------------------
# 6. Final-branch oracle
# ---------------------------------------------------------------------------

def test_criterion_6_final_branch_oracle():
    T = 6.0
    w = math.sqrt(2.0 / 3.0)
    target = TargetState(
        2.0,
        SampledFunction([0.0, 2.0], [0.0, 0.0]),
        SampledFunction([0.0, 2.0], [w, w]),
    )
    res = solve_final_branch(target, Toughness(1.0), T, BranchPolicy("prefer_moving", h=H))
    speed_err = float(np.max(np.abs(res.front_segment.speeds - 0.5)))
    tstar_err = abs(res.t_bar_star - (T - 4.0 / 3.0))
    closure = abs(res.t_bar_star + res.front_segment.ell(res.t_bar_star) - T)
    ok = speed_err <= 10 * H and tstar_err <= 10 * H and closure <= 1e-12
    _report(6, "final-branch oracle",
            ok, f"speed dev {speed_err:.2e}, t_bar_star dev {tstar_err:.2e}, "
                f"closure {closure:.2e}")


# ---------------------------------------------------------------------------
# 7. Round-trip Lipschitz controllability
# ---------------------------------------------------------------------------

def _random_static_target(rng):
    ellbar0 = float(rng.uniform(1.0, 1.6))
    kap = float(rng.uniform(0.5, 2.0))
    n = 1024
    xs = np.linspace(0.0, ellbar0, n + 1)
    y0_vals = np.zeros(n + 1)
    for k in range(1, 4):
        y0_vals += rng.uniform(-0.3, 0.3) * np.sin(k * np.pi * (ellbar0 - xs) / ellbar0)
    y0 = SampledFunction(xs, y0_vals)
    from debond import derivative

    y0p = derivative(y0)
    beta = float(rng.uniform(0.0, 0.85)) * math.sqrt(2.0 * kap)
    wobble = beta * np.sin(rng.uniform(0.5, 3.0) * xs + rng.uniform(0.0, 6.28))
    y1 = SampledFunction(xs, -y0p(xs) + wobble)
    return TargetState(ellbar0, y0, y1), Toughness(kap)


def test_criterion_7_roundtrip_c01():
    initial = zero_initial()
    target = zero_target(2.0)
    kappa = Toughness(1.0)
    T = 6.0
    cfg = SolverConfig(h=H, T=T)
    t0 = time.perf_counter()
    rep = synthesize_c01(initial, target, kappa, T, static_branch(target, kappa, T), cfg)
    res = verify_synthesis(rep, initial, target, kappa, cfg)
    elapsed = time.perf_counter() - t0
    expansion_ok = res.front_error <= 1e-2 and res.displacement_error <= 1e-2

    rng = np.random.default_rng(7)
    worst_front = worst_disp = 0.0
    for _ in range(50):
        tgt, kap = _random_static_target(rng)
        T_i = 2.0 * tgt.ellbar0 + 1.0
        cfg_i = SolverConfig(h=H, T=T_i)
        rep_i = synthesize_static_c01(zero_initial(), tgt, kap, T_i, cfg_i)
        res_i = verify_synthesis(rep_i, zero_initial(), tgt, kap, cfg_i)
        worst_front = max(worst_front, res_i.front_error)
        worst_disp = max(worst_disp, res_i.displacement_error)
    random_ok = worst_front <= 1e-2 and worst_disp <= 1e-2
    ok = expansion_ok and random_ok and elapsed < 5.0
    _report(7, "round-trip C01 controllability",
            ok,
            f"expansion front {res.front_error:.2e} / disp {res.displacement_error:.2e} "
            f"({elapsed:.2f} s); 50 random targets worst front {worst_front:.2e} / "
            f"disp {worst_disp:.2e}")


def test_criterion_7_terminal_velocity():
    # The synthesized control's u' jumps and their echoes are tracked nodes of
    # the forward solve, so y_t(T, .) has no spike where they cancel.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        tgt, kap = _random_static_target(rng)
        T_i = 2.0 * tgt.ellbar0 + 1.0
        cfg_i = SolverConfig(h=H, T=T_i)
        rep_i = synthesize_static_c01(zero_initial(), tgt, kap, T_i, cfg_i)
        res_i = verify_synthesis(rep_i, zero_initial(), tgt, kap, cfg_i)
        worst = max(worst, res_i.velocity_error)
    _report(7, "round-trip C01 terminal velocity",
            worst <= 0.1, f"50 random targets worst velocity {worst:.2e} (tol 1e-1)")


# ---------------------------------------------------------------------------
# 8. Round-trip C1 controllability, case (d)
# ---------------------------------------------------------------------------

def test_criterion_8_roundtrip_c1_case_d():
    initial = zero_initial(regularity="C1")
    amp = 0.35
    ellbar0, T = 2.0, 6.0
    target = TargetState(
        ellbar0,
        sampled(lambda x: amp * math.sin(math.pi * x / ellbar0), 0.0, ellbar0, 1600),
        SampledFunction([0.0, ellbar0], [0.0, 0.0]),
        "C1",
    )
    kappa = Toughness(1.0)
    cfg = SolverConfig(h=H, T=T)
    rep = synthesize_static_c1(initial, target, kappa, T, cfg)
    res = verify_synthesis(rep, initial, target, kappa, cfg)
    jump_tol = 1e-6 + 10 * H
    u_jump = float(np.max(np.abs(np.diff(rep.control.uprime.vs))))
    l_jump = float(np.max(np.abs(np.diff(rep.front.speeds))))
    left, right, ref = rep.stage3_junction
    junction_err = max(abs(left - ref), abs(right - ref))
    ok = (
        rep.plan.case == "d"
        and res.front_error <= 1e-2
        and res.displacement_error <= 1e-2
        and u_jump <= jump_tol
        and l_jump <= jump_tol
        and junction_err <= 1e-8
    )
    _report(8, "round-trip C1 case (d)",
            ok,
            f"front {res.front_error:.2e}, disp {res.displacement_error:.2e}, "
            f"u' jump {u_jump:.2e}, ell' jump {l_jump:.2e}, junction {junction_err:.2e}")


# ---------------------------------------------------------------------------
# 9. Infeasibility detection
# ---------------------------------------------------------------------------

def test_criterion_9_infeasibility_detection():
    cfg6 = SolverConfig(h=H, T=6.0)
    kappa_half = Toughness(0.5)
    kappa_one = Toughness(1.0)

    # (a) final branch starts left of the initial branch end (2 < 2.5)
    try:
        synthesize_static_c01(velocity_initial(), zero_target(2.0), kappa_half, 6.0, cfg6)
        a_ok = False
    except InfeasibleTime:
        a_ok = True

    # (b) oversized outgoing data: both rejection paths
    big = TargetState(
        1.0,
        SampledFunction([0.0, 1.0], [2.0, 0.0]),
        SampledFunction([0.0, 1.0], [4.0, 4.0]),
    )
    try:
        solve_final_branch(big, kappa_one, 4.0, BranchPolicy("prefer_static", h=H))
        b_ok = False
    except DeadEnd:
        b_ok = True
    try:
        synthesize_static_c01(zero_initial(), big, kappa_one, 5.0, SolverConfig(h=H, T=5.0))
        b2_ok = False
    except ConstraintViolated as err:
        b2_ok = abs(err.excess - 2.0) <= 1e-9

    # (c) exact-boundary horizon T = 2 ellbar0
    try:
        synthesize_static_c01(zero_initial(), zero_target(2.0), kappa_one, 4.0,
                              SolverConfig(h=H, T=4.0))
        c_ok = False
    except InfeasibleTime:
        c_ok = True

    ok = a_ok and b_ok and b2_ok and c_ok
    _report(9, "infeasibility detection",
            ok, f"shrink={a_ok}, dead-end={b_ok}, constraint={b2_ok}, boundary-time={c_ok}")
