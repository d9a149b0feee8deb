import math
import re
import time
import warnings

import numpy as np
import pytest

from debond import (
    ControlSignal,
    DomainError,
    HorizonExceeded,
    SampledFunction,
    SolverConfig,
    SpeedOutOfRange,
    Toughness,
    constant,
    griffith_speed,
    solve_front,
    solve_initial_branch,
)
from debond import forward, func1d
from debond.control import uprime_from_fprime
from debond.func1d import scan


def make_state(ell0, y0_fn, y1_fn, regularity="C01", n=400):
    from debond import InitialState

    xs = np.linspace(0.0, ell0, n + 1)
    return InitialState(
        ell0,
        SampledFunction(xs, [y0_fn(x) for x in xs]),
        SampledFunction(xs, [y1_fn(x) for x in xs]),
        regularity,
    )


def zero_state(ell0=1.0, regularity="C01"):
    return make_state(ell0, lambda x: 0.0, lambda x: 0.0, regularity, n=4)


def linear_control(T, slope, u0=0.0):
    xs = np.array([0.0, T])
    return ControlSignal(
        SampledFunction(xs, [u0, u0 + slope * T]),
        SampledFunction(xs, [slope, slope]),
    )


def stepwise_control(T, rng, bound=3.0, piece=0.25):
    """Random control with piecewise-constant rate, integrated exactly."""
    n = max(int(round(T / piece)), 1)
    slopes = rng.uniform(-bound, bound, n)
    eps = 1e-9
    xs = [0.0]
    vs = [slopes[0]]
    for k in range(1, n):
        t = k * piece
        xs += [t, t + eps]
        vs += [slopes[k - 1], slopes[k]]
    xs.append(T)
    vs.append(slopes[-1])
    up = SampledFunction(np.array(xs), np.array(vs))
    u_vals = np.concatenate(
        ([0.0], np.cumsum(0.5 * (np.array(vs)[1:] + np.array(vs)[:-1]) * np.diff(xs)))
    )
    return ControlSignal(SampledFunction(np.array(xs), u_vals), up)


# -- seeds ---------------------------------------------------------------------

def seeded(st, control, h=1e-3):
    """The solution over the control's whole span: its trace up to ell0 is the data's."""
    return solve_front(st, control, Toughness(1.0), SolverConfig(h=h, T=control.t_end))


def test_seed_trace_flat_data_with_velocity():
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0)
    sol = seeded(st, ControlSignal.zero(1.0))
    assert sol.trace_slope(-0.5) == pytest.approx(1.0, abs=1e-12)
    assert sol.trace_slope(-1.0) == pytest.approx(1.0, abs=1e-12)
    assert sol.trace_slope(0.5) == pytest.approx(-1.0, abs=1e-12)
    assert sol.trace_value(0.0) == pytest.approx(0.0, abs=1e-15)
    assert sol.trace_value(-1.0) == pytest.approx(-1.0, abs=1e-9)


def test_seed_trace_rightward_cancellation():
    # y1 = y0' and u' = (y0' + y1)/2 kill the outgoing part entirely
    st = make_state(1.0, lambda x: x - 1.0, lambda x: 1.0)
    sol = seeded(st, linear_control(2.0, 1.0, u0=-1.0))
    for s in (-0.8, -0.2, 0.3, 0.9):
        assert sol.trace_slope(s) == pytest.approx(0.0, abs=1e-12)


def test_seed_trace_ramp_profile():
    st = make_state(1.0, lambda x: 1.0 - x, lambda x: 0.0)
    sol = seeded(st, linear_control(1.0, 0.0, u0=1.0))
    assert sol.trace_slope(-0.4) == pytest.approx(0.5, abs=1e-12)
    assert sol.trace_slope(0.6) == pytest.approx(0.5, abs=1e-12)


# -- forward march ---------------------------------------------------------------

def test_static_invariance_zero_data():
    st = zero_state()
    cfg = SolverConfig(h=1e-3, T=3.0)
    sol = solve_front(st, ControlSignal.zero(3.0), Toughness(1.0), cfg)
    assert np.max(np.abs(sol.front.positions - 1.0)) <= 1e-12
    y, dty, dxy = sol.reconstruct(1.7, np.linspace(0.0, 1.0, 33))
    assert np.max(np.abs(y)) <= 1e-12
    assert np.max(np.abs(dty)) <= 1e-12
    assert np.max(np.abs(dxy)) <= 1e-12


def test_constant_speed_oracle():
    # kappa = 0.5, y1 = 2: f' = +-1 along the march, speed 0.6 until the
    # backward foot crosses ell0; afterwards the reflected slope drops by the
    # factor (1-0.6)/(1+0.6) = 0.25 and the front freezes at 4.
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0)
    cfg = SolverConfig(h=1e-3, T=6.0)
    sol = solve_front(st, ControlSignal.zero(6.0), Toughness(0.5), cfg)
    t = sol.front.times
    exact = np.where(t <= 5.0, 1.0 + 0.6 * t, 4.0)
    assert abs(sol.front.ell(6.0) - 4.0) <= 5e-3
    assert np.max(np.abs(sol.front.positions - exact)) <= 5e-3
    assert abs(sol.front.ell(2.5) - 2.5) <= 2e-3


def test_reflection_recursion_static_front():
    # Stiff glue: front static, trace follows u' plus unit-delay echo.
    st = zero_state()
    cfg = SolverConfig(h=1e-3, T=3.0)
    sol = solve_front(st, linear_control(3.0, 1.0), Toughness(10.0), cfg)
    assert np.max(np.abs(sol.front.positions - 1.0)) <= 1e-12
    assert sol.trace_slope(1.5) == pytest.approx(1.0, abs=1e-6)
    assert sol.trace_slope(0.5) == pytest.approx(1.0, abs=1e-12)
    assert sol.trace_slope(2.5) == pytest.approx(2.0, abs=1e-6)


def test_control_shorter_than_horizon_rejected():
    st = zero_state()
    cfg = SolverConfig(h=1e-3, T=3.0)
    with pytest.raises(DomainError):
        solve_front(st, ControlSignal.zero(2.0), Toughness(1.0), cfg)


def test_control_starting_after_zero_rejected_naming_the_control():
    # The solve reads u from t = 0; a control from t = 0.5 is refused as such.
    xs = np.array([0.5, 6.0])
    ctrl = ControlSignal(SampledFunction(xs, [0.0, 0.0]), SampledFunction(xs, [0.0, 0.0]))
    with pytest.raises(DomainError, match=r"^control defined from 0.5 but the solve starts at 0$"):
        solve_front(zero_state(), ctrl, Toughness(1.0), SolverConfig(h=1e-2, T=6.0))


@pytest.mark.parametrize("up_xs", [[0.0, 1.0], [0.5, 4.0], [0.0, 4.5]])
def test_control_rate_must_share_the_interval_of_u(up_xs):
    # u = 2t on [0, 4]: a rate of 2 given only on [0, 1] would be held to t = 4 by the
    # solve, which gave ell(4) = 2.363636 under zero data and kappa = 3, and no error.
    u = SampledFunction([0.0, 4.0], [0.0, 8.0])
    with pytest.raises(ValueError, match=r"^control u on \[0, 4\] and u' on .* must share one "):
        ControlSignal(u, SampledFunction(up_xs, [2.0, 2.0]))


# -- initial branch ---------------------------------------------------------------

def test_initial_branch_static_exact():
    st = zero_state()
    res = solve_initial_branch(st, Toughness(1.0), SolverConfig(h=1e-3, T=3.0))
    assert abs(res.t_star - 1.0) <= 1e-12
    assert res.ell_star == res.t_star
    assert res.ell_star_prime == 0.0


def test_initial_branch_moving():
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0)
    res = solve_initial_branch(st, Toughness(0.5), SolverConfig(h=1e-3, T=4.0))
    assert res.t_star == pytest.approx(2.5, abs=5e-3)
    assert res.ell_star == res.t_star
    assert res.ell_star_prime == pytest.approx(0.6, abs=1e-6)


def test_initial_branch_threshold_is_static():
    # 2 (y1/2)^2 = 0.5 = kappa exactly: the max clamps to zero speed.
    st = make_state(1.0, lambda x: 0.0, lambda x: 1.0)
    res = solve_initial_branch(st, Toughness(0.5), SolverConfig(h=1e-3, T=3.0))
    assert abs(res.t_star - 1.0) <= 1e-9


def test_initial_branch_horizon_exceeded():
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0)
    with pytest.raises(HorizonExceeded):
        solve_initial_branch(st, Toughness(0.5), SolverConfig(h=1e-3, T=2.0))


# -- reconstruction ---------------------------------------------------------------

def test_reconstruct_zero_everywhere():
    st = zero_state()
    sol = solve_front(st, ControlSignal.zero(3.0), Toughness(1.0), SolverConfig(h=1e-3, T=3.0))
    y, dty, dxy = sol.reconstruct(2.0, [0.0, 0.3, 0.9, 1.0])
    assert np.max(np.abs(np.concatenate([y, dty, dxy]))) <= 1e-12


def test_reconstruct_interior_d_alembert_sine():
    # Pure interior point: value must match the classical two-wave average,
    # (y0(x+t) + y0(x-t))/2 for zero initial velocity.
    st = make_state(1.0, lambda x: math.sin(math.pi * x), lambda x: 0.0, n=4096)
    sol = solve_front(st, ControlSignal.zero(3.0), Toughness(50.0), SolverConfig(h=1e-3, T=3.0))
    y, _, _ = sol.reconstruct(0.25, [0.5])
    oracle = 0.5 * (math.sin(0.75 * math.pi) + math.sin(0.25 * math.pi))
    assert y[0] == pytest.approx(oracle, abs=1e-6)
    assert y[0] == pytest.approx(0.7071067811865476, abs=1e-6)


def test_reconstruct_outgoing_characteristic_value():
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0)
    sol = solve_front(st, ControlSignal.zero(6.0), Toughness(0.5), SolverConfig(h=1e-3, T=6.0))
    y, dty, dxy = sol.reconstruct(2.0, [1.0])
    assert 0.5 * (dty[0] - dxy[0]) == pytest.approx(-1.0, abs=1e-6)


def test_boundary_conditions_tracked():
    rng = np.random.default_rng(42)
    st = zero_state()
    ctrl = stepwise_control(4.0, rng)
    sol = solve_front(st, ctrl, Toughness(1.0), SolverConfig(h=1e-3, T=4.0))
    for t in np.linspace(0.2, 3.9, 12):
        ell_t = sol.front.ell(t)
        y, _, _ = sol.reconstruct(t, [0.0, ell_t])
        assert abs(y[0] - ctrl.u(t)) <= 2e-2
        assert abs(y[1]) <= 2e-2


def test_griffith_residual_random_suite_small():
    rng = np.random.default_rng(9)
    h = 1e-3
    for _ in range(5):
        kappa = Toughness(float(rng.uniform(0.3, 3.0)))
        ctrl = stepwise_control(5.0, rng)
        sol = solve_front(zero_state(), ctrl, kappa, SolverConfig(h=h, T=5.0))
        res = sol.griffith_residuals()
        assert np.max(res) <= 10 * h
        assert np.all(sol.front.speeds >= 0.0)
        assert np.all(sol.front.speeds < 1.0)
        assert np.all(np.diff(sol.front.positions) >= -1e-15)


def test_front_increments_match_midpoint_speeds():
    # Smooth speeds along the march: increments track the node-speed midpoints.
    # (Controls with rate jumps violate this at the isolated straddling steps.)
    h = 1e-3
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0 + 0.5 * math.sin(2.0 * x), n=3000)
    sol = solve_front(st, ControlSignal.zero(1.5), Toughness(0.5), SolverConfig(h=h, T=1.5))
    f = sol.front
    mid = 0.5 * (f.speeds[1:] + f.speeds[:-1])
    inc = np.diff(f.positions) / np.diff(f.times)
    assert np.max(np.abs(inc - mid)) <= 10 * h


def test_seed_trace_rejects_mismatched_endpoint():
    from debond import IncompatibleData

    st = make_state(1.0, lambda x: 1.0 - x, lambda x: 0.0)
    with pytest.raises(IncompatibleData):
        seeded(st, ControlSignal.zero(2.0))


def test_control_consistency_residual():
    # u(t) - u(0) equals the exact integral of u' at every node of u.
    rng = np.random.default_rng(21)
    ctrl = stepwise_control(4.0, rng)
    t = ctrl.u.xs
    gap = (ctrl.u.vs - ctrl.u.vs[0]) - (
        ctrl.uprime.antiderivative_at(t) - ctrl.uprime.antiderivative_at(t[0])
    )
    assert float(np.max(np.abs(gap))) <= 1e-12


def test_characteristic_identity_finite_differences():
    # Centered difference along the left-moving characteristic reproduces the
    # stored trace slope away from kink images.
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0)
    h = 1e-3
    sol = solve_front(st, ControlSignal.zero(6.0), Toughness(0.5), SolverConfig(h=h, T=6.0))
    rng = np.random.default_rng(4)
    d = 2 * h
    checked = 0
    while checked < 40:
        t = rng.uniform(0.5, 5.5)
        x = rng.uniform(0.05, 0.95) * sol.front.ell(t)
        s_back = t - x
        # skip points whose characteristic feet sit near trace kinks
        if min(abs(s_back), abs(s_back - 1.0), abs(s_back - 5.0)) < 0.05:
            continue
        if x < 2 * d or x > sol.front.ell(t) - 2 * d:
            continue
        ya, _, _ = sol.reconstruct(t + d, [x - d])
        yb, _, _ = sol.reconstruct(t - d, [x + d])
        fd = (ya[0] - yb[0]) / (4.0 * d)
        assert fd == pytest.approx(sol.trace_slope(s_back), abs=50 * h)
        checked += 1


def test_convergence_orders_on_smooth_scenario():
    # Smoothly varying seed keeps the march inside the data region with a
    # smooth speed everywhere, so euler halves and heun quarters the error.
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0 + 0.5 * math.sin(2.0 * x), n=3000)
    kappa = Toughness(0.5)
    u = ControlSignal.zero(1.5)

    def terminal(h, scheme):
        sol = solve_front(st, u, kappa, SolverConfig(h=h, T=1.5, scheme=scheme))
        return sol.front.ell(1.5)

    ref = terminal(6.25e-5, "heun")
    hs = [1e-3, 5e-4, 2.5e-4]
    for scheme, lo, hi in (("euler", 1.5, 2.7), ("heun", 2.7, 5.8)):
        errs = [abs(terminal(h, scheme) - ref) for h in hs]
        for e0, e1 in zip(errs, errs[1:]):
            assert e1 > 0.0
            assert lo <= e0 / e1 <= hi, (scheme, errs)


def test_damping_bound_at_horizon():
    rng = np.random.default_rng(17)
    h = 1e-3
    T = 5.0
    for _ in range(3):
        kappa = Toughness(float(rng.uniform(0.3, 3.0)))
        ctrl = stepwise_control(T, rng)
        sol = solve_front(zero_state(), ctrl, kappa, SolverConfig(h=h, T=T))
        ell_T = sol.front.ell(T)
        xs = np.linspace(0.0, ell_T, 200)
        _, dty, dxy = sol.reconstruct(T, xs)
        w_sq = (dty + dxy) ** 2
        kap_along = np.array(
            [kappa(sol.front.ell(sol.front.tau_plus.invert(x + T))) for x in xs]
        )
        assert np.max(w_sq - 2.0 * kap_along) <= 20 * h


# -- array queries ---------------------------------------------------------------

def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_array_queries_equal_pointwise_queries():
    # Sampled toughness, non-zero data and a stepwise control: every array
    # query must give the bits of the same query point by point, so a query
    # whose points all fall on one side of a branch gives what the mixed one does.
    T = 4.0
    xs = np.linspace(0.0, 8.0, 65)
    kappa = Toughness(SampledFunction(xs, 0.8 * (1.0 + 0.3 * np.sin(1.3 * xs + 0.2))))
    st = make_state(1.0, lambda x: 0.2 * x * (1.0 - x), lambda x: 0.5 * math.cos(3.0 * x))
    ctrl = stepwise_control(T, np.random.default_rng(5))
    sol = solve_front(st, ctrl, kappa, SolverConfig(h=1e-3, T=T))

    s = np.concatenate([np.linspace(-1.0, T, 157), sol.trace_function().xs[::37]])
    for query in (sol.trace_value, sol.trace_slope):
        assert isinstance(query(1.5), float)
        assert _same_bits(query(s), [query(q) for q in s])

    s_up = s[s >= 0.0]
    up = uprime_from_fprime(sol.trace_slope, sol.front, st, s_up)
    assert np.all(up == np.array([uprime_from_fprime(sol.trace_slope, sol.front, st, q)
                                  for q in s_up]))

    for t in (0.3, 2.2, T):
        xg = np.linspace(0.0, sol.front.ell(t), 41)
        if t < st.ell0:  # points in both data-cone branches and outside the cone
            assert np.any(xg < t) and np.any((xg >= t) & (xg + t < 1.0)) and np.any(xg + t > 1.0)
        whole = np.array(sol.reconstruct(t, xg))
        single = np.array([sol.reconstruct(t, [x]) for x in xg])[:, :, 0].T
        assert _same_bits(whole, single)


def test_deep_reflection_chain_beyond_recursion_limit():
    # With ell0 = 0.004 a trace point near T = 9 lies over 1000 reflections
    # deep, past CPython's default recursion limit.
    T = 9.0
    sol = solve_front(
        zero_state(ell0=0.004), ControlSignal.zero(T), Toughness(1.0), SolverConfig(h=4e-4, T=T)
    )
    y, dty, dxy = sol.reconstruct(T, np.linspace(0.0, sol.front.ell(T), 65))
    assert np.all(y == 0.0) and np.all(dty == 0.0) and np.all(dxy == 0.0)
    f = sol.trace_value(sol.trace_function().xs)
    assert np.all(np.isfinite(f)) and np.all(f == 0.0)
    # A small control keeps the front nearly still and gives every level of the
    # chain a non-zero u term; compare with the sum in the nested order
    # u1 + (u2 + (... + f(end))), one level per reflection.
    a, ts = 0.002, np.linspace(0.0, T, 9001)
    control = ControlSignal(SampledFunction(ts, a * np.sin(2.0 * ts)),
                            SampledFunction(ts, 2.0 * a * np.cos(2.0 * ts)))
    sol = solve_front(zero_state(ell0=0.004), control, Toughness(1.0), SolverConfig(h=4e-4, T=T))
    s = sol.trace_function().xs
    q, levels = s.copy(), []
    while np.any(q > 0.004):
        deep = np.flatnonzero(q > 0.004)
        levels.append((deep, control.u(q[deep])))
        q[deep] = sol.front.echo(q[deep])
    want = np.where(q > 0.0, control.u(np.maximum(q, 0.0)) - control.u(0.0), 0.0)
    for deep, u in reversed(levels):
        want[deep] = u + want[deep]
    assert len(levels) > 1000 and np.max(np.abs(want)) > 100 * a
    np.testing.assert_allclose(sol.trace_value(s), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "h, T", [(math.nan, 3.0), (math.inf, 3.0), (-1e-3, 3.0), (1e-3, math.nan), (1e-3, math.inf)]
)
def test_solver_config_rejects_non_finite_or_non_positive(h, T):
    with pytest.raises(ValueError, match="positive and finite"):
        SolverConfig(h=h, T=T)


# -- core in s = t - ell with tracked jumps ---------------------------------------

def _stepwise_draws():
    rng = np.random.default_rng(11)
    return [stepwise_control(5.0, rng) for _ in range(4)]


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_piecewise_constant_rate_is_solved_exactly(scheme):
    # Zero data, constant kappa and a piecewise-constant u': g is piecewise
    # constant between tracked jump pairs, so both rules integrate it exactly
    # and ell(4) does not depend on h.
    for ctrl in _stepwise_draws():
        ells = [
            solve_front(zero_state(), ctrl, Toughness(1.0),
                        SolverConfig(h=h, T=5.0, scheme=scheme)).front.ell(4.0)
            for h in (2e-3, 1e-3, 5e-4)
        ]
        assert max(ells) - min(ells) <= 1e-10, ells


def test_griffith_residuals_vanish_at_jump_pairs():
    # The foot t - ell of every front node reads back the slope it was
    # solved with, also at the nodes of a jump pair 1e-9 wide.
    for ctrl in _stepwise_draws():
        sol = solve_front(zero_state(), ctrl, Toughness(1.0), SolverConfig(h=1e-3, T=5.0))
        assert np.max(sol.griffith_residuals()) <= 1e-12


def test_node_budget_without_jumps():
    # Nothing jumps under zero data and zero control: the nodes are the grid.
    ell0, T, h = 0.004, 12.0, 4e-4
    sol = solve_front(
        zero_state(ell0=ell0), ControlSignal.zero(T), Toughness(1.0), SolverConfig(h=h, T=T)
    )
    assert sol.front.times.size <= 1.1 * (T + ell0) / h
    assert np.all(sol.trace_value(np.linspace(-ell0, T, 41)) == 0.0)


def test_step_longer_than_a_tenth_of_ell0():
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0)
    sol = solve_front(st, ControlSignal.zero(6.0), Toughness(0.5), SolverConfig(h=0.3, T=6.0))
    f = sol.front
    assert f.t_end == 6.0
    assert np.all(np.isfinite(f.positions)) and np.all(np.isfinite(f.speeds))
    assert abs(f.ell(6.0) - 4.0) <= 1e-9


def test_solver_config_refuses_an_unknown_scheme():
    with pytest.raises(ValueError, match=r"scheme must be one of \('euler', 'heun'\)"):
        SolverConfig(h=1e-3, T=1.0, scheme="rk4")


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("sampled", [False, True], ids=["constant", "sampled"])
@pytest.mark.parametrize("y1, t, slope", [(0.0, 1, 1), (1.0, 0, 0.5)],
                         ids=["control-block", "first-block"])
def test_an_overflowing_griffith_rate_is_refused_as_a_speed_that_rounds_to_1(scheme, sampled,
                                                                            y1, t, slope):
    # kappa = 1e-310: f'^2 / kappa overflows from the first moving slope, on the data's first
    # block (slope y1 / 2 from t = 0) or the control's (slope 1 from t = 1).  It gave NaN,
    # RuntimeWarnings and a FloatingPointError or a DomainError at NaN.
    kappa = Toughness(SampledFunction([0.0, 8.0], [1e-310, 1e-310]) if sampled else 1e-310)
    st = make_state(1.0, lambda x: 0.0, lambda x: y1)
    cfg = SolverConfig(h=1e-3, T=3.0, scheme=scheme)
    message = f"front speed rounds to 1 at t = {t}: trace slope {slope}, toughness 1e-310"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpeedOutOfRange) as err:
            solve_front(st, linear_control(3.0, 1.0), kappa, cfg)
        assert str(err.value) == message
        if y1:
            with pytest.raises(SpeedOutOfRange, match=re.escape(message)):
                solve_initial_branch(st, kappa, cfg)


# -- sampled toughness: the scan against the node-by-node march ----------------------

def _reference_march(core, q, fp, s0, ell, g):
    """The node-by-node loop over the new nodes that the core's scan reproduces."""
    kappa, heun = core.kappa, core.cfg.scheme == "heun"  # a DomainError names it
    ells, gs = [], []
    steps = zip(np.diff(q, prepend=s0).tolist(), (fp * fp).tolist(), (core.cfg.T - q).tolist())
    for d, f2, top in steps:
        ell_next = ell + d * g
        if heun:
            g_pred = max(f2 / kappa(min(ell_next, top)) - 0.5, 0.0)
            ell_next = ell + 0.5 * d * (g + g_pred)
        ell = ell_next
        g = max(f2 / kappa(min(ell, top)) - 0.5, 0.0)
        ells.append(ell)
        gs.append(g)
    return np.array(ells), np.array(gs)


def _solve_with_both(monkeypatch, *args):
    """solve_front by the scan, then by the reference loop."""
    sol = solve_front(*args)
    with monkeypatch.context() as patch:
        patch.setattr(forward._Core, "_march", _reference_march)
        return sol, solve_front(*args)


def _assert_same_core(sol, ref):
    for name in forward._FIELDS:
        assert np.array_equal(getattr(sol._core, name), getattr(ref._core, name)), name
    assert np.array_equal(sol.front.positions, ref.front.positions)
    assert np.array_equal(sol.front.speeds, ref.front.speeds)


def _sampled_kappa(fn, x_max=8.0, n=64):
    xk = np.linspace(0.0, x_max, n + 1)
    return Toughness(SampledFunction(xk, fn(xk)))


def _counting_scan(passes):
    """``scan`` that records each pass's window in ``passes``."""
    def counting_scan(step, start, m):
        def counted(lo, hi, *prev):
            passes.append((lo, hi))
            return step(lo, hi, *prev)
        return scan(counted, start, m)
    return counting_scan


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_sampled_kappa_scan_matches_the_node_by_node_march(monkeypatch, scheme):
    kappa = _sampled_kappa(lambda x: 1.0 + 0.1 * np.sin(1.3 * x + 0.4))
    st = make_state(1.0, lambda x: 0.0, lambda x: 1.5)
    for ctrl in _stepwise_draws()[:2]:
        sol, ref = _solve_with_both(monkeypatch, st, ctrl, kappa,
                                    SolverConfig(h=1e-3, T=5.0, scheme=scheme))
        _assert_same_core(sol, ref)


def test_stiff_kappa_scan_takes_many_passes_and_still_matches(monkeypatch):
    # kappa swings by a factor of 11 every 0.02 in ell: each pass of the scan
    # commits only a short run of nodes, yet it ends on the loop's output.
    kappa = _sampled_kappa(lambda x: 0.3 + 0.25 * np.sin(300.0 * x), n=8000)
    passes = []
    monkeypatch.setattr(func1d, "scan", _counting_scan(passes))
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0)
    sol, ref = _solve_with_both(monkeypatch, st, ControlSignal.zero(3.0), kappa,
                                SolverConfig(h=2e-3, T=3.0))
    _assert_same_core(sol, ref)
    assert len(passes) > 200 and sol.front.ell(3.0) > 3.0


def test_front_past_sampled_kappa_domain_raises_like_the_node_by_node_march(monkeypatch):
    # kappa is sampled on [0, 1.5]; the front, at speed 0.6 and slowing, leaves it.  The
    # predictor and the corrector read kappa at different points: the first one wins.
    kappa = _sampled_kappa(lambda x: 0.5 + 0.2 * x, x_max=1.5, n=3)
    args = (make_state(1.0, lambda x: 0.0, lambda x: 2.0), ControlSignal.zero(2.0), kappa)
    for scheme in ("euler", "heun"):
        cfg = SolverConfig(h=1e-3, T=2.0, scheme=scheme)
        with pytest.raises(DomainError) as new:
            solve_front(*args, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(forward._Core, "_march", _reference_march)
            with pytest.raises(DomainError) as ref:
                solve_front(*args, cfg)
        assert "outside domain [0, 1.5]" in str(new.value)
        assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_sampled_kappa_solve_does_not_depend_on_the_scan_window(monkeypatch, scheme):
    # From node by node up to wider than any block, every window commits the same nodes.
    kappa = _sampled_kappa(lambda x: 1.0 + 0.1 * np.sin(1.3 * x + 0.4))
    st = make_state(1.0, lambda x: 0.0, lambda x: 1.5)
    cfg = SolverConfig(h=2e-3, T=4.0, scheme=scheme)
    sols = []
    for window in (1, 7, 64, 512, 1024, 4096):
        monkeypatch.setattr(func1d, "_SCAN_WINDOW", window)
        sols.append(solve_front(st, _stepwise_draws()[0], kappa, cfg))
    for sol in sols[1:]:
        _assert_same_core(sol, sols[0])
        assert np.array_equal(sol.front.times, sols[0].front.times)


def test_dense_stiff_kappa_solve_reads_its_table_in_place():
    # kappa = 0.3 + 0.25 sin(300 ell) on 160 001 samples: np.interp copies a read-only
    # table on every call, which took this solve about 2 s; read in place it takes 0.1 s.
    t = np.linspace(0.0, 6.0, 6001)
    control = ControlSignal(SampledFunction(t, 0.5 * np.sin(2.0 * t)),
                            SampledFunction(t, np.cos(2.0 * t)))
    xk = np.linspace(0.0, 8.0, 160_001)
    kappa = Toughness(SampledFunction(xk, 0.3 + 0.25 * np.sin(300.0 * xk)))
    args = (make_state(1.0, lambda x: 0.0, lambda x: 0.0), control, kappa,
            SolverConfig(h=1e-3, T=6.0))
    times = []
    for _ in range(2):
        start = time.perf_counter()
        sol = solve_front(*args)
        times.append(time.perf_counter() - start)
    assert min(times) < 1.0
    assert abs(sol.front.ell(6.0) - 3.751305) < 1e-6


# -- the node store: each block computed in its slices ----------------------------

def _block_in_temporaries(core, q, fp, tracked, reflected, s0, l0, g0):
    """One block's fields as they were built in temporaries and concatenated."""
    kappa, T, seed = core.kappa, core.cfg.T, core.initial.seed_trace
    if kappa.is_constant:
        g = np.maximum(fp * fp / kappa.kappa - 0.5, 0.0)
        x, g_all = np.concatenate(([s0], q)), np.concatenate(([g0], g))
        if core.cfg.scheme == "heun":
            ell = l0 + func1d.cumulative_trapezoid(x, g_all)[1:]
        else:
            ell = l0 + np.cumsum((x[1:] - x[:-1]) * g_all[:-1])
        kap = np.full(q.shape, kappa.kappa)
    else:
        ell, g = core._march(q, fp, s0, l0, g0)
        kap = kappa(np.minimum(ell, T - q))
    t = q + ell
    s = np.where(t < T, t - ell, q)
    if not reflected:
        up = np.interp(s, core.up_xs, core.up_vs)
        fp = np.where(s <= 0.0, np.interp(s, seed.minus_xs, seed.minus_vs),
                      up - np.interp(s, seed.plus_xs, seed.plus_vs))
    v = griffith_speed(fp, kap)
    return {"s": s, "t": t, "ell": ell, "g": g, "v": v, "fp": fp,
            "tracked": np.broadcast_to(tracked, q.shape)}


def _solve_checking_blocks(monkeypatch, *args):
    """solve_front, comparing each block's store slices with ``_block_in_temporaries``."""
    add, blocks = forward._Core._add, []

    def checked_add(core, q, fp, tracked, reflected):
        n = core.n
        prev = ((core.s[n - 1], core.ell[n - 1], core.g[n - 1]) if n
                else (q[0], core.initial.ell0, 0.0))
        want = _block_in_temporaries(core, q, fp, tracked, reflected, *prev)
        add(core, q, fp, tracked, reflected)
        for name, values in want.items():
            got = getattr(core, name)[n : core.n]
            assert got.dtype == values.dtype and got.shape == values.shape, name
            view = np.uint8 if got.dtype == bool else np.uint64
            assert np.array_equal(got.view(view), values.view(view)), (name, len(blocks))
        blocks.append(reflected)

    with monkeypatch.context() as patch:
        patch.setattr(forward._Core, "_add", checked_add)
        solve_front(*args)
    return blocks


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_store_blocks_equal_the_concatenated_formulas(monkeypatch, scheme):
    # Forward-suite-like: zero data, stepwise u', a random constant kappa; then velocity data.
    rng = np.random.default_rng(21)
    cases = [(zero_state(), ctrl, Toughness(float(rng.uniform(0.3, 3.0))))
             for ctrl in _stepwise_draws()]
    cases.append((make_state(1.0, lambda x: 0.0, lambda x: 1.5), _stepwise_draws()[0],
                  Toughness(0.7)))
    for st, ctrl, kappa in cases:
        blocks = _solve_checking_blocks(monkeypatch, st, ctrl, kappa,
                                        SolverConfig(h=1e-3, T=5.0, scheme=scheme))
        assert blocks[:2] == [False] * 2 and sum(blocks) >= 1


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_store_blocks_equal_the_march_under_sampled_kappa(monkeypatch, scheme):
    kappa = _sampled_kappa(lambda x: 1.0 + 0.1 * np.sin(1.3 * x + 0.4))
    st = make_state(1.0, lambda x: 0.0, lambda x: 1.5)
    blocks = _solve_checking_blocks(monkeypatch, st, _stepwise_draws()[1], kappa,
                                    SolverConfig(h=1e-3, T=5.0, scheme=scheme))
    assert blocks[:2] == [False] * 2 and sum(blocks) >= 1


@pytest.mark.parametrize("h, T, ell0", [(1e-3, 5.0, 1.9), (0.01, 3.3, 0.7), (0.3, 2.0, 1.3)])
def test_block_grids_equal_linspace_bit_for_bit(monkeypatch, h, T, ell0):
    # Zero data and control: no jumps, so each block's nodes are its grid alone.  At
    # ell0 = 1.9 and 0.7, m (b - a) / m + a misses b by an ulp: the grid ends at b.
    block, add, grids = forward._Core._block, forward._Core._add, []

    def recording_block(core, a, b, jumps, reflect):
        grids.append([a, b, core.n == 0])
        block(core, a, b, jumps, reflect)

    def recording_add(core, q, *rest):
        grids[-1].append(q.copy())
        add(core, q, *rest)

    monkeypatch.setattr(forward._Core, "_block", recording_block)
    monkeypatch.setattr(forward._Core, "_add", recording_add)
    solve_front(zero_state(ell0), ControlSignal.zero(T), Toughness(1.0), SolverConfig(h=h, T=T))
    assert len(grids) >= 3 and grids[0][2] and not any(g[2] for g in grids[1:])
    for a, b, first, q in grids:
        m = max(math.ceil((b - a) / h - 1e-9), 1)
        assert _same_bits(q, np.linspace(a, b, m + 1)[0 if first else 1:])


def _sorted_block_grid(core, a, b, jumps):
    """A block's nodes and tracked mask as they were built by sorting: the grid and the
    jumps concatenated, a stable argsort, then the keep mask and ``reduceat`` of the merge.
    Also the number of nodes merged into a neighbour of a different value."""
    m = max(math.ceil((b - a) / core.cfg.h - 1e-9), 1)
    head = 1 if core.n else 0
    q = np.arange(head, m + 1.0) * ((b - a) / m) + a
    q[-1] = b
    tracked, near = False, 0
    lo, hi = core.up_jumps.searchsorted((a, b), side="right")
    if jumps.size or hi > lo:
        jumps = np.concatenate((jumps, core.up_jumps[lo:hi]))
        q = np.concatenate((jumps, q))
        order = q.argsort(kind="stable")
        q, tracked = q[order], order < jumps.size
        before = np.concatenate(([a if head else -math.inf], q[:-1]))
        keep = q - before > 0.5 * core.eps
        near = np.count_nonzero(~keep & (q != before))
        if not keep.all():
            first = np.flatnonzero(keep)
            q, tracked = q[first], np.logical_or.reduceat(tracked, first)
    return q, np.broadcast_to(tracked, q.shape), near


def _assert_same_grid(got, want):
    (q, tracked), (q_ref, tracked_ref) = got, want[:2]
    assert _same_bits(q, q_ref)
    assert np.array_equal(np.broadcast_to(tracked, q.shape), tracked_ref)


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_block_grids_equal_the_sorted_construction_on_stepwise_solves(monkeypatch, scheme):
    # Forward-suite-like solves: u' jumps on grid nodes, 1e-9 pairs, their images (some
    # repeated, some within eps / 2 of a grid node or of each other), and velocity data.
    block, add, wants, gots = forward._Core._block, forward._Core._add, [], []

    def recording_block(core, a, b, jumps, reflect):
        wants.append(_sorted_block_grid(core, a, b, jumps))
        block(core, a, b, jumps, reflect)

    def recording_add(core, q, fp, tracked, reflected):
        gots.append((q.copy(), np.broadcast_to(tracked, q.shape).copy()))
        add(core, q, fp, tracked, reflected)

    monkeypatch.setattr(forward._Core, "_block", recording_block)
    monkeypatch.setattr(forward._Core, "_add", recording_add)
    rng = np.random.default_rng(22)  # its eight controls merge 13-14 unequal nodes
    for ctrl in [stepwise_control(5.0, rng) for _ in range(8)]:
        solve_front(zero_state(), ctrl, Toughness(float(rng.uniform(0.3, 3.0))),
                    SolverConfig(h=1e-3, T=5.0, scheme=scheme))
    solve_front(make_state(1.0, lambda x: 0.0, lambda x: 1.5), ctrl, Toughness(0.7),
                SolverConfig(h=1e-3, T=5.0, scheme=scheme))
    assert len(gots) == len(wants) > 20
    for got, want in zip(gots, wants):
        _assert_same_grid(got, want)
    merged = [w for w, g in zip(wants, gots) if w[1].any()]
    assert len(merged) > 10 and sum(w[2] for w in wants) > 0  # some merges of unequal nodes


def _block_grid(monkeypatch, a, b, jumps, stored, up_jumps=()):
    """``_block``'s nodes and tracked mask on (a, b] with ``stored`` nodes in the store (the
    store itself is left as it is), beside the sorted construction's, on a zero solve with
    T = 5, ell0 = 1 and h = 1e-3 (eps = 1.2e-11)."""
    core = solve_front(zero_state(), ControlSignal.zero(5.0), Toughness(1.0),
                       SolverConfig(h=1e-3, T=5.0))._core
    core.n, core.up_jumps, got = stored, np.array(up_jumps, dtype=float), []
    jumps = np.array(jumps, dtype=float)
    want = _sorted_block_grid(core, a, b, jumps)
    monkeypatch.setattr(forward._Core, "_add", lambda core, q, fp, tracked, reflected:
                        got.append((q, tracked)))
    core._block(a, b, jumps, reflect=False)
    return got[0], want


G = 700 * (2.0 / 2000) + 1.0  # a grid node of the block (1, 3] at h = 1e-3
X = 1.2345678901  # between grid nodes


@pytest.mark.parametrize("a, b, jumps, stored, up_jumps", [
    (1.0, 3.0, [G, X, G, X], 9, ()),  # at a grid node, and repeated
    (1.0, 3.0, [G + 3e-12], 9, ()),  # within eps / 2 after a grid node
    (1.0, 3.0, [G - 3e-12], 9, ()),  # within eps / 2 before a grid node
    (1.0, 3.0, [X + 3e-12, X], 9, ()),  # within eps / 2 after another jump
    (1.0, 3.0, [G + 4e-12, G + 8e-12, X], 9, ()),  # a chain merging into a grid node
    (1.0, 3.0, [3.0], 9, ()),  # at b
    (1.0, 3.0, [], 9, (0.5, 3.0, 4.0)),  # a u' jump at b
    (1.0, 3.0, [1.0 + 1e-5, 3.0 + 1e-3], 9, ()),  # before the first grid node; past b
    (1.0, 3.0, [1.0 + 3e-12, X], 9, ()),  # within eps / 2 after the start node a
    (1.0, 3.0, [1.0, X], 9, ()),  # at the start node a
    (-1.0, 0.0, [-1.0], 0, ()),  # a first block whose start node is a jump
    (-1.0, 0.0, [-1.0 + 3e-12, -0.5], 0, ()),  # ... and one within eps / 2 of it
    (-1.0, 0.0, [-0.0], 0, ()),  # at the grid node 0.0: the jump's sign of zero
    (-1.0, 0.0, [], 0, (-0.0, 1e-9)),  # ... as a u' jump
    (2.0, 2.0 + 4e-12, [2.0 + 2e-12], 9, ()),  # a one-node block shorter than eps / 2
    (2.0, 2.0 + 1e-11, [2.0 + 8e-12], 9, ()),  # a one-node block shorter than eps
])
def test_block_grids_equal_the_sorted_construction(monkeypatch, a, b, jumps, stored, up_jumps):
    got, want = _block_grid(monkeypatch, a, b, jumps, stored, up_jumps)
    _assert_same_grid(got, want)


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_store_blocks_equal_the_formulas_on_curved_data(monkeypatch, scheme):
    # Curved data: the seed formula differs between a grid node and its stored s = t - ell.
    st = make_state(1.0, lambda x: 0.3 * math.sin(math.pi * x), lambda x: 0.8 * math.cos(x))
    for kappa in (Toughness(0.4), _sampled_kappa(lambda x: 0.4 + 0.1 * np.sin(1.3 * x))):
        blocks = _solve_checking_blocks(monkeypatch, st, _stepwise_draws()[3], kappa,
                                        SolverConfig(h=1e-3, T=5.0, scheme=scheme))
        assert blocks[:2] == [False] * 2 and sum(blocks) >= 1


def _poisoned(empty, calls):
    """``np.empty`` whose float slots are NaN and bool slots True, counting its calls."""
    def poisoned_empty(shape, dtype=float, *args, **kwargs):
        out = empty(shape, dtype, *args, **kwargs)
        if out.dtype == bool:
            out.fill(True)
        elif out.dtype.kind == "f":
            out.fill(np.nan)
        calls.append(out.size)
        return out
    return poisoned_empty


@pytest.mark.parametrize("kappa, scheme", [
    (Toughness(0.8), "heun"), (Toughness(0.8), "euler"),
    (_sampled_kappa(lambda x: 1.0 + 0.1 * np.sin(1.3 * x + 0.4)), "heun"),
], ids=["constant-heun", "constant-euler", "sampled-heun"])
def test_no_slot_is_read_before_it_is_written(monkeypatch, kappa, scheme):
    st = make_state(1.0, lambda x: 0.0, lambda x: 1.5)
    args = (st, _stepwise_draws()[2], kappa, SolverConfig(h=1e-3, T=5.0, scheme=scheme))

    def run():
        sol = solve_front(*args)
        x = np.linspace(0.0, sol.front.positions[-1], 160)
        return sol, [sol.griffith_residuals(), *sol.reconstruct(5.0, x),
                     sol.front.times, sol.front.positions, sol.front.speeds]

    clean, clean_results = run()
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", _poisoned(np.empty, calls))
        poisoned, poisoned_results = run()
    assert len(calls) > 7  # the store's seven fields and more
    for name in forward._FIELDS:
        got, want = getattr(poisoned._core, name), getattr(clean._core, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert want.dtype == bool or _same_bits(got, want), name
    for got, want in zip(poisoned_results, clean_results):
        assert _same_bits(got, want)


@pytest.mark.parametrize("t", [-1e-6, 3.0 + 1e-6])
def test_reconstruct_outside_the_horizon_raises(t):
    sol = solve_front(zero_state(), ControlSignal.zero(3.0), Toughness(1.0),
                      SolverConfig(h=1e-2, T=3.0))
    with pytest.raises(DomainError, match=r"^time \S+ outside \[0, 3\]$"):
        sol.reconstruct(t, [0.0])


def _stepwise_solve():
    """Zero data, a stepwise u' and a constant kappa up to T = 5: trace queries on [-1, 5]."""
    return solve_front(zero_state(), _stepwise_draws()[0], Toughness(1.3),
                       SolverConfig(h=1e-3, T=5.0))


@pytest.mark.parametrize("query", ["trace_slope", "trace_value"])
@pytest.mark.parametrize("s, named", [
    (7.0, 7.0), (100.0, 100.0), (-3.0, -3.0), (math.nan, math.nan), (math.inf, math.inf),
    (5.0 + 1e-8, 5.0 + 1e-8), (-1.0 - 1e-8, -1.0 - 1e-8),  # past the slack, 6e-9
    (np.array([0.5, 6.0, -2.0]), 6.0), (np.array([[0.5], [math.nan]]), math.nan),
])
def test_trace_queries_refuse_points_outside_the_trace(query, s, named):
    # Once past T a slope read the last stored slope, below -ell0 the first seed slope, and
    # NaN gave NaN; trace_value(-3) named the negated point, outside the data's [0, 1].
    with pytest.raises(DomainError) as err:
        getattr(_stepwise_solve(), query)(s)
    assert str(err.value) == f"trace query at {named:.17g} outside [-1, 5]"


@pytest.mark.parametrize("query", ["trace_slope", "trace_value"])
def test_trace_queries_take_points_within_the_slack_at_the_ends(query):
    sol = _stepwise_solve()
    read = getattr(sol, query)
    assert _same_bits(read(-1.0 - 5e-9), read(-1.0))
    assert _same_bits(read(np.array([-1.0 - 5e-9, 2.0])), [read(-1.0), read(2.0)])
    assert math.isfinite(read(5.0 + 5e-9))
    if query == "trace_slope":  # the last stored slope
        assert _same_bits(read(5.0 + 5e-9), read(5.0))


@pytest.mark.parametrize("t, x", [(5.0, [math.nan]), (5.0, [0.5, math.nan]),
                                  (5.0, [math.nan, 0.5]), (0.2, [math.nan])])
def test_reconstruct_refuses_a_nan_point(t, x):
    with pytest.raises(DomainError):
        _stepwise_solve().reconstruct(t, x)


@pytest.mark.parametrize("x, named", [([math.nan], math.nan), ([-1.0], -1.0), ([10.0], 10.0),
                                      ([0.5, -1.0, math.nan], -1.0)])
def test_reconstruct_names_the_first_point_outside_and_the_interval(x, named):
    sol = _stepwise_solve()
    with pytest.raises(DomainError) as err:
        sol.reconstruct(5.0, x)
    assert str(err.value) == (f"reconstruction point {named:.17g} outside [0, ell(5)] = "
                              f"[0, {sol.front.ell(5.0):.17g}]")


def test_reconstruct_on_an_empty_grid_gives_empty_arrays():
    sol = solve_front(zero_state(), ControlSignal.zero(3.0), Toughness(1.0),
                      SolverConfig(h=1e-2, T=3.0))
    for t in (3.0, 0.2):  # outside the data cone, and inside it
        for out in sol.reconstruct(t, []):
            assert type(out) is np.ndarray and out.shape == (0,) and out.dtype == np.float64
    for bad in ([0.5, -1e-9], [sol.front.ell(3.0) * (1.0 + 1e-9)]):
        with pytest.raises(DomainError, match=r"outside \[0, ell\(3\)\] = \[0, "):
            sol.reconstruct(3.0, bad)


# -- sampled toughness: blocks at rest in closed form --------------------------------

@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_blocks_at_rest_run_no_scan_pass_and_match_the_loop(monkeypatch, scheme):
    # Zero data and zero control: every block rests, so no pass runs, and the
    # store equals the node-by-node loop's bit for bit.
    kappa = _sampled_kappa(lambda x: 1.0 + 0.1 * np.sin(1.3 * x + 0.4))
    passes = []
    monkeypatch.setattr(func1d, "scan", _counting_scan(passes))
    sol, ref = _solve_with_both(monkeypatch, zero_state(), ControlSignal.zero(4.0), kappa,
                                SolverConfig(h=1e-3, T=4.0, scheme=scheme))
    assert passes == []
    for name in forward._FIELDS:
        assert _same_bits(getattr(sol._core, name), getattr(ref._core, name)), name
    assert np.all(sol._core.g == 0.0) and np.all(sol.front.positions == 1.0)


# kappa's least sample is 2 (c / 2)^2 and np.interp reads it 1e-15 lower at
# x = DIP, a few ulps left of the node, so a slope of exactly c / 2 moves the front.
C, DIP = 0.8797475571522848, 1.87468479039511
DIP_KAPPA_NODES = ([0.0, 0.5201738573778419, 1.8746847903951103, 8.0], 5.212258094087653)


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("above", [0, 1], ids=["half-kappa-min", "one-ulp-above"])
def test_slope_at_the_threshold_matches_the_loop_bit_for_bit(monkeypatch, scheme, above):
    half_sq = (0.5 * C) * (0.5 * C)  # f'^2 on the data block [-ell0, 0]
    k_min = 2.0 * (np.nextafter(half_sq, 0.0) if above else half_sq)
    xk, top = DIP_KAPPA_NODES
    kappa = Toughness(SampledFunction(xk, [top, top, k_min, k_min]))
    st = make_state(DIP, lambda x: 0.0, lambda x: C, n=4)
    sol, ref = _solve_with_both(monkeypatch, st, ControlSignal.zero(4.0), kappa,
                                SolverConfig(h=1e-2, T=4.0, scheme=scheme))
    for name in forward._FIELDS:
        assert _same_bits(getattr(sol._core, name), getattr(ref._core, name)), name
    first = sol._core.s <= 0.0
    assert np.all(sol._core.fp[first] * sol._core.fp[first] == half_sq)
    if not above:  # kappa read below its least sample: the front is not at rest
        assert np.interp(DIP, xk, [top, top, k_min, k_min]) < k_min
        assert np.all(sol._core.g[first][1:] > 0.0)


def test_nan_slope_in_a_block_below_the_threshold_raises_as_before():
    # Every other slope rests: a NaN must not let the block pass as one at rest.
    kappa = _sampled_kappa(lambda x: 1.0 + 0.1 * np.sin(1.3 * x + 0.4))
    for scheme in ("euler", "heun"):
        core = solve_front(zero_state(), ControlSignal.zero(3.0), kappa,
                           SolverConfig(h=1e-2, T=3.0, scheme=scheme))._core
        fp = np.full(50, 0.1)
        fp[20] = np.nan
        with pytest.raises(DomainError, match=r"^toughness: evaluation at nan outside domain "
                                              r"\[0, 8\], the interval it is sampled on "):
            core._march(np.linspace(0.01, 0.5, 50), fp, 0.0, 1.0, 0.0)


# -- the record reads the core store at its own nodes --------------------------------

@pytest.mark.parametrize("case", ["constant", "sampled", "stepwise"])
def test_record_reads_the_slopes_of_its_own_nodes_from_the_store(case):
    # trace_slope at every core node is the stored slope, and every front foot
    # t - ell but the last (at t = T) is a stored node, bit for bit; so
    # trace_function and griffith_residuals read the store there.
    st, ctrl, kappa = make_state(1.0, lambda x: 0.0, lambda x: 2.0), ControlSignal.zero(5.0), None
    if case == "constant":
        kappa = Toughness(0.5)
    elif case == "sampled":
        kappa = _sampled_kappa(lambda x: 0.5 + 0.05 * np.sin(1.3 * x + 0.4))
    else:
        st, kappa = zero_state(), Toughness(1.0)
        ctrl = stepwise_control(5.0, np.random.default_rng(11))
    sol = solve_front(st, ctrl, kappa, SolverConfig(h=1e-2, T=5.0))
    core, f = sol._core, sol.front
    assert sol.trace_slope(core.s).tobytes() == core.fp.tobytes()
    trace = sol.trace_function()
    assert trace.xs.tobytes() == core.s.tobytes() and trace.vs.tobytes() == core.fp.tobytes()
    feet = f.times - f.positions
    assert feet[:-1].tobytes() == core.s[: feet.size - 1].tobytes()
    kap = kappa.kappa if kappa.is_constant else kappa(f.positions)
    want = np.abs(f.speeds - griffith_speed(sol.trace_slope(feet), kap))
    assert sol.griffith_residuals().tobytes() == want.tobytes()


# -- near-sonic fronts: the closing step crosses the seed kink, or the solve refuses -------

def _near_sonic(kappa, sampled, scheme):
    # Zero data, u = t: the front rests until t = 1, then runs at (2 - kappa) / (2 + kappa).
    tough = Toughness(SampledFunction([0.0, 10.0], [kappa, kappa]) if sampled else kappa)
    return solve_front(zero_state(), linear_control(3.0, 1.0), tough,
                       SolverConfig(h=1e-3, T=3.0, scheme=scheme))


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("kappa", [1e-10, 1e-12, 1e-14])
def test_near_sonic_front_matches_the_closed_form(kappa, sampled, scheme):
    ell_T = _near_sonic(kappa, sampled, scheme).front.ell(3.0)
    assert abs(ell_T - (1.0 + 2.0 * (2.0 - kappa) / (2.0 + kappa))) <= 1e-11


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("sampled", [False, True])
def test_a_front_speed_that_rounds_to_one_is_refused_naming_its_cause(sampled, scheme):
    with pytest.raises(SpeedOutOfRange, match="trace slope 1, toughness 1e-18") as err:
        _near_sonic(1e-18, sampled, scheme)
    assert 0.0 <= float(re.search(r"at t = (\S+):", str(err.value)).group(1)) <= 3.0


@pytest.mark.parametrize("scheme, case, message", [
    ("heun", "seed", "at t = 0: trace slope 1, toughness 1e-18"),
    ("euler", "seed", "at t = 0: trace slope 1, toughness 1e-18"),
    # Heun's right node of the u' jump lies past T: only the speed at T rounds to 1.
    ("heun", "late jump", "at t = 3: trace slope 1e+09, toughness 1"),
    ("euler", "late jump", "at t = 2.9999: trace slope 1e+09, toughness 1"),
    # A u' spike 1e-6 wide: only the closing step's right-side speed rounds to 1.
    ("heun", "spike", "at t = 2.5: trace slope 1e+09, toughness 1"),
    ("euler", "spike", "at t = 2.5: trace slope 1e+09, toughness 1"),
])
def test_the_refusal_names_the_first_front_speed_that_rounds_to_one(scheme, case, message):
    state, kappa = zero_state(), 1.0
    if case == "seed":  # the data's slope 1 drives the front from t = 0
        state, kappa = make_state(1.0, lambda x: 0.0, lambda x: 2.0, n=4), 1e-18
        xs, rates = [0.0, 3.0], [0.0, 0.0]
    elif case == "late jump":  # at rest until u' jumps to 1e9 at t = 3 - 1e-4
        xs, rates = [0.0, 2.0 - 1e-4, 2.0 - 1e-4 + 1e-9, 3.0], [0.0, 0.0, 1e9, 1e9]
    else:  # at rest but for u' = 1e9 on (1.5, 1.5 + 1e-6), which reaches the front at t = 2.5
        xs = [0.0, 1.5, 1.5 + 1e-9, 1.5 + 1e-6, 1.5 + 1e-6 + 1e-9, 3.0]
        rates = [0.0, 0.0, 1e9, 1e9, 0.0, 0.0]
    up = SampledFunction(xs, rates)
    control = ControlSignal(SampledFunction(xs, func1d.cumulative_trapezoid(up.xs, up.vs)), up)
    with pytest.raises(SpeedOutOfRange, match=f"^front speed rounds to 1 {re.escape(message)}$"):
        solve_front(state, control, Toughness(kappa), SolverConfig(h=1e-3, T=3.0, scheme=scheme))
