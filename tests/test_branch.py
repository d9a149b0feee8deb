import math

import numpy as np
import pytest

from debond import (
    C1SwitchViolation,
    DeadEnd,
    DomainError,
    SampledFunction,
    TargetState,
    Toughness,
    griffith_speed,
)
from debond import func1d
from debond.branch import (
    BranchPolicy,
    _nodes,
    branch_speed_options,
    solve_final_branch,
    static_branch,
)
from debond.model import classify_final_state


def make_target(ellbar0, y0_fn, y1_fn, regularity="C01", n=400):
    xs = np.linspace(0.0, ellbar0, n + 1)
    return TargetState(
        ellbar0,
        SampledFunction(xs, [y0_fn(x) for x in xs]),
        SampledFunction(xs, [y1_fn(x) for x in xs]),
        regularity,
    )


def constant_w_target(ellbar0, w, regularity="C01"):
    # ybar0 = 0 so ybar0' = 0 and ybar1 + ybar0' = w exactly
    return make_target(ellbar0, lambda x: 0.0, lambda x: w, regularity, n=8)


# -- speed options -------------------------------------------------------------

def test_options_zero_data_excludes_unit_root():
    assert branch_speed_options(0.0, 2.0) == (0.0,)


def test_options_both_branches():
    opts = branch_speed_options(2.0 / 3.0, 2.0)
    assert opts[0] == 0.0
    assert opts[1] == pytest.approx(0.5, abs=1e-15)


def test_options_dead_end():
    with pytest.raises(DeadEnd):
        branch_speed_options(3.0, 2.0)


def test_options_coincidence_at_equality():
    assert branch_speed_options(2.0, 2.0) == (0.0,)


@pytest.mark.parametrize("K", [0.0, -1.0])
def test_options_refuse_a_threshold_that_is_not_positive(K):
    with pytest.raises(DeadEnd, match="toughness threshold must be positive"):
        branch_speed_options(0.0, K)


@pytest.mark.parametrize("kwargs, message", [
    ({"mode": "prefer_fast"}, r"mode must be one of \('prefer_static', 'prefer_moving'\)"),
    ({"h": 0.0}, "backward step must be positive"),
    ({"h": -1e-3}, "backward step must be positive"),
])
def test_policy_refuses_an_unknown_mode_or_a_step_that_is_not_positive(kwargs, message):
    with pytest.raises(ValueError, match=message):
        BranchPolicy(**kwargs)


# -- backward integration --------------------------------------------------------

def test_static_branch_preferred():
    tgt = make_target(2.0, lambda x: math.sin(math.pi * x), lambda x: -math.pi * math.cos(math.pi * x))
    T = 6.0
    res = solve_final_branch(tgt, Toughness(1.0), T, BranchPolicy("prefer_static", h=1e-3))
    assert res.t_bar_star == pytest.approx(T - 2.0, abs=1e-12)
    assert res.ell_bar_star == pytest.approx(2.0, abs=1e-12)
    assert res.ell_bar_star_prime == 0.0
    assert np.max(np.abs(res.front_segment.positions - 2.0)) <= 1e-12
    # matches the closed-form static branch exactly
    ref = static_branch(tgt, Toughness(1.0), T)
    assert ref.t_bar_star == res.t_bar_star
    assert np.max(np.abs(res.front_segment.ell(ref.front_segment.times) - 2.0)) == 0.0


def test_moving_branch_constant_coefficients():
    # |w|^2 = 2/3 against 2 kappa = 2: root 0.5 at every node.
    T = 6.0
    h = 1e-3
    tgt = constant_w_target(2.0, math.sqrt(2.0 / 3.0))
    res = solve_final_branch(tgt, Toughness(1.0), T, BranchPolicy("prefer_moving", h=h))
    assert np.max(np.abs(res.front_segment.speeds - 0.5)) <= 10 * h
    assert res.t_bar_star == pytest.approx(T - 4.0 / 3.0, abs=10 * h)
    assert res.t_bar_star + res.ell_bar_star == pytest.approx(T, abs=1e-12)
    expect = 2.0 - 0.5 * (T - res.front_segment.times)
    assert np.max(np.abs(res.front_segment.positions - expect)) <= 10 * h


def test_dead_end_target():
    tgt = constant_w_target(1.0, 2.0)
    with pytest.raises(DeadEnd):
        solve_final_branch(tgt, Toughness(1.0), 4.0, BranchPolicy("prefer_static", h=1e-3))


def test_alternative_admissibility_recorded():
    tgt = constant_w_target(2.0, math.sqrt(2.0 / 3.0))
    res = solve_final_branch(tgt, Toughness(1.0), 6.0, BranchPolicy("prefer_static", h=1e-3))
    # static branch chosen but the moving root 0.5 was available throughout
    assert np.all(res.alternative_admissible)
    assert np.max(np.abs(res.front_segment.positions - 2.0)) <= 1e-12


def test_node_constraint_and_inclusion_hold():
    tgt = make_target(
        2.0,
        lambda x: 0.3 * math.sin(math.pi * x),
        lambda x: 0.4 * math.cos(0.5 * x),
        n=800,
    )
    T = 6.0
    h = 1e-3
    kappa = Toughness(1.0)
    res = solve_final_branch(tgt, kappa, T, BranchPolicy("prefer_moving", h=h))
    w = tgt.w_plus
    f = res.front_segment
    for t, L, v in zip(f.times[::37], f.positions[::37], f.speeds[::37]):
        x = min(max(t + L - T, 0.0), 2.0)
        Y = w(x) ** 2
        K = 2.0 * kappa(L)
        assert Y <= K + 1e-9
        root = (K - Y) / (K + Y)
        assert min(abs(v - 0.0), abs(v - root)) <= 10 * h


def test_forward_consistency_of_moving_branch():
    # The synthesized stage-2 trace slope must reproduce the branch speed
    # through the Griffith kernel at every node.
    tgt = constant_w_target(2.0, math.sqrt(2.0 / 3.0))
    T = 6.0
    h = 1e-3
    kappa = Toughness(1.0)
    res = solve_final_branch(tgt, kappa, T, BranchPolicy("prefer_moving", h=h))
    w = tgt.w_plus
    f = res.front_segment
    for t, L, v in zip(f.times[::41], f.positions[::41], f.speeds[::41]):
        x = min(max(t + L - T, 0.0), 2.0)
        fp = -0.5 * w(x) * (1.0 + v) / (1.0 - v)
        assert griffith_speed(fp, kappa(L)) == pytest.approx(v, abs=10 * h)


def test_c1_terminal_slope_forced():
    # Active target: alpha > 0, so a C1 branch must leave T at that speed.
    alpha = math.sqrt(0.5)
    tgt = make_target(
        1.0,
        lambda x: 2.0 * (1.0 - x),
        lambda x: 2.0 * alpha,
        "C1",
        n=800,
    )
    res = solve_final_branch(
        tgt, Toughness(1.0), 4.0, BranchPolicy("prefer_moving", h=1e-3)
    )
    assert res.alpha == pytest.approx(alpha, abs=1e-6)
    assert res.front_segment.speeds[-1] == pytest.approx(alpha, abs=1e-6)


def test_no_termination_for_short_horizon():
    from debond import NoTermination

    tgt = constant_w_target(2.0, 0.5)
    with pytest.raises(NoTermination):
        solve_final_branch(tgt, Toughness(1.0), 1.5, BranchPolicy("prefer_static", h=1e-3))


def test_c1_switch_violation():
    # Passive target (alpha = 0) whose outgoing data leaves a positive moving
    # root at T: prefer_moving would need a jump there, which C1 rules forbid.
    policy = BranchPolicy("prefer_moving", h=1e-3)
    tgt = make_target(1.0, lambda x: 0.5 * (x - 1.0), lambda x: 0.0, "C1", n=8)
    with pytest.raises(C1SwitchViolation):
        solve_final_branch(tgt, Toughness(1.0), 4.0, policy)
    # The same data tagged C01 follows no C1 rule, so the branch may end moving.
    tgt = make_target(1.0, lambda x: 0.5 * (x - 1.0), lambda x: 0.0, "C01", n=8)
    res = solve_final_branch(tgt, Toughness(1.0), 4.0, policy)
    assert res.front_segment.speeds[-1] > 0.0


# -- the march in r = t + L --------------------------------------------------------

def _kinked_moving_target():
    # ybar1 has kinks at abscissae off every uniform grid; ybar0 = 0, so w = ybar1.
    xs = [0.0, 0.31415, 0.71828, 1.04142, 1.41421, 1.73205, 2.0]
    w = [0.8, 0.35, 0.9, 0.5, 0.75, 0.3, 0.6]
    target = TargetState(2.0, SampledFunction([0.0, 2.0], [0.0, 0.0]), SampledFunction(xs, w))
    xk = np.linspace(0.0, 8.0, 65)
    kappa = Toughness(SampledFunction(xk, 1.0 + 0.1 * np.sin(1.3 * xk + 0.4)))
    return target, kappa


def test_self_convergence_with_kinks_off_the_grid():
    # Kinks of w are nodes of the r-march, so heun keeps its second order.
    target, kappa = _kinked_moving_target()
    hs = [4e-3, 2e-3, 1e-3, 5e-4]
    t_bar = [solve_final_branch(target, kappa, 6.0, BranchPolicy("prefer_moving", h=h)).t_bar_star
             for h in hs]
    errors = np.abs(np.diff(t_bar))  # |t_bar(h) - t_bar(h / 2)|
    ratios = errors[:-1] / errors[1:]
    assert np.all(ratios >= 3.8), ratios


@pytest.mark.parametrize("mode", ["prefer_static", "prefer_moving"])
def test_every_abscissa_of_w_is_a_node(mode):
    target, kappa = _kinked_moving_target()
    T = 6.0
    f = solve_final_branch(target, kappa, T, BranchPolicy(mode, h=1e-3)).front_segment
    x_nodes = f.times + f.positions - T
    for x in target.w_plus.xs:
        assert np.min(np.abs(x_nodes - x)) <= 1e-12, x


@pytest.mark.parametrize("mode", ["prefer_static", "prefer_moving"])
def test_random_targets_close_exactly_on_the_r_grid(mode):
    rng = np.random.default_rng(11)
    for _ in range(20):
        ellbar0 = float(rng.uniform(0.5, 3.0))
        kap = float(rng.uniform(0.5, 2.0))
        T = ellbar0 + float(rng.uniform(0.1, 4.0))
        h = float(rng.uniform(0.005, 0.05))
        # |ybar1| <= 0.5 sqrt(2 kappa) and |ybar0'| <= 0.4 sqrt(2 kappa): no dead end
        x1 = np.sort(np.concatenate(([0.0, ellbar0], rng.uniform(0.0, ellbar0, 5))))
        y1 = rng.uniform(-0.5, 0.5, x1.size) * math.sqrt(2.0 * kap)
        x0 = np.linspace(0.0, ellbar0, 41)
        amp = 0.4 * math.sqrt(2.0 * kap) * ellbar0 / (3.0 * math.pi)
        y0 = amp * np.sin(3.0 * math.pi * (ellbar0 - x0) / ellbar0)
        y0[-1] = 0.0
        target = TargetState(ellbar0, SampledFunction(x0, y0), SampledFunction(x1, y1))
        res = solve_final_branch(target, Toughness(kap), T, BranchPolicy(mode, h=h))
        f = res.front_segment
        assert abs(res.t_bar_star + res.ell_bar_star - T) <= 1e-12
        assert np.max(np.diff(f.times + f.positions)) <= h * (1.0 + 1e-12)
        assert np.min(f.positions) >= 0.5 * ellbar0 and np.max(f.positions) <= ellbar0


def _offset_ends_target(lo1, hi1, lo0, hi0):
    # ybar1 and ybar0 sampled on ends up to 1e-9 off [0, 2] and off each other
    x1 = np.concatenate(([lo1], np.linspace(0.25, 1.75, 7), [hi1]))
    x0 = np.concatenate(([lo0], np.linspace(0.3, 1.7, 5), [hi0]))
    return TargetState(2.0, SampledFunction(x0, np.zeros(x0.size)),
                       SampledFunction(x1, 0.5 + 0.1 * np.sin(3.0 * x1)))


@pytest.mark.parametrize("ends", [(-5e-10, 2.0 + 5e-10, 0.0, 2.0),
                                  (0.0, 2.0, -5e-10, 2.0 - 5e-10),
                                  (-5e-10, 2.0, -3e-10, 2.0 + 4e-10)])
def test_sample_ends_off_the_domain_give_one_node_per_end(ends):
    target = _offset_ends_target(*ends)
    T = 5.0
    kappa = Toughness(1.0)
    branches = [solve_final_branch(target, kappa, T, BranchPolicy(mode, h=1e-2))
                for mode in ("prefer_static", "prefer_moving")]
    branches.append(static_branch(target, kappa, T))
    for res in branches:
        f = res.front_segment  # FrontCurve rejects a repeated time
        x_nodes = f.times + f.positions - T
        assert abs(x_nodes[0]) <= 1e-12 and f.times[-1] == T and f.positions[-1] == 2.0
        assert np.all(np.diff(x_nodes) > 1e-12)


# -- the scan against the node-by-node march -----------------------------------------

def _reference_branch(target, kappa, T, policy):
    """The node-by-node backward march, three choices per node: (L, v, alt) from x = 0."""
    w = target.w_plus
    tol = max(1e-9, 10.0 * policy.h)
    prefer_moving = policy.mode == "prefer_moving"

    def choose(x, L, moving, forced=None):
        wv = w(x)
        opts = branch_speed_options(wv * wv, 2.0 * kappa(L))
        root, has_moving = opts[-1], len(opts) == 2
        alt = has_moving and root > tol
        if forced is not None:
            want_moving = forced > tol
            if want_moving != prefer_moving and root > tol:
                raise C1SwitchViolation(
                    f"policy {policy.mode} demands a speed jump at t = T away "
                    f"from a coincidence point (terminal speed {forced:.6g}, "
                    f"moving root {root:.6g})"
                )
            return (root if want_moving else 0.0), want_moving, alt
        if target.regularity != "C1":
            return (root, True, alt) if prefer_moving and has_moving else (0.0, False, alt)
        if moving:
            if not has_moving or (not prefer_moving and root <= tol):
                return 0.0, False, alt
            return root, True, alt
        if prefer_moving and has_moving and root <= tol:
            return root, True, alt
        return 0.0, False, alt

    alpha = classify_final_state(target, kappa) if target.regularity == "C1" else None
    xs = _nodes(w, target.ellbar0, policy.h).tolist()
    L = target.ellbar0
    v, moving, alt = choose(xs[-1], L, False, forced=alpha)
    nodes = [(L, v, alt)]
    for x_prev, x in zip(xs[:0:-1], xs[-2::-1]):
        dx = x_prev - x
        g = v / (1.0 + v)
        v_mid, moving_mid, _ = choose(x, L - dx * g, moving)
        L -= 0.5 * dx * (g + v_mid / (1.0 + v_mid))
        v, moving, alt = choose(x, L, moving_mid)
        nodes.append((L, v, alt))
    return np.array(nodes[::-1]).T


def _sampled_kappa():
    xk = np.linspace(0.0, 8.0, 65)
    return Toughness(SampledFunction(xk, 1.0 + 0.1 * np.sin(1.3 * xk + 0.4)))


def _c1_switching_target(kappa):
    # ybar0 = 2 (1 - x), so w = ybar1 - 2.  Active at T; going back, w = 0 exactly at
    # x = 0.5 (root 1, no moving option: a C1 moving branch leaves), then w^2 close
    # below 2 kappa at x = 0.3 (root below the switch tolerance: prefer_moving joins).
    c, k1 = 2.0, kappa(1.0)
    alpha = math.sqrt(1.0 - 2.0 * k1 / (c * c))
    w = [0.5, 1.0, math.sqrt(0.995 * 2.0 * k1), 0.0, c * (alpha - 1.0), c * (alpha - 1.0)]
    return TargetState(1.0, SampledFunction([0.0, 1.0], [c, 0.0]),
                       SampledFunction([0.0, 0.2, 0.3, 0.5, 0.8, 1.0], np.add(w, c)), "C1")


def _c1_passive_target(kappa):
    # ybar1(1) = 0 and ybar0'^2 just below 2 kappa(1): the moving root at T is
    # below the switch tolerance, so either policy may start static.
    c = 0.999 * math.sqrt(2.0 * kappa(1.0))
    return TargetState(1.0, SampledFunction([0.0, 1.0], [c, 0.0]),
                       SampledFunction([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.1, 0.0]), "C1")


def _assert_matches_reference(target, kappa, T, policy):
    res = solve_final_branch(target, kappa, T, policy)
    L, v, alt = _reference_branch(target, kappa, T, policy)
    f = res.front_segment
    assert np.array_equal(f.positions, L)
    assert np.array_equal(f.speeds, v)
    assert np.array_equal(res.alternative_admissible, alt.astype(bool))
    assert res.ell_bar_star_prime == v[0]
    return res


@pytest.mark.parametrize("kappa", [Toughness(1.0), _sampled_kappa()], ids=["constant", "sampled"])
@pytest.mark.parametrize("mode", ["prefer_static", "prefer_moving"])
def test_scan_matches_the_node_by_node_march(mode, kappa):
    target, _ = _kinked_moving_target()
    for h in (1e-3, 7e-3):
        _assert_matches_reference(target, kappa, 6.0, BranchPolicy(mode, h=h))
    # an int ellbar0 starts a float march
    whole = TargetState(2, target.ybar0, target.ybar1)
    _assert_matches_reference(whole, kappa, 6, BranchPolicy(mode, h=1e-3))
    rng = np.random.default_rng(5)
    for _ in range(5):
        x1 = np.sort(np.concatenate(([0.0, 1.5], rng.uniform(0.0, 1.5, 6))))
        target = TargetState(1.5, SampledFunction([0.0, 1.5], [0.0, 0.0]),
                             SampledFunction(x1, rng.uniform(-1.2, 1.2, x1.size)))
        _assert_matches_reference(target, kappa, 4.0, BranchPolicy(mode, h=2e-3))


@pytest.mark.parametrize("kappa", [Toughness(1.0), _sampled_kappa()], ids=["constant", "sampled"])
@pytest.mark.parametrize("mode", ["prefer_static", "prefer_moving"])
def test_c1_scan_matches_the_node_by_node_march(mode, kappa):
    # The forced terminal node and the moving flag carried from node to node.
    res = _assert_matches_reference(_c1_passive_target(kappa), kappa, 4.0,
                                    BranchPolicy(mode, h=1e-3))
    assert res.alpha == 0.0
    moving = res.front_segment.speeds > 0.0
    assert np.any(moving) == (mode == "prefer_moving")
    if mode == "prefer_moving":
        res = _assert_matches_reference(_c1_switching_target(kappa), kappa, 4.0,
                                        BranchPolicy(mode, h=1e-3))
        assert res.alpha > 0.0
        moving = res.front_segment.speeds > 0.0
        assert np.count_nonzero(moving[1:] != moving[:-1]) == 2  # leaves, then joins


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_dead_end_partway_down_matches_the_node_by_node_march():
    # w rises from 0.8 to 2.5 over one step, and 2.5^2 exceeds 2 kappa: the node's
    # midpoint and endpoint both fail, at different L, and the midpoint, checked
    # first, names the error.
    target = TargetState(1.0, SampledFunction([0.0, 1.0], [0.0, 0.0]),
                         SampledFunction([0.0, 0.49, 0.491, 1.0], [2.5, 2.5, 0.8, 0.8]))
    xk = np.linspace(0.0, 2.0, 5)
    kappa = Toughness(SampledFunction(xk, 1.0 + xk))
    for mode in ("prefer_static", "prefer_moving"):
        policy = BranchPolicy(mode, h=1e-3)
        new = _raised(lambda: solve_final_branch(target, kappa, 4.0, policy))
        assert new[0] is DeadEnd and "size constraint violated" in new[1]
        assert new == _raised(lambda: _reference_branch(target, kappa, 4.0, policy))


def test_branch_leaving_kappa_samples_matches_the_node_by_node_march():
    # The moving branch falls below kappa's first sample, where the held value 0.1
    # would also fail the size constraint: the domain error comes first.
    target = TargetState(1.0, SampledFunction([0.0, 1.0], [0.0, 0.0]),
                         SampledFunction([0.0, 1.0], [1.0, 1.0]))
    kappa = Toughness(SampledFunction([0.9, 0.9000001, 2.0], [0.1, 2.0, 2.0]))
    policy = BranchPolicy("prefer_moving", h=1e-3)
    new = _raised(lambda: solve_final_branch(target, kappa, 4.0, policy))
    assert new[0] is DomainError
    assert new == _raised(lambda: _reference_branch(target, kappa, 4.0, policy))


def test_c1_switch_violation_matches_the_node_by_node_march():
    tgt = make_target(1.0, lambda x: 0.5 * (x - 1.0), lambda x: 0.0, "C1", n=8)
    policy = BranchPolicy("prefer_moving", h=1e-3)
    new = _raised(lambda: solve_final_branch(tgt, Toughness(1.0), 4.0, policy))
    assert new[0] is C1SwitchViolation
    assert new == _raised(lambda: _reference_branch(tgt, Toughness(1.0), 4.0, policy))


@pytest.mark.parametrize("rules", ["C01", "C1"])
def test_branch_does_not_depend_on_the_scan_window(monkeypatch, rules):
    kappa = _sampled_kappa()
    if rules == "C01":
        target, T = _kinked_moving_target()[0], 6.0
    else:  # the moving flag leaves the moving root, then joins it again
        target, T = _c1_switching_target(kappa), 4.0
    policy = BranchPolicy("prefer_moving", h=1e-3)
    results = []
    for window in (1, 7, 64, 512, 1024, 4096):
        monkeypatch.setattr(func1d, "_SCAN_WINDOW", window)
        results.append(solve_final_branch(target, kappa, T, policy))
    first = results[0].front_segment
    for res in results[1:]:
        f = res.front_segment
        assert np.array_equal(f.times, first.times) and np.array_equal(f.positions, first.positions)
        assert np.array_equal(f.speeds, first.speeds)
        assert np.array_equal(res.alternative_admissible, results[0].alternative_admissible)
