import dataclasses
import math
import re

import numpy as np
import pytest

from debond import (
    AmbiguityNote,
    DomainError,
    FrontCurve,
    IncompatibleTarget,
    InitialState,
    InvalidToughness,
    MonotoneMap,
    SampledFunction,
    SpeedOutOfRange,
    TargetState,
    Toughness,
    check_damping_bound,
    check_initial_compatibility,
    classify_final_state,
    constant,
    griffith_speed,
    speed_to_fprime_magnitude,
)
from debond.func1d import merged_eval


def make_state(ell0, y0_fn, y1_fn, regularity="C01", n=200):
    xs = np.linspace(0.0, ell0, n + 1)
    y0 = SampledFunction(xs, [y0_fn(x) for x in xs])
    y1 = SampledFunction(xs, [y1_fn(x) for x in xs])
    return InitialState(ell0, y0, y1, regularity)


def make_target(ellbar0, y0_fn, y1_fn, regularity="C01", n=200):
    xs = np.linspace(0.0, ellbar0, n + 1)
    y0 = SampledFunction(xs, [y0_fn(x) for x in xs])
    y1 = SampledFunction(xs, [y1_fn(x) for x in xs])
    return TargetState(ellbar0, y0, y1, regularity)


# -- Griffith kernel ---------------------------------------------------------

def test_griffith_speed_clamps_negative_branch():
    assert griffith_speed(0.0, 1.0) == 0.0


def test_griffith_speed_threshold():
    assert griffith_speed(1.0, 2.0) == 0.0


def test_griffith_speed_hand_value():
    assert griffith_speed(math.sqrt(1.5), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_griffith_speed_rejects_bad_toughness():
    with pytest.raises(InvalidToughness):
        griffith_speed(1.0, 0.0)


@pytest.mark.parametrize(
    "fp, kap, name",
    [(math.nan, 1.0, "trace slope"), (1.0, math.nan, "toughness"), (math.inf, 1.0, "trace slope")],
)
def test_griffith_speed_rejects_non_finite(fp, kap, name):
    with pytest.raises(FloatingPointError, match=name):
        griffith_speed(fp, kap)
    with pytest.raises(FloatingPointError, match=name):
        griffith_speed(np.array([0.5, fp]), np.array([1.0, kap]))


def test_griffith_speed_range_property():
    rng = np.random.default_rng(0)
    fp = rng.uniform(-50.0, 50.0, 100_000)
    kap = rng.uniform(1e-6, 10.0, 100_000)
    twice = 2.0 * fp * fp
    v = np.maximum((twice - kap) / (twice + kap), 0.0)
    assert np.all(v >= 0.0) and np.all(v < 1.0)
    for i in range(0, 100_000, 9973):
        assert griffith_speed(fp[i], kap[i]) == v[i]


def test_speed_to_fprime_threshold_limit():
    assert speed_to_fprime_magnitude(1e-15, 1.0) == pytest.approx(
        0.7071067811865476, abs=1e-12
    )


def test_speed_to_fprime_half():
    assert speed_to_fprime_magnitude(0.5, 1.0) == pytest.approx(
        1.224744871391589, abs=1e-12
    )


def test_speed_to_fprime_third():
    assert speed_to_fprime_magnitude(1.0 / 3.0, 3.0) == pytest.approx(
        1.7320508075688772, abs=1e-12
    )


def test_speed_to_fprime_rejects_out_of_range():
    with pytest.raises(SpeedOutOfRange):
        speed_to_fprime_magnitude(0.0, 1.0)
    with pytest.raises(SpeedOutOfRange):
        speed_to_fprime_magnitude(1.0, 1.0)


@pytest.mark.parametrize("kappa", [0.0, -1.0, np.array([1.0, 0.0])])
def test_speed_to_fprime_rejects_a_toughness_that_is_not_positive(kappa):
    with pytest.raises(InvalidToughness, match="toughness must be positive"):
        speed_to_fprime_magnitude(0.5, kappa)


def test_speed_roundtrip_property():
    rng = np.random.default_rng(1)
    v = rng.uniform(1e-9, 1.0 - 1e-6, 2000)
    kap = rng.uniform(0.3, 3.0, 2000)
    for vi, ki in zip(v, kap):
        fp = speed_to_fprime_magnitude(vi, ki)
        assert griffith_speed(fp, ki) == pytest.approx(vi, abs=1e-12)


def energy_release_rate(speed, slope_at_front):
    """Dynamic energy release rate G = (1 - speed^2) slope^2 / 2 at the front."""
    return 0.5 * (1.0 - speed * speed) * slope_at_front * slope_at_front


def test_energy_release_rate_values():
    assert energy_release_rate(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert energy_release_rate(0.6, 2.0) == pytest.approx(1.28, abs=1e-15)
    assert energy_release_rate(1.0 - 1e-15, 5.0) == pytest.approx(0.0, abs=1e-12)


def test_griffith_consistency_moving_front():
    # When the front moves, the release rate at the front slope equals the
    # toughness: the slope there is -2 f' / (1 + speed).
    rng = np.random.default_rng(2)
    for _ in range(500):
        kap = rng.uniform(0.2, 4.0)
        fp = rng.uniform(-4.0, 4.0)
        v = griffith_speed(fp, kap)
        if v <= 0.0:
            continue
        slope = -2.0 * fp / (1.0 + v)
        assert energy_release_rate(v, slope) == pytest.approx(kap, abs=1e-9)


# -- Toughness ----------------------------------------------------------------

def test_toughness_constant_and_sampled():
    k = Toughness(0.5)
    assert k(123.4) == 0.5 and k.is_constant
    ks = Toughness(SampledFunction([0.0, 4.0], [1.0, 2.0]))
    assert ks(2.0) == pytest.approx(1.5)
    with pytest.raises(InvalidToughness):
        Toughness(-1.0)


@pytest.mark.parametrize("kappa, error, message", [
    ("1.0", TypeError, "kappa must be a number or a SampledFunction"),
    (SampledFunction([0.0, 1.0], [1.0, 0.0]), InvalidToughness,
     "sampled toughness must be positive everywhere"),
])
def test_toughness_rejects_what_is_not_a_positive_number_or_table(kappa, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        Toughness(kappa)


def test_toughness_held_is_np_interp_on_its_samples_or_the_constant():
    xs = np.linspace(0.0, 2.0, 9)
    vs = 1.0 + 0.3 * np.sin(3.0 * xs)
    kappa = Toughness(SampledFunction(xs, vs))
    x = np.concatenate([np.random.default_rng(3).uniform(-1.0, 3.0, 50), xs, [-0.0, -5.0, 7.0]])
    assert kappa.held(x).tobytes() == np.interp(x, xs, vs).tobytes()  # beyond the ends too
    assert kappa.held(2.5) == np.interp(2.5, xs, vs)
    for q in (x, 1.3):
        held = Toughness(0.7).held(q)
        assert type(held) is float and held == 0.7


def test_toughness_check_raises_what_kappa_raises_on_the_stacked_points():
    kappa = Toughness(SampledFunction(np.linspace(0.0, 2.0, 9), np.linspace(1.0, 2.0, 9)))
    inside = np.linspace(0.0, 2.0 + 1e-10, 7)  # within the domain slack
    cases = [(3, None), (None, 3), (3, 2)]  # out of range in the first array, the second, both
    for in_a, in_b in cases:
        a, b = inside.copy(), inside[::-1].copy()
        if in_a is not None:
            a[in_a] = 2.5
        if in_b is not None:
            b[in_b] = -1.0
        with pytest.raises(DomainError) as want:
            kappa(np.column_stack((a, b)).ravel())
        with pytest.raises(DomainError, match=re.escape(str(want.value))):
            kappa.check(a, b)
    kappa.check(inside, inside[::-1])
    kappa.check(inside)
    kappa.check(np.empty(0), np.empty(0))
    Toughness(0.7).check(np.array([-5.0, np.nan, 1e300]), np.array([7.0, 8.0, 9.0]))


# -- compatibility ------------------------------------------------------------

def test_initial_compatibility_trivial_pass():
    st = make_state(1.0, lambda x: 0.0, lambda x: 0.0, "C1")
    rep = check_initial_compatibility(st, 0.0, 0.0, Toughness(1.0))
    assert rep.passed
    assert all(item.residual == 0.0 for item in rep)


def test_initial_compatibility_moving_seed_fails():
    # y1 = 2 with flat y0 forces speed 0.6 at kappa = 0.5, so the front slope
    # condition demands y1(ell0) = 0; residual is the full 2.
    st = make_state(1.0, lambda x: 0.0, lambda x: 2.0, "C1")
    rep = check_initial_compatibility(st, 0.0, 2.0, Toughness(0.5))
    assert not rep.passed
    failing = [item for item in rep if not item.passed]
    assert len(failing) == 1
    assert failing[0].name == "front_slope_compatibility"
    assert failing[0].residual == pytest.approx(2.0, abs=1e-12)


def test_initial_compatibility_static_ramp_passes():
    st = make_state(1.0, lambda x: 1.0 - x, lambda x: 0.0, "C1")
    rep = check_initial_compatibility(st, 1.0, 0.0, Toughness(1.0))
    assert rep.passed


# -- final-state classification -------------------------------------------------

def test_classify_passive():
    tgt = make_target(1.0, lambda x: 0.0, lambda x: 0.0, "C1")
    assert classify_final_state(tgt, Toughness(1.0)) == 0.0


def test_classify_active():
    # slope -2 at the front, kappa = 1: alpha = sqrt(1 - 2/4) = sqrt(0.5)
    alpha = math.sqrt(0.5)
    tgt = make_target(
        1.0,
        lambda x: 2.0 * (1.0 - x),
        lambda x: alpha * 2.0,
        "C1",
    )
    got = classify_final_state(tgt, Toughness(1.0))
    assert got == pytest.approx(alpha, abs=1e-6)


def test_classify_boundary_resolves_passive():
    # |y0'|^2 = 2 kappa exactly: the active root degenerates to 0.
    tgt = make_target(1.0, lambda x: math.sqrt(2.0) * (1.0 - x), lambda x: 0.0, "C1")
    assert classify_final_state(tgt, Toughness(1.0)) == 0.0


def test_classify_both_matching_resolves_passive_with_a_note():
    # Slope -0.1 at the front and kappa just below slope^2 / 2: the active root,
    # about 5e-8, times the slope leaves ybar1 = 0 within the tolerance too.
    tgt = make_target(1.0, lambda x: 0.1 * (1.0 - x), lambda x: 0.0, "C1")
    kappa = Toughness(0.5 * tgt.ybar0_prime(1.0) ** 2 * (1.0 - 2.5e-15))
    with pytest.warns(AmbiguityNote, match="^both passive and active classifications match"):
        assert classify_final_state(tgt, kappa) == 0.0


def test_classify_incompatible_raises():
    tgt = make_target(1.0, lambda x: 0.1 * (1.0 - x), lambda x: 1.0, "C1")
    with pytest.raises(IncompatibleTarget):
        classify_final_state(tgt, Toughness(1.0))


def test_classify_alpha_in_unit_interval_property():
    rng = np.random.default_rng(5)
    for _ in range(100):
        slope = rng.uniform(1.5, 6.0)
        kap = rng.uniform(0.2, 1.0)
        alpha = math.sqrt(max(1.0 - 2.0 * kap / slope**2, 0.0))
        tgt = make_target(
            1.0,
            lambda x, s=slope: s * (1.0 - x),
            lambda x, a=alpha, s=slope: a * s,
            "C1",
        )
        got = classify_final_state(tgt, Toughness(kap))
        assert 0.0 <= got < 1.0


# -- damping bound ---------------------------------------------------------------

def test_damping_bound_opposed_profiles_pass():
    tgt = make_target(2.0, lambda x: math.sin(math.pi * x), lambda x: -math.pi * math.cos(math.pi * x))
    rep = check_damping_bound(tgt, 1.0)
    assert rep.passed


def test_damping_bound_violation_reported():
    tgt = make_target(1.0, lambda x: 2.0 * (1.0 - x), lambda x: 4.0)
    # w = y1 + y0' = 2 everywhere; |w|^2 - 2 kappa = 2
    rep = check_damping_bound(tgt, 1.0)
    assert not rep.passed
    assert rep.worst.residual == pytest.approx(2.0, abs=1e-12)


def test_damping_bound_equality_passes():
    c = math.sqrt(2.0)
    tgt = make_target(1.0, lambda x: 1.0 - x, lambda x: c + 1.0)
    rep = check_damping_bound(tgt, 1.0)
    assert rep.passed


def test_state_invariants_enforced():
    with pytest.raises(ValueError):
        make_state(1.0, lambda x: 1.0, lambda x: 0.0)  # y0 does not vanish
    with pytest.raises(ValueError):
        make_target(1.0, lambda x: x, lambda x: 0.0)  # ybar0(ellbar0) != 0


@pytest.mark.parametrize("state", [InitialState, TargetState])
def test_state_refuses_a_length_regularity_or_domain_that_does_not_fit(state):
    zero = constant(0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="must be positive"):
        state(0.0, zero, zero, "C01")
    with pytest.raises(ValueError, match=r"regularity must be one of \('C01', 'C1'\)"):
        state(1.0, zero, zero, "C2")
    with pytest.raises(ValueError, match=r"must be sampled on \[0, 1\], got \[0, 0.5\]"):
        state(1.0, zero, constant(0.0, 0.0, 0.5), "C01")


def test_front_curve_refuses_arrays_of_unequal_length():
    with pytest.raises(ValueError, match="equal-length 1-D arrays"):
        FrontCurve([0.0, 1.0, 2.0], [1.0, 1.0], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("s", [2.0, np.linspace(1.0, 7.2, 401)], ids=["float", "array"])
def test_front_reflect_inverts_once_with_the_same_bits(s):
    ts = np.linspace(0.0, 6.0, 601)
    ells = 1.0 + 0.3 * ts + 0.02 * np.sin(3.0 * ts)
    front = FrontCurve(ts, ells, 0.3 + 0.06 * np.cos(3.0 * ts))
    foot = front.tau_plus.invert(s)
    v = front.ell_prime(foot)
    echo, factor = front.reflect(s)
    assert type(echo) is type(factor) is type(front.echo(s))
    np.testing.assert_array_equal(echo, front.echo(s))
    np.testing.assert_array_equal(echo, s - 2.0 * front.ell(foot))
    np.testing.assert_array_equal(factor, (1.0 - v) / (1.0 + v))
    np.testing.assert_array_equal(factor, front.reflection_factor(s))


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("times, positions, speeds, message", [
    (None, None, [0.0, 0.0, NAN, 0.0, 0.0], r"front speeds must lie in \[0, 1\)"),
    (None, None, [0.0, 0.0, INF, 0.0, 0.0], r"front speeds must lie in \[0, 1\)"),
    (None, None, [0.0, 1.0, 0.0, 0.0, 0.0], r"front speeds must lie in \[0, 1\)"),
    (None, None, [0.0, -1e-300, 0.0, 0.0, 0.0], r"front speeds must lie in \[0, 1\)"),
    ([0.0, 0.25, NAN, 0.75, 1.0], None, None, None),
    ([0.0, 0.25, 0.5, 0.75, INF], None, None, None),
    (None, [1.0, 1.0, NAN, 1.0, 1.0], None, None),
    (None, [1.0, 1.0, 1.0, 1.0, INF], None, None),
    (None, [1.0, 1.0, 1.0, 1.0, -INF], None, None),
], ids=["nan-speed", "inf-speed", "speed-1", "negative-speed", "nan-time", "inf-time",
        "nan-position", "inf-position", "minus-inf-position"])
def test_front_curve_rejects_non_finite_or_out_of_range_values(times, positions, speeds, message):
    t = np.linspace(0.0, 1.0, 5) if times is None else np.array(times)
    p = np.ones(5) if positions is None else np.array(positions)
    v = np.zeros(5) if speeds is None else np.array(speeds)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
        FrontCurve(t, p, v)


def test_state_combinations_are_built_once_and_equal_a_fresh_merge():
    # ybar1 and ybar0' on different grids, so the merged grid is the union of both
    tgt = TargetState(1.5, SampledFunction(np.linspace(0.0, 1.5, 7), np.linspace(0.9, 0.0, 7)),
                      SampledFunction([0.0, 0.4, 1.1, 1.5], [0.3, -0.2, 0.5, 0.1]))
    for name, combine in (("w_plus", np.add), ("w_minus", np.subtract)):
        w = getattr(tgt, name)
        assert getattr(tgt, name) is w
        grid, values = merged_eval(tgt.ybar1, tgt.ybar0_prime, combine)
        assert w.xs.tobytes() == grid.tobytes() and w.vs.tobytes() == values.tobytes()
    st = make_state(1.0, lambda x: 0.2 * math.sin(3.0 * x) * (1.0 - x), lambda x: x * x, n=9)
    seed = st.seed_trace
    assert st.seed_trace is seed and seed.incoming is seed.incoming
    (grid, diff), plus = (merged_eval(st.y1, st.y0_prime, lambda a, b: 0.5 * (a - b)),
                          merged_eval(st.y0_prime, st.y1, lambda a, b: 0.5 * (a + b)))
    arrays = (seed.minus_xs, seed.minus_vs, seed.plus_xs, seed.plus_vs, seed.incoming.xs,
              seed.incoming.vs)
    for got, want in zip(arrays, (-grid[::-1], diff[::-1], *plus, grid, diff)):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable  # shared by every solve
    with pytest.raises(dataclasses.FrozenInstanceError):
        seed.minus_xs = grid


_P = 1e308
_A = float(2**1024 - 2**970 - int(_P))  # _A + _P rounds to inf, _A + 1e297 + _P - 9e298 does not


@pytest.mark.parametrize("times, positions, message", [
    ([0.0, 0.5, INF], [1.0, 1.0, 1.0], "abscissae and values must be finite"),
    ([-INF, 0.0, 1.0], [1.0, 1.0, 1.0], "abscissae and values must be finite"),
    ([0.0, NAN, 1.0], [1.0, 1.0, 1.0], "times must be strictly increasing"),
    ([0.0, 0.5, 1.0], [INF, 1.0, 1.0], "abscissae and values must be finite"),
    ([0.0, _A, _A + 1e297], [_P, _P, _P - 9e298], "abscissae and values must be finite"),
    ([0.0, 1e-13, 1.0], [1.0, 1.0, 1.0],
     r"abscissae must increase with spacing >= 1e-12 \* span"),
    ([0.0, 1e-6, 1.0], [1e4, 1e4 - 5e-6, 1e4 - 5e-6], "values must be strictly increasing"),
], ids=["inf-time", "minus-inf-time", "nan-time", "inf-position", "t-plus-ell-overflows-inside",
        "spacing", "t-plus-ell-falls"])
def test_front_curve_checks_tau_plus_in_one_pass_with_its_messages(times, positions, message):
    # The messages, and which one a front gets, are those of building tau_plus
    # through SampledFunction and MonotoneMap.
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError) as err:
        FrontCurve(np.array(times), np.array(positions), np.zeros(3))
    assert re.fullmatch(message, str(err.value))


def test_front_curve_tau_plus_equals_the_checked_map():
    ts = np.linspace(0.0, 3.0, 31)
    front = FrontCurve(ts, 1.0 + 0.2 * ts, np.full(31, 0.2))
    checked = MonotoneMap(SampledFunction(front.times, front.times + front.positions))
    for got, want in ((front.tau_plus.fn.xs, checked.fn.xs), (front.tau_plus.fn.vs, checked.fn.vs)):
        assert got.tobytes() == want.tobytes() and not got.flags.writeable
    assert front.tau_plus.fn.xs is front.times
    s = np.linspace(1.0, 4.6, 13)
    assert front.tau_plus.invert(s).tobytes() == checked.invert(s).tobytes()
