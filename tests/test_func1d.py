import re
import warnings

import numpy as np
import pytest

from debond import (
    DomainError,
    MonotoneMap,
    RangeError,
    SampledFunction,
    constant,
    definite_integral,
    derivative,
)
from debond import func1d
from debond.func1d import cumulative_trapezoid, merged_eval, sides, union


def sample(f, lo, hi, n):
    """``f`` sampled on ``n`` uniform intervals of [lo, hi]."""
    xs = np.linspace(lo, hi, n + 1)
    return SampledFunction(xs, np.array([float(f(x)) for x in xs]))


def monotone(xs, vs):
    return MonotoneMap(SampledFunction(xs, vs))


def test_evaluate_constant():
    fn = constant(2.0, 0.0, 1.0)
    assert fn(0.5) == 2.0


def test_evaluate_identity_interpolation():
    fn = SampledFunction([0.0, 1.0], [0.0, 1.0])
    assert fn(0.25) == 0.25


def test_evaluate_midpoint_of_segment():
    fn = SampledFunction([0.0, 2.0], [0.0, 4.0])
    assert fn(1.0) == 2.0


def test_scalar_and_array_evaluation_agree():
    # Both query kinds equal np.interp on the query clipped into the domain.
    xs, vs = [0.0, 0.3, 1.0], [1.0, -2.0, 0.5]
    fn = SampledFunction(xs, vs)
    for x in (0.0, 0.1, 0.3, 0.77, 1.0, -1e-12, 1.0 + 1e-12, np.float64(0.42)):
        expected = np.interp(np.clip(x, 0.0, 1.0), xs, vs)
        assert fn(x) == expected
        assert fn(np.array([x]))[0] == expected
        assert isinstance(fn(x), float)
    for x in (-0.5, 1.5):
        with pytest.raises(DomainError, match="outside domain"):
            fn(x)


def test_evaluate_rejects_extrapolation():
    fn = constant(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        fn(1.5)
    with pytest.raises(DomainError):
        fn(-0.5)


def test_evaluate_exact_at_sample_points():
    xs = np.array([0.0, 0.3, 0.7, 1.0])
    vs = np.array([1.0, -2.0, 5.0, 0.5])
    fn = SampledFunction(xs, vs)
    for x, v in zip(xs, vs):
        assert fn(x) == v


def test_invariant_rejects_bad_spacing():
    with pytest.raises(ValueError):
        SampledFunction([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0], [1.0])
    with pytest.raises(ValueError):
        SampledFunction([1.0, 0.0], [0.0, 1.0])


_FINITE = "abscissae and values must be finite"
_SPACING = r"abscissae must increase with spacing >= 1e-12 \* span"
INF, NAN = np.inf, np.nan


@pytest.mark.parametrize("xs, vs, message", [
    ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [2.0, 3.0]],
     "abscissae and values must be 1-D arrays of equal length"),
    ([0.0, 1.0, 2.0], [0.0, 1.0], "abscissae and values must be 1-D arrays of equal length"),
    ([0.5], [1.0], "need at least two samples"),
    ([], [], "need at least two samples"),
    ([0.0, NAN, 1.0], [0.0, 0.0, 0.0], _FINITE),
    ([NAN, 0.5, 1.0], [0.0, 0.0, 0.0], _FINITE),
    ([0.0, 0.5, NAN], [0.0, 0.0, 0.0], _FINITE),
    ([0.0, INF, 1.0], [0.0, 0.0, 0.0], _FINITE),
    ([0.0, INF, INF, 1.0], [0.0, 0.0, 0.0, 0.0], _FINITE),
    ([-INF, 0.5, 1.0], [0.0, 0.0, 0.0], _FINITE),
    ([0.0, 0.5, INF], [0.0, 0.0, 0.0], _FINITE),
    ([INF, INF], [0.0, 0.0], _FINITE),
    ([-INF, -INF], [0.0, 0.0], _FINITE),
    ([-INF, INF], [0.0, 0.0], _FINITE),
    ([0.0, 0.5, 1.0], [0.0, NAN, 0.0], _FINITE),
    ([0.0, 0.5, 1.0], [INF, 0.0, 0.0], _FINITE),
    ([0.0, 0.5, 1.0], [0.0, 0.0, -INF], _FINITE),
    ([1.0, 0.5, 0.0], [NAN, 0.0, 0.0], _FINITE),  # finiteness is checked before spacing
    ([0.0, 0.7, 0.3, 1.0], [0.0, 0.0, 0.0, 0.0], _SPACING),
    ([1.0, 0.0], [0.0, 0.0], _SPACING),
    ([0.0, 0.5, 0.5, 1.0], [0.0, 0.0, 0.0, 0.0], _SPACING),
    ([0.0, 1e-13, 1.0], [0.0, 0.0, 0.0], _SPACING),
    ([0.0, 1.0 - 1e-13, 1.0], [0.0, 0.0, 0.0], _SPACING),
    ([0.5, 0.5], [0.0, 1.0], _SPACING),
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], _SPACING),
])
def test_sampled_function_names_the_first_rule_a_table_breaks(xs, vs, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from checking a bad table
        with pytest.raises(ValueError) as err:
            SampledFunction(np.array(xs), np.array(vs))
    assert re.fullmatch(message, str(err.value))


def test_sampled_function_accepts_the_least_spacing():
    fn = SampledFunction([0.0, 1e-12, 1.0], [0.0, 1.0, 2.0])
    assert fn.xs.tolist() == [0.0, 1e-12, 1.0] and not fn.xs.flags.writeable


def test_definite_integral_constant():
    fn = constant(2.0, 0.0, 1.0)
    assert definite_integral(fn, 0.0, 1.0) == pytest.approx(2.0, abs=1e-15)


def test_definite_integral_antisymmetric():
    fn = constant(2.0, 0.0, 1.0)
    assert definite_integral(fn, 1.0, 0.0) == pytest.approx(-2.0, abs=1e-15)


def test_definite_integral_triangle():
    fn = SampledFunction([0.0, 2.0], [0.0, 4.0])
    assert definite_integral(fn, 0.0, 2.0) == pytest.approx(4.0, abs=1e-15)


def test_definite_integral_partial_segments():
    # |2x - 1| polyline: two triangles of area 1/16 each over [0.25, 0.75]
    fn = SampledFunction([0.0, 0.5, 1.0], [1.0, 0.0, 1.0])
    assert definite_integral(fn, 0.25, 0.75) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(DomainError):
        definite_integral(fn, -0.1, 0.5)


def test_invert_identity():
    m = monotone([0.0, 1.0], [0.0, 1.0])
    assert m.invert(0.7) == pytest.approx(0.7, abs=1e-15)


def test_invert_unit_shift():
    # tau_plus for a static unit front: t -> t + 1
    m = monotone([0.0, 5.0], [1.0, 6.0])
    assert m.invert(3.0) == pytest.approx(2.0, abs=1e-12)


def test_invert_moving_front_tau_minus():
    # tau_minus for ell(t) = 1 + 0.6 t: t -> 0.4 t - 1; hand-solve 0.4 t - 1 = 0
    t = np.linspace(0.0, 5.0, 11)
    m = monotone(t, 0.4 * t - 1.0)
    assert m.invert(0.0) == pytest.approx(2.5, abs=1e-12)


def test_invert_rejects_out_of_range():
    m = monotone([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(RangeError):
        m.invert(2.0)


def test_monotone_map_rejects_nonincreasing_values():
    for vs in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [1.0, 0.0]):
        with pytest.raises(ValueError, match="^values must be strictly increasing$"):
            monotone(np.linspace(0.0, 1.0, len(vs)), vs)


def test_derivative_constant_is_zero():
    fn = constant(3.0, 0.0, 2.0)
    d = derivative(fn)
    assert d(1.3) == 0.0


def test_derivative_single_segment():
    fn = SampledFunction([0.0, 1.0], [0.0, 2.0])
    d = derivative(fn)
    assert d(0.0) == 2.0 and d(1.0) == 2.0 and d(0.4) == 2.0


def test_derivative_of_square_against_analytic():
    fn = sample(lambda x: x * x, 0.0, 1.0, 1000)
    d = derivative(fn)
    assert d(0.5) == pytest.approx(1.0, abs=1e-3)


def test_roundtrip_inversion_property():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = rng.integers(5, 40)
        xs = np.sort(rng.uniform(-3.0, 3.0, n))
        xs = np.unique(xs)
        if xs.size < 2:
            continue
        vs = np.cumsum(rng.uniform(0.1, 2.0, xs.size))
        m = monotone(xs, vs)
        t = rng.uniform(xs[0], xs[-1], 1000)
        span = xs[-1] - xs[0]
        back = m.invert(m(t))
        assert np.max(np.abs(back - t)) <= 1e-10 * max(span, 1.0)


def test_integral_of_derivative_recovers_increments():
    rng = np.random.default_rng(3)
    h = 1e-3
    fn = sample(np.sin, 0.0, 3.0, int(3.0 / h))
    d = derivative(fn)
    for _ in range(50):
        a, b = np.sort(rng.uniform(0.0, 3.0, 2))
        assert definite_integral(d, a, b) == pytest.approx(fn(b) - fn(a), abs=20 * h)


def test_evaluate_monotone_between_samples():
    rng = np.random.default_rng(11)
    xs = np.linspace(0.0, 1.0, 17)
    vs = np.cumsum(rng.uniform(0.0, 1.0, 17))
    fn = SampledFunction(xs, vs)
    q = np.sort(rng.uniform(0.0, 1.0, 200))
    out = fn(q)
    assert np.all(np.diff(out) >= -1e-14)


def _float_path_queries(xs, rng):
    lo, hi = xs[0], xs[-1]
    slack = 1e-9 * max(hi - lo, 1.0)
    inner = rng.uniform(lo, hi, 400)
    edges = [lo, hi, lo - 0.5 * slack, hi + 0.5 * slack]
    edges += [np.nextafter(lo, hi), np.nextafter(hi, lo)]
    return np.concatenate([xs, inner, edges]).tolist()


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
def test_sampled_function_float_path_matches_np_interp(scale):
    # Float and array queries reproduce np.interp on the clipped query bit for
    # bit: at nodes, at both endpoints, inside the clamp slack just outside
    # the domain, and at magnitudes from 1e-300 to 1e300.
    rng = np.random.default_rng(int(np.log10(scale)) + 400)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        xs = np.sort(rng.uniform(-1.0, 1.0, n)) * scale
        xs[1:] = np.maximum(xs[1:], xs[:-1] + 1e-6 * scale)  # spacing check holds
        vs = rng.normal(size=n) * scale * 10.0 ** rng.uniform(-3, 3)
        with np.errstate(over="ignore", invalid="ignore"):  # the node antiderivative
            fn = SampledFunction(xs, vs)
        q = _float_path_queries(fn.xs, rng)
        expected = np.interp(np.clip(q, fn.xs[0], fn.xs[-1]), fn.xs, fn.vs)
        assert np.all(np.array([fn(x) for x in q]) == expected)
        assert np.all(fn(np.array(q)) == expected)


def test_sampled_function_rejects_non_finite_samples_and_queries():
    for xs, vs in (([0.0, np.nan], [0.0, 1.0]), ([0.0, 1.0], [np.inf, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            SampledFunction(xs, vs)
    with pytest.raises(DomainError):
        SampledFunction([0.0, 1.0], [0.0, 1.0])(float("nan"))


def test_array_queries_reject_nan():
    # Array queries treat NaN as outside the domain, like a float query.
    fn = SampledFunction([0.0, 1.0], [0.0, 1.0])
    for query in (fn, fn.antiderivative_at):
        with pytest.raises(DomainError, match="nan"):
            query(np.array([0.5, np.nan]))
    with pytest.raises(RangeError):
        MonotoneMap(fn).invert(np.array([np.nan]))


@pytest.mark.parametrize(
    "xs, vs, x",
    [
        ([0.0, 1.0, 2.0], [1e308, 1e308, -1e308], 1.5),  # the node antiderivative overflows
        ([0.0, 1.0], [-1e308, 1e308], 0.5),  # only the segment slope overflows
    ],
)
def test_antiderivative_overflow_raises(xs, vs, x):
    with np.errstate(over="ignore", invalid="ignore"):
        fn = SampledFunction(xs, vs)  # construction still succeeds
        with pytest.raises(OverflowError):
            fn.antiderivative_at(x)
        with pytest.raises(OverflowError):
            fn.antiderivative_at(np.array([x]))
        with pytest.raises(OverflowError):
            definite_integral(fn, xs[0], x)


def test_definite_integral_overflow_raises():
    # Both antiderivatives are finite; only their difference overflows.
    fn = SampledFunction([0.0, 1.25, 2.5, 3.75, 5.0], [-8e307, -8e307, 8e307, 8e307, 8e307])
    assert np.isfinite(fn.antiderivative_at(1.25)) and np.isfinite(fn.antiderivative_at(5.0))
    with np.errstate(over="ignore"), pytest.raises(OverflowError):
        definite_integral(fn, 1.25, 5.0)
    assert definite_integral(fn, 2.5, 3.75) == 1e308


def test_cumulative_trapezoid_matches_running_sum():
    rng = np.random.default_rng(5)
    xs = np.cumsum(rng.uniform(0.01, 0.5, 30)).tolist()
    vs = rng.normal(size=30).tolist()
    running = [0.0]
    for i in range(29):
        running.append(running[-1] + 0.5 * (vs[i + 1] + vs[i]) * (xs[i + 1] - xs[i]))
    assert cumulative_trapezoid(np.array(xs), np.array(vs)).tolist() == running


def test_segment_tables_are_built_on_the_first_integral():
    from debond import FrontCurve

    fn = SampledFunction([0.0, 1.0, 3.0], [1.0, 2.0, 0.0])
    front = FrontCurve([0.0, 1.0, 2.0], [1.0, 1.5, 1.5], [0.5, 0.0, 0.0])
    front.echo(np.array([2.5, 3.0]))
    for table_owner in (fn, front.tau_plus.fn, front.tau_minus.fn):
        assert "_segments" not in vars(table_owner)
    assert fn.antiderivative_at(2.0) == 3.0
    assert "_segments" in vars(fn)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("grids", [
    ([0.0, 0.5, 1.0], [0.25, 0.5, 0.75, 1.0]),  # sorted, sharing nodes
    ([1.0, 0.2, 0.7, 0.2], [0.9, 0.1, 0.7]),  # unsorted, with repeats
    ([3.0, 3.0, 3.0], [3.0]),  # one value
    ([-0.0, 0.5], [-0.0, 0.25, 1.0]),  # one zero's sign on both sides
    ([0.0, 1.0], [-1.0, 0.0, 2.0]),
    ([-2.0, -0.0], [-1.0]),
], ids=["sorted", "unsorted", "repeats", "minus-zero", "plus-zero", "zero-one-side"])
def test_union_equals_union1d(grids):
    a, b = (np.array(g) for g in grids)
    assert _bits(union(a, b)) == _bits(np.union1d(a, b))
    assert _bits(union(b, a)) == _bits(np.union1d(b, a))
    c = np.array([0.3, 5.0])
    assert _bits(union(a, b, c)) == _bits(np.union1d(np.union1d(a, b), c))


def test_merged_eval_keeps_the_first_of_nodes_closer_than_the_spacing_rule():
    # The midpoints of a 100-interval grid on [0, 1] (a derivative's nodes) and the
    # nodes of a 200-interval grid meet a few ulps apart at ten places.
    xs = np.linspace(0.0, 1.0, 101)
    a = derivative(SampledFunction(xs, np.sin(np.pi * xs)))
    b = SampledFunction(np.linspace(0.0, 1.0, 201), np.cos(np.linspace(0.0, 1.0, 201)))
    full = union(a.xs, b.xs)
    close = np.flatnonzero(full[1:] - full[:-1] < 1e-12 * (full[-1] - full[0]))
    assert close.size == 10 and (full[close + 1] - full[close]).max() < 1e-15
    grid, values = merged_eval(a, b, np.add)
    assert _bits(grid) == _bits(np.delete(full, close + 1))
    assert _bits(values) == _bits(a(grid) + b(grid))
    fn = SampledFunction(grid, values)  # the spacing rule holds
    assert fn.lo == 0.0 and fn.hi == 1.0
    # Grids that keep their nodes apart are merged whole.
    grid, _ = merged_eval(constant(0.0, 0.0, 1.0), b, np.add)
    assert _bits(grid) == _bits(b.xs)


def test_union_of_long_sorted_grids_equals_union1d():
    rng = np.random.default_rng(4)
    a = np.linspace(0.0, 6.0, 5001)
    b = np.sort(np.concatenate((rng.uniform(0.0, 6.0, 6000), a[::7])))
    c = rng.uniform(-1.0, 7.0, 20)
    assert _bits(union(a, b, c)) == _bits(np.union1d(np.union1d(a, b), c))
    assert _bits(union(b)) == _bits(np.unique(b))


def test_union_keeps_the_first_of_two_signed_zeros():
    # np.union1d's pick between 0.0 and -0.0 follows its hash table; the merge
    # keeps the first in argument order.
    assert _bits(union(np.array([0.0, 1.0]), np.array([-0.0]))) == _bits([0.0, 1.0])
    assert _bits(union(np.array([-0.0, 1.0]), np.array([0.0]))) == _bits([-0.0, 1.0])


def test_interp_returns_its_samples_bit_for_bit_at_its_nodes():
    # numpy does not document this; control.csv of a one-grid control relies on it.
    rng = np.random.default_rng(29)
    xp = np.concatenate(([-0.0], np.cumsum(rng.uniform(1e-9, 1.0, 200))))
    xp[100:102] = xp[99] + np.array([1.0, 1.0 + 1e-9])  # a jump pair
    fp = rng.normal(size=xp.size) * 10.0 ** rng.integers(-300, 300, xp.size)
    fp[[3, 50, 101, -1]] = -0.0  # inside, across the pair and at the last node
    fp[100] = 1e300
    assert _bits(np.interp(xp, xp, fp)) == _bits(fp)
    assert _bits(np.interp(np.abs(xp), xp, fp)) == _bits(fp)  # 0.0 reads node -0.0
    assert _bits(SampledFunction(xp, fp)(xp)) == _bits(fp)


def test_interp_reads_a_repeated_abscissa_as_a_right_continuous_jump():
    xp, fp = np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 1.0, 5.0, 5.0])
    assert _bits(np.interp([0.5, 1.0, np.nextafter(1.0, 0.0), 1.5], xp, fp)) == \
        _bits([0.5, 5.0, np.nextafter(1.0, 0.0), 5.0])


@pytest.mark.parametrize("x", [-1.0, 2.0, np.array(-1.0), np.array([-1.0, -2.0]),
                               np.array([1.0, 2.0]), np.array([1.0, -2.0, np.nan, 3.0]),
                               np.empty(0)])
def test_sides_equals_where(x):
    x = np.asarray(x, dtype=float)
    seen = []

    def side(sign):
        def f(i):
            seen.append(np.shape(x[i]))
            return sign * x[i] + 1.0
        return f

    out = sides(x > 0.0, side(2.0), side(-1.0))
    assert out.shape == x.shape and out.dtype == float
    assert _bits(out) == _bits(np.where(x > 0.0, 2.0 * x + 1.0, -1.0 * x + 1.0))
    one_side = not (x > 0.0).any() or (x > 0.0).all()
    # a side that takes every point sees x's own shape, 0-d included; else True goes first
    assert seen == ([x.shape] if one_side else [(np.count_nonzero(x > 0.0),),
                                                (np.count_nonzero(~(x > 0.0)),)])


@pytest.mark.parametrize("heun", [False, True], ids=["euler", "heun"])
@pytest.mark.parametrize("window", [1, 5, 1024])
def test_march_equals_the_node_loop(monkeypatch, heun, window):
    # x' = a x / (1 + x^2) + k with a counter k the rate carries, one more per call: the
    # corrector reads the predictor's, so a heun node adds 2 and an euler node 1.
    monkeypatch.setattr(func1d, "_SCAN_WINDOW", window)
    rng = np.random.default_rng(5)
    d, a = rng.uniform(0.0, 0.1, 40), rng.uniform(-3.0, 3.0, 40)

    def rate(lo, hi, x, k):
        return a[lo:hi] * x / (1.0 + x * x) + k, k + 1.0

    x, r, k = 0.5, 0.25, 0.0
    want = [(x, r, k)]
    for i in range(d.size):
        x_pred = x + d[i] * r
        if heun:
            r_mid, k = a[i] * x_pred / (1.0 + x_pred * x_pred) + k, k + 1.0
            x = x + 0.5 * d[i] * (r + r_mid)
        else:
            x = x_pred
        r, k = a[i] * x / (1.0 + x * x) + k, k + 1.0
        want.append((x, r, k))
    got = func1d.march(d, rate, (0.5, 0.25, 0.0), heun)
    assert _bits(np.stack(got, axis=1)) == _bits(np.array(want))


def test_scan_guesses_past_every_stepped_node_hold_the_last_stepped_value(monkeypatch):
    # x_{k+1} = max(x_k, 1 + k // 10) and b_{k+1} = b_k or k % 10 == 0: a guess of the
    # last stepped value is mostly exact, so passes commit whole windows, and the next
    # window reaches nodes no pass has stepped.
    monkeypatch.setattr(func1d, "_SCAN_WINDOW", 8)
    calls = []

    def step(lo, hi, x, b):
        k = np.arange(lo, hi)
        calls.append((lo, hi, x.copy(), b.copy(), np.maximum(x, 1.0 + k // 10), b | (k % 10 == 0)))
        return calls[-1][4:]

    x, b = func1d.scan(step, (0.0, False), 40)
    nodes = np.arange(41)
    assert x.tolist() == [0.0] + (1.0 + (nodes[1:] - 1) // 10).tolist()
    assert b.tolist() == [False] + [True] * 40
    fresh = 0
    for (_, stepped, _, _, x_out, b_out), (lo, hi, x_in, b_in, _, _) in zip(calls, calls[1:]):
        beyond = np.arange(lo, hi) > stepped  # nodes the pass before left unstepped
        assert (x_in[beyond] == x_out[-1]).all() and (b_in[beyond] == b_out[-1]).all()
        fresh += np.count_nonzero(beyond)
    assert fresh > 0 and len(calls) < 40  # guesses past the last stepped node were made
