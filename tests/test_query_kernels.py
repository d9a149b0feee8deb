"""The query kernels against the code they replaced, bit for bit.

The ``_seed_*`` functions below are the earlier implementations of
``SampledFunction.__call__`` (through its clip), ``antiderivative_at``,
``MonotoneMap.invert`` and ``griffith_speed``, kept as reference oracles;
``_interp_fprime`` reads ``_seed_slope``'s three polylines through plain
``np.interp``, and ``_masked_*`` are the general paths of ``_seed_slope``
and ``SolutionRecord.trace_slope`` (its read past the entry check, ``_slope``),
with both masks always applied.  Every result must have the oracle's type,
shape and bits (so -0.0 differs from 0.0 and NaN equals itself), and every
error the oracle's type and message.
"""

import math

import numpy as np
import pytest

from debond import (
    DomainError,
    InitialState,
    InvalidToughness,
    MonotoneMap,
    RangeError,
    SampledFunction,
    griffith_speed,
)
from debond.forward import _seed_slope

SLACK = 1e-9


def _seed_clip(fn, x):
    slack = SLACK * max(float(fn.xs[-1] - fn.xs[0]), 1.0)
    x = np.asarray(x, dtype=float)
    outside = ~((x >= fn.xs[0] - slack) & (x <= fn.xs[-1] + slack))
    if np.any(outside):
        bad = np.atleast_1d(x[outside])[0]
        raise DomainError(f"evaluation at {bad:.17g} outside domain [{fn.lo:.17g}, {fn.hi:.17g}]")
    return np.clip(x, fn.xs[0], fn.xs[-1])


def _seed_call(fn, x):
    out = np.interp(_seed_clip(fn, x), fn.xs, fn.vs)
    return float(out) if out.ndim == 0 else out


def _seed_antiderivative_at(fn, x):
    x = _seed_clip(fn, x)
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(x)
    idx = np.clip(np.searchsorted(fn.xs, x, side="right") - 1, 0, fn.xs.size - 2)
    x0 = fn.xs[idx]
    v0 = fn.vs[idx]
    slope = (fn.vs[idx + 1] - v0) / (fn.xs[idx + 1] - x0)
    d = x - x0
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (fn.vs[1:] + fn.vs[:-1]) * np.diff(fn.xs))))
    out = cum[idx] + v0 * d + 0.5 * slope * d * d
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"integral of the interpolant from {fn.lo:.17g} overflows")
    return float(out[0]) if scalar else out


def _seed_invert(mono, s):
    vs, xs = mono.fn.vs, mono.fn.xs
    slack = SLACK * max(vs[-1] - vs[0], 1.0)
    s = np.asarray(s, dtype=float)
    if np.any(~((s >= vs[0] - slack) & (s <= vs[-1] + slack))):
        raise RangeError(f"inversion target outside range [{vs[0]:.17g}, {vs[-1]:.17g}]")
    out = np.interp(np.clip(s, vs[0], vs[-1]), vs, xs)
    return float(out) if out.ndim == 0 else out


def _interp_fprime(seed, q, up_xs, up_vs):
    return np.where(
        q <= 0.0,
        np.interp(q, seed.minus_xs, seed.minus_vs),
        np.interp(q, up_xs, up_vs) - np.interp(q, seed.plus_xs, seed.plus_vs),
    )


def _masked_fprime(seed, q, up_xs, up_vs):
    """``_seed_slope`` with both masks always applied."""
    q = np.asarray(q, dtype=float)
    neg, out = q <= 0.0, np.empty(q.shape)
    out[neg] = np.interp(q[neg], seed.minus_xs, seed.minus_vs)
    pos = q[~neg]
    out[~neg] = np.interp(pos, up_xs, up_vs) - np.interp(pos, seed.plus_xs, seed.plus_vs)
    return out


def _masked_trace_slope(sol, s):
    """``SolutionRecord.trace_slope`` with both masks always applied."""
    s = np.asarray(s, dtype=float)
    core, ell0 = sol._core, sol.initial.ell0
    seeded, out = s <= ell0, np.empty(s.shape)
    out[seeded] = _masked_fprime(sol.initial.seed_trace, s[seeded], core.up_xs, core.up_vs)
    out[~seeded] = np.interp(s[~seeded], core.s, core.fp)
    return float(out) if out.ndim == 0 else out


def _seed_griffith_speed(fprime_at_trace, kappa_at_front):
    for name, value in (("trace slope", fprime_at_trace), ("toughness", kappa_at_front)):
        finite = np.isfinite(value)
        if not finite.all():
            bad = np.asarray(value)[~finite].flat[0]
            raise FloatingPointError(f"Griffith speed of a non-finite {name}: {bad}")
    if isinstance(kappa_at_front, np.ndarray):
        if np.any(kappa_at_front <= 0.0):
            raise InvalidToughness(f"toughness must be positive, got {np.min(kappa_at_front)}")
    elif kappa_at_front <= 0.0:
        raise InvalidToughness(f"toughness must be positive, got {kappa_at_front}")
    twice_sq = 2.0 * fprime_at_trace * fprime_at_trace
    speed = (twice_sq - kappa_at_front) / (twice_sq + kappa_at_front)
    return np.maximum(speed, 0.0) if isinstance(speed, np.ndarray) else max(speed, 0.0)


# -- comparison -------------------------------------------------------------------

def _outcome(f, *args):
    """``f(*args)``, or the type and message of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            return f(*args)
    except (DomainError, RangeError, OverflowError, FloatingPointError, InvalidToughness) as err:
        return type(err), str(err)


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple):  # an error: same type and message
        assert got == want
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _forms(q):
    """The query array, its 2-D and empty forms, and each element as float, np.float64, 0-d."""
    q = np.asarray(q, dtype=float)
    yield q
    yield q[:0]
    yield q[: q.size // 2 * 2].reshape(2, -1)
    for x in q.tolist():
        yield x
        yield np.float64(x)
        yield np.array(x)


def _tables(seed):
    """Two-node and three-node tables with signed zeros, then seeded random ones."""
    rng = np.random.default_rng(seed)
    yield np.array([0.0, 1.0]), np.array([-0.0, 2.5])
    yield np.array([-0.0, 0.25, 1.0]), np.array([1.0, -0.0, 0.0])
    yield np.array([-3.0, -0.0]), np.array([0.5, -0.0])
    for n in (2, 3, 5, 40, 300):
        xs = np.cumsum(rng.uniform(0.01, 1.0, n)) * 10.0 ** rng.uniform(-3, 3)
        xs -= xs[int(rng.integers(n))]  # a node at 0
        vs = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        vs[int(rng.integers(n))] = -0.0
        yield xs, vs


def _queries(xs, rng, outside=()):
    """Nodes, random points, both ends and their neighbours, the slack, zeros and NaN."""
    lo, hi = xs[0], xs[-1]
    slack = SLACK * max(hi - lo, 1.0)
    edges = [lo, hi, lo - 0.5 * slack, hi + 0.5 * slack, lo - slack, hi + slack,
             np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
             np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf), 0.0, -0.0]
    inner = rng.uniform(lo, hi, 60)
    return np.concatenate([xs, inner, edges, list(outside)])


FAR = (-1e300, 1e300, -np.inf, np.inf, np.nan)


# -- func1d -----------------------------------------------------------------------

@pytest.mark.parametrize("query, oracle", [
    (SampledFunction.__call__, _seed_call),
    (SampledFunction.antiderivative_at, _seed_antiderivative_at),
], ids=["call", "antiderivative_at"])
def test_sampled_function_queries_match_the_clipped_ones(query, oracle):
    rng = np.random.default_rng(12)
    for xs, vs in _tables(2):
        fn = SampledFunction(xs, vs)
        q = _queries(fn.xs, rng)
        rng.shuffle(q)
        for form in _forms(q):
            _assert_same(_outcome(query, fn, form), _outcome(oracle, fn, form))
        # The first point outside names the error, NaN included, in any query form.
        bad = np.concatenate([q[:5], FAR[::-1], q[5:]])
        for form in _forms(bad):
            _assert_same(_outcome(query, fn, form), _outcome(oracle, fn, form))


def test_sampled_function_queries_overflow_like_the_clipped_ones():
    with np.errstate(over="ignore", invalid="ignore"):
        fns = [SampledFunction([0.0, 1.0, 2.0], [1e308, 1e308, -1e308]),
               SampledFunction([0.0, 1.0], [-1e308, 1e308])]
    for fn in fns:
        for x in (0.0, 0.25, 0.5, 1.0, 1.5, np.array([0.5, 1.5]), np.array(1.5)):
            _assert_same(_outcome(fn.antiderivative_at, x), _outcome(_seed_antiderivative_at, fn, x))


def test_monotone_map_invert_matches_the_clipped_one():
    rng = np.random.default_rng(13)
    for xs, vs in _tables(3):
        mono = MonotoneMap(SampledFunction(xs, np.cumsum(np.abs(vs) + 0.1) - 0.1 * xs.size))
        q = _queries(mono.fn.vs, rng)
        rng.shuffle(q)
        for form in _forms(np.concatenate([q, FAR, q])):
            _assert_same(_outcome(mono.invert, form), _outcome(_seed_invert, mono, form))
        for form in _forms(q):
            _assert_same(_outcome(mono.invert, form), _outcome(_seed_invert, mono, form))


def test_domain_and_range_messages():
    fn = SampledFunction([0.0, 1.0], [0.0, 1.0])
    for query in (fn, fn.antiderivative_at):
        with pytest.raises(DomainError) as err:
            query(2.0)
        assert str(err.value) == "evaluation at 2 outside domain [0, 1]"
        with pytest.raises(DomainError) as err:
            query(np.array([0.5, -0.25, np.nan]))
        assert str(err.value) == "evaluation at -0.25 outside domain [0, 1]"
        with pytest.raises(DomainError) as err:
            query(np.array([[0.5], [np.nan]]))
        assert str(err.value) == "evaluation at nan outside domain [0, 1]"
    for s in (1.5, np.array([0.5, 1.5])):
        with pytest.raises(RangeError) as err:
            MonotoneMap(fn).invert(s)
        assert str(err.value) == "inversion target outside range [0, 1]"


# -- forward ----------------------------------------------------------------------

def _seed_data(rng, ell0):
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, ell0, 7)), [ell0]])
    y0 = rng.normal(size=xs.size)
    y0[-1] = 0.0
    y1 = rng.normal(size=xs.size)
    y1[3] = -0.0
    return InitialState(ell0, SampledFunction(xs, y0), SampledFunction(xs, y1)).seed_trace


def test_seed_slope_matches_all_three_lerps_on_every_node():
    rng = np.random.default_rng(14)
    for ell0 in (0.05, 1.0, 3.0):
        seed = _seed_data(rng, ell0)
        up_xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0 * ell0, 30)), [2.0 * ell0]])
        up_vs = rng.normal(size=up_xs.size)
        nodes = np.concatenate([seed.minus_xs, seed.plus_xs, up_xs[up_xs <= ell0]])
        both = np.concatenate([nodes, rng.uniform(-ell0, ell0, 80), [0.0, -0.0, np.nan]])
        rng.shuffle(both)
        # Wholly at or below 0, wholly above, mixed; each in every form, a float included:
        # the one-sided paths give the masked path's bits and type.
        for part in (both, both[both <= 0.0], both[both > 0.0], seed.minus_xs, seed.plus_xs,
                     np.array([0.5 * ell0])):
            for q in _forms(part):
                with np.errstate(invalid="ignore"):
                    got = _seed_slope(seed, q, up_xs, up_vs)
                    _assert_same(got, _interp_fprime(seed, q, up_xs, up_vs))
                    _assert_same(got, _masked_fprime(seed, q, up_xs, up_vs))


def test_one_sided_trace_slope_matches_the_masked_path():
    from debond import ControlSignal, SolverConfig, Toughness, solve_front

    rng = np.random.default_rng(17)
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 7)), [1.0]])
    initial = InitialState(1.0, SampledFunction(grid, np.zeros(grid.size)),
                           SampledFunction(grid, rng.normal(size=grid.size)))
    xs = np.linspace(0.0, 3.0, 13)
    up = rng.normal(size=xs.size)
    u = np.concatenate(([0.0], np.cumsum(0.5 * (up[1:] + up[:-1]) * 0.25)))
    control = ControlSignal(SampledFunction(xs, u), SampledFunction(xs, up))
    sol = solve_front(initial, control, Toughness(0.6), SolverConfig(h=1e-2, T=3.0))
    s = np.concatenate([sol._core.s[::7], rng.uniform(-1.0, 3.0, 60),
                        [-1.0, 0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 3.0]])
    # Wholly above ell0, wholly at or below it (or 0), both, and both with NaN: the public
    # query refuses NaN, the unchecked read behind it takes the masked path's bits.
    for part in (s[s > 1.0], s[s <= 1.0], s[s <= 0.0], s[(s > 0.0) & (s <= 1.0)], s,
                 np.append(s, np.nan)):
        for form in _forms(part):
            with np.errstate(invalid="ignore"):
                _assert_same(sol._slope(form), _masked_trace_slope(sol, form))
                if not np.isnan(form).any():
                    _assert_same(sol.trace_slope(form), _masked_trace_slope(sol, form))
                else:
                    with pytest.raises(DomainError, match=r"^trace query at nan outside"):
                        sol.trace_slope(form)


# -- model ------------------------------------------------------------------------

def test_griffith_speed_matches_the_seed_on_scalars_and_arrays():
    rng = np.random.default_rng(15)
    fp = np.concatenate([rng.normal(scale=3.0, size=200), [0.0, -0.0, 1e154, -1e-300]])
    kappa = np.concatenate([rng.uniform(1e-6, 10.0, 200), [1.0, 2.0, 5e-324, 1e300]])
    cases = [(fp, kappa), (fp, 0.75), (0.75, kappa), (fp, np.float64(2.0)), (fp, np.array(2.0)),
             (np.array(1.5), np.array(0.5)), (fp[:0], kappa[:0]), (fp[:0], 1.0),
             (np.array(1.5), 0.5), (np.float64(-1.5), 0.5), (fp.reshape(2, -1), 5e-324)]
    cases += [(a, b) for a, b in zip(fp[::17].tolist(), kappa[::17].tolist())]
    cases += [(np.float64(a), b) for a, b in zip(fp[::23], kappa[::23].tolist())]
    for a, b in cases:
        _assert_same(_outcome(griffith_speed, a, b), _outcome(_seed_griffith_speed, a, b))
    # A constant toughness passed as a float gives the bits of its np.full array.
    _assert_same(_outcome(griffith_speed, fp, 0.75),
                 _outcome(griffith_speed, fp, np.full(fp.shape, 0.75)))


@pytest.mark.parametrize("fp, kappa, error, message", [
    (1.0, 0.0, InvalidToughness, "toughness must be positive, got 0.0"),
    (1.0, -0.0, InvalidToughness, "toughness must be positive, got -0.0"),
    (1.0, -1.5, InvalidToughness, "toughness must be positive, got -1.5"),
    (1.0, np.float64(-2.5e-7), InvalidToughness, "toughness must be positive, got -2.5e-07"),
    (1.0, np.array(-3.0), InvalidToughness, "toughness must be positive, got -3.0"),
    (np.ones(3), np.array([1.0, -2.0, 0.0]), InvalidToughness,
     "toughness must be positive, got -2.0"),
    (2.0, np.array([0.5, 0.0]), InvalidToughness, "toughness must be positive, got 0.0"),
    (math.nan, 1.0, FloatingPointError, "Griffith speed of a non-finite trace slope: nan"),
    (np.array([0.5, -math.inf]), 1.0, FloatingPointError,
     "Griffith speed of a non-finite trace slope: -inf"),
    (math.inf, -1.0, FloatingPointError, "Griffith speed of a non-finite trace slope: inf"),
    (1.0, math.inf, FloatingPointError, "Griffith speed of a non-finite toughness: inf"),
    (np.ones(2), np.array([1.0, math.nan]), FloatingPointError,
     "Griffith speed of a non-finite toughness: nan"),
    (0.5, math.nan, FloatingPointError, "Griffith speed of a non-finite toughness: nan"),
    (np.ones(2), -math.inf, FloatingPointError, "Griffith speed of a non-finite toughness: -inf"),
    (np.ones(3), -2.0, InvalidToughness, "toughness must be positive, got -2.0"),
    (np.array(1.0), -1e-300, InvalidToughness, "toughness must be positive, got -1e-300"),
])
def test_griffith_speed_messages(fp, kappa, error, message):
    assert _outcome(griffith_speed, fp, kappa) == (error, message)
    assert _outcome(_seed_griffith_speed, fp, kappa) == (error, message)


def test_np_interp_reads_the_right_side_at_a_repeated_abscissa():
    # numpy does not document its read at a repeated abscissa, and a jump stored as two
    # nodes at one abscissa relies on it: the right value there, the left segment's value
    # an ulp below.
    xp, fp = np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 1.0, 5.0, 5.0])
    below = np.nextafter(1.0, 0.0)
    assert np.interp(1.0, xp, fp) == 5.0 and np.interp(below, xp, fp) == below
    assert np.interp(np.array([below, 1.0]), xp, fp).tolist() == [below, 5.0]
