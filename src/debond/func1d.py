"""Piecewise-linear sampled functions on an interval, and monotone map inversion.

All higher modules represent initial data, controls, traces and front curves
with these two types.  Interpolation is piecewise-linear everywhere because the
lowest regularity class handled by the solver (Lipschitz) is represented
exactly by polylines; derivatives are piecewise-constant midpoint slopes,
consistent with functions whose derivative exists only almost everywhere.
``scan`` solves a first-order recurrence over node arrays in vectorized passes,
and ``march`` steps an ODE by Heun or Euler as one ``scan``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

# Relative slack for domain checks: queries within this fraction of the span
# outside the domain are clamped to the endpoint (float noise from composed
# coordinate maps), anything farther out is a hard error.
_DOMAIN_SLACK = 1e-9

# Minimum node spacing relative to the domain span.
_MIN_SPACING = 1e-12


def _first_outside(x, lo, hi):
    """The first of the array ``x`` outside [lo, hi] widened by the slack (NaN is), or None."""
    slack = _DOMAIN_SLACK * max(hi - lo, 1.0)
    if x.size == 0 or (x.min() >= lo - slack and x.max() <= hi + slack):  # NaN fails this
        return None
    return x[~((x >= lo - slack) & (x <= hi + slack))].flat[0]  # the mask: error path only


@dataclass(frozen=True)
class SampledFunction:
    """A real function of one variable given by samples, interpolated linearly.

    ``xs`` must be strictly increasing with at least two nodes; ``vs`` has the
    same length.  Instances are immutable and safe to share across threads.
    A query within the domain slack beyond an end is not clipped: there
    ``np.interp`` returns ``vs[0]`` or ``vs[-1]``, its values at the ends themselves.
    """

    xs: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        xs = np.ascontiguousarray(self.xs, dtype=float)
        vs = np.ascontiguousarray(self.vs, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape:
            raise ValueError("abscissae and values must be 1-D arrays of equal length")
        if xs.size < 2:
            raise ValueError("need at least two samples")
        if not (np.isfinite(xs).all() and np.isfinite(vs).all()):
            raise ValueError("abscissae and values must be finite")
        span = xs[-1] - xs[0]
        if not (span > 0.0 and (xs[1:] - xs[:-1]).min() >= _MIN_SPACING * span):
            raise ValueError("abscissae must increase with spacing >= 1e-12 * span")
        freeze(self, xs=xs, vs=vs)

    @property
    def lo(self) -> float:
        return float(self.xs[0])

    @property
    def hi(self) -> float:
        return float(self.xs[-1])

    def _check(self, x):
        """``x`` as a float array; a DomainError names its first point outside the domain."""
        x = np.asarray(x, dtype=float)
        bad = _first_outside(x, self.xs[0], self.xs[-1])
        if bad is not None:
            raise DomainError(
                f"evaluation at {bad:.17g} outside domain [{self.lo:.17g}, {self.hi:.17g}]"
            )
        return x

    def __call__(self, x):
        out = np.interp(self._check(x), self._xs, self._vs)
        return float(out) if out.ndim == 0 else out

    @functools.cached_property
    def _segments(self):
        """Per segment, cached: left node, its value, exact trapezoid integral to it, slope / 2."""
        xs, vs = self.xs, self.vs
        table = np.stack((xs[:-1], vs[:-1], cumulative_trapezoid(xs, vs)[:-1],
                          0.5 * ((vs[1:] - vs[:-1]) / (xs[1:] - xs[:-1]))))
        table.setflags(write=False)
        return table

    def antiderivative_at(self, x):
        """Exact integral of the interpolant from ``lo`` to ``x``."""
        out = self._integral(self._check(x))
        if not np.isfinite(out).all():
            raise OverflowError(f"integral of the interpolant from {self.lo:.17g} overflows")
        return float(out) if out.ndim == 0 else out

    def _integral(self, x):
        """``antiderivative_at`` unchecked, for a float array x in the domain up to the slack."""
        x = np.minimum(np.maximum(x, self.xs[0]), self.xs[-1])
        # The last node at or below x (the one before it at x = hi): an interior search.
        idx = self.xs[1:-1].searchsorted(x, side="right")
        x0, v0, cum, half_slope = self._segments.take(idx, axis=1)
        d = x - x0
        return cum + v0 * d + half_slope * d * d


def freeze(owner, **arrays):
    """Set each array on ``owner`` as a read-only view under its name, and itself under
    ``_name``: ``np.interp`` copies a read-only table on every call, so the kernels read the
    ``_name`` aliases.  Nothing writes to an array once it is handed to ``freeze``."""
    for name, arr in arrays.items():
        public = arr.view()
        public.setflags(write=False)
        object.__setattr__(owner, name, public)
        object.__setattr__(owner, "_" + name, arr)


def pair_width(T, ell0):
    """Width of a jump pair on [-ell0, T]: two nodes this far apart carry a jump's two sides.

    The front, the trace store and the designed trace all pair their nodes by
    it, so a jump of one lands on the pair of another; nodes keep half of it apart.
    """
    return max(2e-12 * (T + ell0), 1e-13)


def cumulative_trapezoid(xs, vs):
    """Trapezoid-rule integral of the samples from ``xs[0]`` to every node."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * (xs[1:] - xs[:-1]))))


# Nodes one pass of ``scan`` steps at once.  A pass costs a few dozen numpy
# calls plus O(_SCAN_WINDOW) arithmetic, whatever it commits: a wider window
# commits more nodes per pass where the recurrence contracts fast, and wastes
# the arithmetic past the first changed node where it does not.  Of 256 to
# 4096, 1024 solved the round trip's sampled-toughness fronts fastest; on a
# stiff toughness, where a pass commits a few nodes, all were within 8 %.
# Every window gives the same bits.
_SCAN_WINDOW = 1024


def scan(step, start, m):
    """Nodes 0..m of a first-order recurrence, equal bit for bit to stepping node by node.

    ``start`` holds the state components at node 0, floats or bools (an int is
    taken as a float).  ``step(lo, hi, *prev)`` maps the components at nodes
    lo..hi-1 (``prev``; the first is exact) to those at lo+1..hi, and must not
    raise on a guess.  Each pass steps a window of guesses at once (a node no
    pass has stepped yet holds the last stepped node's value); the nodes up to
    the first one that changed have the exact predecessors, so they are
    committed and the next window starts there.  Returns one array per component.
    """
    states = [np.full(m + 1, value, bool if isinstance(value, (bool, np.bool_)) else float)
              for value in start]
    changed = np.empty(min(m, _SCAN_WINDOW) + 1, dtype=bool)  # one mask for every pass
    done = stepped = 0  # nodes up to done are exact, nodes up to stepped hold a step's value
    while done < m:
        hi = min(done + _SCAN_WINDOW, m)
        for state in states:
            state[stepped + 1 : hi + 1] = state[stepped]
        stepped, first = max(stepped, hi), hi - done  # first: the window's first changed node
        for state, new in zip(states, step(done, hi, *(x[done:hi] for x in states))):
            old = state[done + 1 : hi + 1]
            np.not_equal(old[:first], new[:first], out=changed[:first])
            changed[first] = True  # a sentinel: first stays where no node before it changed
            first = int(changed[: first + 1].argmax())
            old[...] = new
        done = min(done + 1 + first, hi)
    return states


def march(d, rate, start, heun):
    """Nodes 0..m of x' = r over the steps ``d`` as one ``scan``, equal bit for bit to the node
    loop x_pred = x + d r, then x += d/2 (r + rate(x_pred)) (heun) or d r (euler), r = rate(x).
    ``start`` holds x, r and any further state at node 0; ``rate(lo, hi, x, *more)`` gives r and
    the further state at nodes lo+1..hi from x there and ``more`` at the nodes before (for the
    corrector, the predictor's).  ``rate`` returns fresh arrays, which the kernel may overwrite,
    and keeps none of its arguments, which lie in buffers every pass reuses.  Returns one array
    per component."""
    buf = np.empty(d.size + 1)  # per pass: x at the node before the window, then the increments
    half, pred = 0.5 * d, np.empty(d.size)  # d/2 and x_pred, for heun

    def step(lo, hi, x, r, *more):
        inc = np.multiply(d[lo:hi], r, out=buf[lo + 1 : hi + 1])
        if heun:
            r_mid, *more = rate(lo, hi, np.add(x, inc, out=pred[lo:hi]), *more)
            np.multiply(half[lo:hi], np.add(r, r_mid, out=r_mid), out=inc)
        buf[lo] = x[0]  # one in-place cumulative sum rounds like x = x + inc node by node
        x = np.add.accumulate(buf[lo : hi + 1], out=buf[lo : hi + 1])[1:]
        return (x, *rate(lo, hi, x, *more))

    return scan(step, start, d.size)


def union(*grids):
    """``np.union1d`` of finite grids, in O(n) when each is sorted (a stable sort merges
    sorted runs).  Of equal values, 0.0 and -0.0, the first in argument order is kept."""
    x = np.sort(np.concatenate(grids), kind="stable")
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def sides(mask, on_true, on_false):
    """One float array: ``on_true(i)`` where ``mask`` holds, then ``on_false(i)`` elsewhere.
    A side that holds every point gets ``i = ...``, so the arrays it indexes keep their
    shape (0-d too); otherwise ``i`` is a boolean mask."""
    k = np.count_nonzero(mask)
    if k == mask.size:
        return np.asarray(on_true(...))
    if k == 0:
        return np.asarray(on_false(...))
    out, rest = np.empty(mask.shape), ~mask
    out[mask] = on_true(mask)
    out[rest] = on_false(rest)
    return out


def merged_eval(fn_a: SampledFunction, fn_b: SampledFunction, combine):
    """Sample ``combine(a, b)`` on the union grid of two functions.  Of nodes closer than
    the spacing ``SampledFunction`` requires (1e-12 of the span), the first is kept."""
    grid = union(fn_a.xs, fn_b.xs)
    apart = grid[1:] - grid[:-1] >= _MIN_SPACING * (grid[-1] - grid[0])
    grid = grid[np.concatenate(([True], apart))]
    return grid, combine(fn_a(grid), fn_b(grid))


def definite_integral(fn: SampledFunction, a: float, b: float) -> float:
    """Exact trapezoid integral of the interpolant; antisymmetric in (a, b)."""
    out = fn.antiderivative_at(b) - fn.antiderivative_at(a)
    if not np.isfinite(out).all():
        raise OverflowError(f"integral of the interpolant from {a!r} to {b!r} overflows")
    return out


def derivative(fn: SampledFunction) -> SampledFunction:
    """Piecewise-constant segment slopes placed at segment midpoints.

    Endpoint slopes are extended to the domain ends, so the result lives on
    the same interval as ``fn``.  For a C1 input sampled at spacing h the
    pointwise error is O(h).
    """
    xs, vs = fn.xs, fn.vs
    slopes = (vs[1:] - vs[:-1]) / (xs[1:] - xs[:-1])
    if xs.size == 2:
        return SampledFunction(xs, np.array([slopes[0], slopes[0]]))
    mids = 0.5 * (xs[:-1] + xs[1:])
    dx = np.concatenate(([xs[0]], mids, [xs[-1]]))
    dv = np.concatenate(([slopes[0]], slopes, [slopes[-1]]))
    return SampledFunction(dx, dv)


def constant(value: float, lo: float, hi: float) -> SampledFunction:
    return SampledFunction(np.array([lo, hi]), np.array([value, value]))


@dataclass(frozen=True)
class MonotoneMap:
    """A strictly increasing sampled function with exact segment-wise inversion.

    Forward evaluation is plain interpolation; ``invert`` bisects to the
    bracketing segment (binary search on the value array) and solves the
    linear segment exactly, so the forward/inverse round trip is the identity
    up to 1e-10 times the range span.
    """

    fn: SampledFunction

    def __post_init__(self):
        if not (self.fn.vs[1:] - self.fn.vs[:-1]).min() > 0.0:
            raise ValueError("values must be strictly increasing")

    def __call__(self, t):
        return self.fn(t)

    def invert(self, s):
        vs, xs = self.fn._vs, self.fn._xs
        s = np.asarray(s, dtype=float)
        if _first_outside(s, vs[0], vs[-1]) is not None:
            raise RangeError(f"inversion target outside range [{vs[0]:.17g}, {vs[-1]:.17g}]")
        out = np.interp(s, vs, xs)  # unclipped, as in SampledFunction.__call__
        return float(out) if out.ndim == 0 else out
