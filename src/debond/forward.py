"""Forward solver for the coupled front/trace system, in the trace coordinate s = t - ell.

With ell~(s) = ell(t) and g = d ell~/ds, the Griffith law and the boundary
reflection of the trace slope f' (given by the data and the control on
[-ell0, ell0]) read

    g(s) = max(f'(s)^2 / kappa(ell~(s)) - 1/2, 0),      ell'(t) = g / (1 + g),
    f'(s) = u'(s) + f'(sigma) / (1 + 2 g(sigma)),      sigma + 2 ell~(sigma) = s.

As sigma <= a on the echo block (a, a + 2 ell~(a)], a block is one vectorized
pass: interpolate earlier nodes in sigma + 2 ell~(sigma), then integrate g
(heun: trapezoid rule, euler: left-point rule; under a non-constant toughness g
depends on ell~, and the block is one ``func1d.march``, the kernel the backward
branch steps with too).  Its nodes are a grid of spacing at most h and the
tracked jumps of f', each a pair of nodes with one-sided values: the seed kink
at s = 0 and the switch to reflection at s = ell0 (when their sides differ), u'
abscissae closer than 1e-6 max(T, 1) with different values, and the images of
tracked pairs.  No step straddles a jump, and t increases with s whatever h is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HorizonExceeded, IncompatibleData, SpeedOutOfRange
from .func1d import SampledFunction, _first_outside, definite_integral, march, pair_width, sides
from .model import (
    ControlSignal,
    FrontCurve,
    InitialBranchResult,
    InitialState,
    Toughness,
    griffith_speed,
)

_SCHEMES = ("euler", "heun")

# Consecutive u' abscissae closer than this times max(T, 1), with different
# values, are a jump of the control rate.
_JUMP_SPAN = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Step, horizon and scheme for the forward solve."""

    h: float
    T: float
    scheme: str = "heun"

    def __post_init__(self):
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"time step must be positive and finite, got {self.h}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.T}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")


def _seed_slope(seed, q, up_xs, up_vs):
    """Trace slope on an array q <= ell0: the ``SeedTrace``, and the control u' on (0, ell0]."""
    q = np.asarray(q, dtype=float)  # NaN reads the control side
    return sides(q <= 0.0, lambda i: np.interp(q[i], seed.minus_xs, seed.minus_vs),
                 lambda i: np.interp(q[i], up_xs, up_vs)
                 - np.interp(q[i], seed.plus_xs, seed.plus_vs))


def _overflow_at(fp, ell, g):
    """Index of a block's first g where f'^2 / kappa overflows (f' not NaN), or the block's size:
    ell~ is inf or NaN once any g is, so only the last node is read when none does."""
    i = g.size if ell[-1] < math.inf and g[-1] < math.inf else int(np.argmax(~(g < math.inf)))
    return g.size if i < g.size and math.isnan(fp[i]) else i


_FIELDS = ("s", "t", "ell", "g", "v", "fp", "tracked")


class _Core:
    """Front and trace slope on s in [-ell0, s_end], solved one echo block at a time.

    The node arrays ``_FIELDS`` (``v`` is ell'(t), ``fp`` is f'(s)) are filled in
    place up to ``n``, one block by ``_add`` at a time: a constant toughness
    integrates g in closed form, a sampled one through ``_march``.  At front nodes
    (t < T) ``s`` is t - ell recomputed from the stored t and ell, so the foot
    recomputed from the front reads back its slope.
    """

    def __init__(self, initial, kappa, cfg, up_xs, up_vs, s_end):
        self.initial, self.kappa, self.cfg = initial, kappa, cfg
        self.up_xs, self.up_vs = up_xs, up_vs
        self.eps = pair_width(cfg.T, initial.ell0)
        close = (up_xs[1:] - up_xs[:-1] < _JUMP_SPAN * max(cfg.T, 1.0)) & (up_vs[1:] != up_vs[:-1])
        close = np.concatenate(([False], close, [False]))  # both nodes of a close pair are jumps
        self.up_jumps = up_xs[close[1:] | close[:-1]]
        size = int((s_end + initial.ell0) / cfg.h) + 4 * self.up_jumps.size + 64
        for name in _FIELDS:
            setattr(self, name, np.empty(size, dtype=bool if name == "tracked" else float))
        self.n = 0
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing g is refused in _add
            self._solve(s_end)
        for name in _FIELDS:
            setattr(self, name, getattr(self, name)[: self.n])

    def _solve(self, s_end):
        ell0, eps, seed = self.initial.ell0, self.eps, self.initial.seed_trace
        self._block(-ell0, min(0.0, s_end), np.empty(0), reflect=False)
        if s_end <= 0.0:
            return
        # The seed kink at s = 0: data on the left, data and control on the right.
        right = np.interp(0.0, self.up_xs, self.up_vs) - np.interp(0.0, seed.plus_xs, seed.plus_vs)
        self.tracked[self.n - 1] = kink = right != self.fp[self.n - 1]
        self._block(0.0, min(ell0, s_end), np.array([eps] if kink else []), reflect=False)

        prev = 0  # first node of the block before the current one
        while self.s[self.n - 1] < s_end - 0.5 * eps:
            n = self.n
            a = self.s[n - 1]
            b = min(a + 2.0 * self.ell[n - 1], s_end)
            # Images of the previous block's tracked nodes all land in (a, a + 2 ell~(a)].
            images = (self.s[prev:n] + 2.0 * self.ell[prev:n])[self.tracked[prev:n]]
            if prev == 0 and self.fp[n - 1] != (
                np.interp(a, self.up_xs, self.up_vs) + self.fp[0] / (1.0 + 2.0 * self.g[0])
            ):  # past ell0 the slope switches from the data to the reflection of s = -ell0
                images = np.concatenate((images, (a + eps, a + 2.0 * self.ell[n - 1])))
            prev = n
            self._block(a, b, images[images <= b], reflect=True)

    def _block(self, a, b, jumps, reflect):
        """Solve on (a, b]: the uniform grid, the u' jumps and the tracked ``jumps`` as a stable
        sort of (jumps, grid) orders them; a node within eps / 2 of the one before it (or of a)
        merges into it, tracked if either was.  An empty store's first block starts at s = a."""
        m = max(math.ceil((b - a) / self.cfg.h - 1e-9), 1)
        head = 1 if self.n else 0
        # np.linspace(a, b, m + 1)[head:], between the node before it (none: -inf) and +inf
        grid = np.arange(head - 1, m + 2.0) * ((b - a) / m) + a
        grid[0], grid[-2], grid[-1] = a if head else -math.inf, b, math.inf
        q, tracked, half = grid[1:-1], False, 0.5 * self.eps
        lo, hi = self.up_jumps.searchsorted((a, b), side="right")
        if jumps.size or hi > lo:  # the jumps go in by searchsorted: the block is not sorted
            jumps = np.sort(np.concatenate((jumps, self.up_jumps[lo:hi])), kind="stable")
            jumps = jumps[np.concatenate(([True], jumps[1:] != jumps[:-1]))]  # repeats merge
            at = q.searchsorted(jumps)  # each goes before the grid nodes at or after it
            on = q.take(at, mode="clip") == jumps
            hit, off = at[on], ~on
            q[hit] = jumps[on]  # a jump at a grid node is that node, with the jump's sign of zero
            x, p = jumps[off], at[off]
            spots = p + np.arange(x.size)
            q, tracked = np.empty(q.size + x.size), np.zeros(q.size + x.size, dtype=bool)
            q[spots], tracked[spots] = x, True
            q[~tracked] = grid[1:-1]
            tracked[hit + p.searchsorted(hit, side="right")] = True
            # Grid nodes lie a step apart: only an inserted jump can lie near a neighbour.
            if not ((b - a) / m > self.eps and (x[1:] - x[:-1]).min(initial=math.inf) > half
                    and np.minimum(x - grid[p], grid[p + 1] - x).min(initial=math.inf) > half):
                first = np.flatnonzero(q - np.concatenate((grid[:1], q[:-1])) > half)
                q, tracked = q[first], np.logical_or.reduceat(tracked, first)
        fp = (self._reflect(q, a) if reflect
              else _seed_slope(self.initial.seed_trace, q, self.up_xs, self.up_vs))
        self._add(q, fp, tracked, reflect)

    def _reflect(self, q, a):
        """f' on the block after a, reflected from the nodes in [a - 2 ell~(a), a]."""
        n = self.n
        lo = max(int(self.s[:n].searchsorted(a - 2.0 * self.ell[n - 1], side="right")) - 1, 0)
        image = self.s[lo:n] + 2.0 * self.ell[lo:n]
        echo = np.interp(q, image, self.fp[lo:n])
        g_echo = np.interp(q, image, self.g[lo:n])
        return np.interp(q, self.up_xs, self.up_vs) + echo / (1.0 + 2.0 * g_echo)

    def _add(self, q, fp, tracked, reflected):
        """Integrate ell~ over the new nodes q from the last stored node, in the store.

        The store grows first, then each field is computed in its slice.  Under a
        constant kappa the ell slice holds the steps and t the increments, summed in
        the order of l0 + cumulative_trapezoid (heun) or the left-point sum (euler).
        """
        n, m = self.n, q.size
        end = n + m
        if end > self.s.size:
            for name in _FIELDS:
                setattr(self, name, np.resize(getattr(self, name), 2 * end))
        if n:
            s0, l0, g0 = self.s[n - 1], self.ell[n - 1], self.g[n - 1]
        else:
            s0, l0, g0 = q[0], self.initial.ell0, 0.0
        s, t, ell, g = self.s[n:end], self.t[n:end], self.ell[n:end], self.g[n:end]
        self.tracked[n:end] = tracked
        kappa, T = self.kappa, self.cfg.T
        if kappa.is_constant:
            np.maximum(fp * fp / kappa.kappa - 0.5, 0.0, out=g)
            ell[0] = q[0] - s0
            np.subtract(q[1:], q[:-1], out=ell[1:])
            if self.cfg.scheme == "heun":
                t[0] = g[0] + g0
                np.add(g[1:], g[:-1], out=t[1:])
                t *= 0.5
                t *= ell
            else:
                t[0], t[1:] = ell[0] * g0, ell[1:] * g[:-1]
            np.add(np.cumsum(t, out=ell), l0, out=ell)
        else:
            ell[:], g[:] = self._march(q, fp, s0, l0, g0)
        if (i := _overflow_at(fp, ell, g)) < m:  # the speed rounds to 1
            x = ell[i - 1] if i else l0
            raise SpeedOutOfRange(
                f"front speed rounds to 1 at t = {min(q[i] + x, T):.6g}: trace slope "
                f"{fp[i]:.6g}, toughness {kappa.held(min(x, T - q[i])):.6g}")
        np.add(q, ell, out=t)
        np.subtract(t, ell, out=s)
        np.copyto(s, q, where=~(t < T))
        self.fp[n:end] = fp
        if not reflected:
            # Up to ell0 trace_slope evaluates the data formula: take it at the stored
            # abscissae that moved off the grid, which may sit inside a u' jump pair.
            moved = np.flatnonzero(s != q)
            if moved.size:
                self.fp[n + moved] = _seed_slope(self.initial.seed_trace, s[moved],
                                                 self.up_xs, self.up_vs)
            fp = self.fp[n:end]
        # a sampled kappa's arguments are the ones _march has checked
        kap = kappa.kappa if kappa.is_constant else kappa.held(np.minimum(ell, T - q))
        self.v[n:end] = griffith_speed(fp, kap)
        self.n = end

    def _march(self, q, fp, s0, l0, g0):
        """ell~ and g when g depends on ell~ through kappa, by ``func1d.march``.  kappa is
        read at min(ell, T - s), which past the first node with t >= T (no reflection
        source for s <= T) keeps its arguments inside [0, ell(T)].  Guesses read kappa
        held to its samples; a DomainError names the first argument of the solution, in
        node order, outside them.
        """
        kappa, heun = self.kappa, self.cfg.scheme == "heun"
        d, f2, top = q - np.concatenate(([s0], q[:-1])), fp * fp, self.cfg.T - q

        def rate(lo, hi, ell):
            return (np.maximum(f2[lo:hi] / kappa.held(np.minimum(ell, top[lo:hi])) - 0.5, 0.0),)

        # Below the threshold at every node the front rests whatever ell~ is: g = +0.0.
        # np.interp may read kappa a few ulps of its largest sample below the least one,
        # hence the floor; a NaN slope fails the test and raises below.
        kvs = kappa.kappa.vs
        if g0 == 0.0 and (f2 <= 0.5 * (kvs.min() - 1e-15 * kvs.max())).all():
            ell, g = np.full(q.size + 1, l0), np.zeros(q.size + 1)
        else:
            ell, g = march(d, rate, (l0, g0), heun)
        # kappa's arguments in the order of the node-by-node march, up to a g that overflows
        k = _overflow_at(fp, ell[1:], g[1:])
        args = [np.minimum(ell[:k] + d[:k] * g[:k], top[:k])] if heun else []
        kappa.check(*args, np.minimum(ell[1 : k + 1], top[:k]))
        return ell[1:], g[1:]


class SolutionRecord:
    """A complete forward trajectory: front, trace, control and data.

    Displacement and its derivatives are reconstructed on demand from the
    stored front and trace; instances are immutable after construction and
    safe for concurrent reads.
    """

    def __init__(self, core: _Core, control: ControlSignal):
        self.initial = core.initial
        self.toughness = core.kappa
        self.control = control
        self.config = cfg = core.cfg
        self._core = core  # its trace runs up to s = T, which reconstruction at T reads
        self._u0 = control.u(0.0)
        # The front ends with one partial step of the scheme, in t, to t = T.  From a tracked
        # node k with T more than a step at k's rate away, the step crosses the jump of g to
        # node k + 1, past T, and leaves at that right-side speed.
        T = cfg.T
        k = max(int(core.t.searchsorted(T - core.eps)) - 1, 0)
        j = k + 1 if core.tracked[k] and T - core.t[k] > cfg.h * (1.0 + core.g[k]) else k
        t_k, ell_k, v_j = float(core.t[k]), float(core.ell[k]), float(core.v[j])
        ell_T = ell_k + (T - t_k) * v_j
        if cfg.scheme == "heun":
            ell_T = ell_k + 0.5 * (T - t_k) * (v_j + self._speed(T - ell_T, ell_T))
        nodes = np.empty((3, k + 2))  # times, positions and speeds, each a contiguous row
        nodes[:, : k + 1] = core.t[: k + 1], core.ell[: k + 1], core.v[: k + 1]
        nodes[:, k + 1] = T, ell_T, self._speed(T - ell_T, ell_T)
        if not max(nodes[2].max(), v_j) < 1.0:  # a speed rounds to 1: name the first in time
            bad = np.flatnonzero(~(core.v[: k + 1] < 1.0))
            i = bad[0] if bad.size else j  # node j's speed leaves t_k; kappa read as the core did
            t, fp, x = core.t[min(i, k)], core.fp[i], min(core.ell[i], T - core.s[i])
            if core.v[i] < 1.0:  # only the speed at T
                t, fp, x = T, self._slope(T - ell_T), ell_T
            raise SpeedOutOfRange(f"front speed rounds to 1 at t = {t:.6g}: trace slope "
                                  f"{fp:.6g}, toughness {self.toughness(x):.6g}")
        self.front = FrontCurve(*nodes)

    def _speed(self, s, ell):
        return griffith_speed(self._slope(s), self.toughness(ell))

    # -- trace queries ------------------------------------------------------

    def _query(self, s):
        """s as a float array; a DomainError names its first point outside [-ell0, T].  Past
        this check, and in reconstruction, every table read lies in its domain by construction."""
        s, lo, hi = np.asarray(s, dtype=float), -self.initial.ell0, self.config.T
        if (bad := _first_outside(s, lo, hi)) is not None:
            raise DomainError(f"trace query at {bad:.17g} outside [{lo:.17g}, {hi:.17g}]")
        return s

    def trace_slope(self, s):
        """f'(s) on [-ell0, T]: exact data formulas below ell0, the solver's nodes above.
        A float gives a float, an array an array of the same shape."""
        return self._slope(self._query(s))

    def _slope(self, s):
        s, core = np.asarray(s, dtype=float), self._core
        out = sides(s <= self.initial.ell0,
                    lambda i: _seed_slope(self.initial.seed_trace, s[i], core.up_xs, core.up_vs),
                    lambda i: np.interp(s[i], core.s, core.fp))
        return float(out) if out.ndim == 0 else out

    def trace_value(self, s):
        """f(s) on [-ell0, T], with f(0) = 0, by the trace relation f(s) = u(s) + f(echo(s)).

        A float gives a float, an array an array of the same shape.  Each
        point walks its echo chain down to [-ell0, ell0] once, adding u into a
        sum that starts at -0.0 (so a point reflected at most once keeps the
        bits of u + f(echo)), then the data formula at the end of the chain:
        neither the recursion limit nor memory depends on the depth.
        """
        f = self._value(np.array(self._query(s)).ravel()).reshape(np.shape(s))
        return float(f) if f.ndim == 0 else f

    def _value(self, q):
        """``trace_value`` on a 1-D array q, which the walk overwrites."""
        init, u, front = self.initial, self.control.u, self.front
        f = np.full(q.shape, -0.0)
        active = np.flatnonzero(q > init.ell0)
        while active.size:  # echo(s) = s - 2 ell(tau_plus^-1(s))
            walk = q[active]
            f[active] += np.interp(walk, u.xs, u.vs)
            foot = np.interp(walk, front.tau_plus.fn.vs, front.times)
            q[active] = walk = walk - 2.0 * np.interp(foot, front.times, front.positions)
            active = active[walk > init.ell0]
        # The data's polylines start at 0 (up to the domain slack): an antiderivative is
        # the integral from 0.  f(s <= 0) = -integral_0^{-s} of the seed slope (y1 - y0')/2.
        def data(i):
            mid = q[i]
            half = 0.5 * (init.y0_prime._integral(mid) + init.y1._integral(mid))
            return np.interp(mid, u.xs, u.vs) - self._u0 - half

        return f + sides(q <= 0.0, lambda i: -init.seed_trace.incoming._integral(-q[i]), data)

    def trace_function(self) -> SampledFunction:
        """The trace slope on [-ell0, T] as one sampled function on the solver's nodes,
        whose slopes the core stores (``trace_slope`` reads the same bits there)."""
        return SampledFunction(self._core.s, self._core.fp)

    # -- reconstruction -----------------------------------------------------

    def reconstruct(self, t: float, x_grid):
        """Displacement and its time/space derivatives at time t on a grid.

        Inside the data cone (t + x < ell0) the classical d'Alembert formula
        applies; outside it everything is expressed through the trace and the
        characteristic maps.  Every x must satisfy 0 <= x <= ell(t).
        """
        t = float(t)
        if not -1e-12 <= t <= self.config.T + 1e-12:
            raise DomainError(f"time {t:g} outside [0, {self.config.T:g}]")
        ell_t = self.front.ell(t)
        x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
        lo, hi = -1e-12, ell_t * (1 + 1e-12) + 1e-12
        if x_grid.size and not (x_grid.min() >= lo and x_grid.max() <= hi):  # NaN fails
            bad = x_grid[~((x_grid >= lo) & (x_grid <= hi))].flat[0]
            raise DomainError(f"reconstruction point {bad:.17g} outside [0, ell({t:.17g})] = "
                              f"[0, {ell_t:.17g}]")
        x = np.minimum(x_grid, ell_t)
        fp_back = self._slope(t - x)
        # y, and the slope a of the wave along t + x: y_t = f'(t - x) + a, y_x = -f'(t - x) + a
        outside = t + x >= self.initial.ell0 * (1.0 - 1e-14)
        if outside.all():  # the common case: no boolean gathers or scatters
            y, a = self._beyond_cone(t, x)
        else:
            y, a = np.empty((2,) + x.shape)
            y[outside], a[outside] = self._beyond_cone(t, x[outside])
            y[~outside], a[~outside] = self._in_cone(t, x[~outside])
        return y, fp_back + a, -fp_back + a

    def _beyond_cone(self, t, x):
        """y and a outside the data cone, from the trace and the characteristic maps."""
        front, s = self.front, t + x  # in tau_plus's range: its inverse reads the table
        foot = np.interp(s, front.tau_plus.fn.vs, front.times)
        v = np.interp(foot, front.times, front.speeds)
        echo = s - 2.0 * np.interp(foot, front.times, front.positions)
        f = self._value(np.concatenate((t - x, echo)))  # one walk for both feet
        return f[: x.size] - f[x.size :], -self._slope(echo) * ((1.0 - v) / (1.0 + v))

    def _in_cone(self, t, x):
        """y and a inside the data cone: d'Alembert from the initial data, plus the
        control once the backward characteristic reaches the boundary (t > x)."""
        init, y = self.initial, np.empty_like(x)
        early, late = t <= x, t > x
        xe, xl = x[early], x[late]
        y[early] = 0.5 * (init.y0(xe + t) + init.y0(xe - t)
                          + definite_integral(init.y1, xe - t, xe + t))
        y[late] = self.control.u(t - xl) + 0.5 * (definite_integral(init.y0_prime, t - xl, t + xl)
                                                  + definite_integral(init.y1, t - xl, t + xl))
        return y, 0.5 * (init.y0_prime(t + x) + init.y1(t + x))

    def griffith_residuals(self) -> np.ndarray:
        """Per-node gap between stored speeds and the Griffith value.

        Each front node but the last is a core node, whose foot t - ell is its stored
        s, so its slope is read from the store; the last, at t = T, is queried."""
        f, kappa, k = self.front, self.toughness, self.front.times.size - 1
        fp = np.append(self._core.fp[:k], self._slope(f.times[k] - f.positions[k]))
        kap = kappa.kappa if kappa.is_constant else kappa(f.positions)  # a float: np.full's bits
        return np.abs(f.speeds - griffith_speed(fp, kap))


def solve_front(
    initial: InitialState,
    control: ControlSignal,
    kappa: Toughness,
    cfg: SolverConfig,
) -> SolutionRecord:
    """Solve the coupled front/trace system from 0 to T under the control."""
    if control.u.lo > cfg.T * 1e-12:
        raise DomainError(f"control defined from {control.u.lo:g} but the solve starts at 0")
    if control.t_end < cfg.T * (1 - 1e-12):
        raise DomainError(f"control defined up to {control.t_end:g} but horizon is {cfg.T:g}")
    if abs(initial.y0(0.0) - control.u(0.0)) > 1e-6:
        raise IncompatibleData(f"control endpoint u(0) = {control.u(0.0):g} does not match "
                               f"y0(0) = {initial.y0(0.0):g}")
    core = _Core(initial, kappa, cfg, control.uprime.xs, control.uprime.vs, cfg.T)
    return SolutionRecord(core, control)


def solve_initial_branch(
    initial: InitialState,
    kappa: Toughness,
    cfg: SolverConfig,
) -> InitialBranchResult:
    """Front portion determined by the initial data alone (no control needed).

    Solves for s = t - ell on [-ell0, 0]: the branch ends at the node s = 0,
    where t_star = ell_star, with the left-limit speed.
    """
    core = _Core(initial, kappa, cfg, np.array([0.0, cfg.T]), np.zeros(2), 0.0)
    t_star = float(core.t[-1])
    if t_star > cfg.T:
        raise HorizonExceeded(f"initial branch did not close within the horizon T = {cfg.T:g}")
    return InitialBranchResult(
        t_star=t_star,
        ell_star=float(core.ell[-1]),
        ell_star_prime=float(core.v[-1]),
        front=FrontCurve(core.t, core.ell, core.v),
        slope_authoritative=(initial.regularity == "C1"),
    )

