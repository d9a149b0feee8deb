"""Forward solver for the coupled front/trace system, in the trace coordinate s = t - ell.

With ell~(s) = ell(t) and g = d ell~/ds, the Griffith law and the boundary
reflection of the trace slope f' (given by the data and the control on
[-ell0, ell0]) read

    g(s) = max(f'(s)^2 / kappa(ell~(s)) - 1/2, 0),      ell'(t) = g / (1 + g),
    f'(s) = u'(s) + f'(sigma) / (1 + 2 g(sigma)),      sigma + 2 ell~(sigma) = s.

As sigma <= a on the echo block (a, a + 2 ell~(a)], a block is one vectorized
pass: interpolate earlier nodes in sigma + 2 ell~(sigma), then integrate g
(heun: trapezoid rule, euler: left-point rule; under a non-constant toughness g
depends on ell~, and the predictor-corrector recurrence is one ``scan``, equal
bit for bit to the loop over the nodes).  Its nodes are a grid of spacing at
most h and the tracked jumps of f', each a pair of nodes with one-sided
values: the seed kink at s = 0 and the switch to reflection at s = ell0 (when
their sides differ), u' abscissae closer than 1e-6 max(T, 1) with different
values, and the images of tracked pairs.  No step straddles a jump, and t
increases with s whatever h is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HorizonExceeded, IncompatibleData
from .func1d import SampledFunction, definite_integral, pair_width, scan, sides
from .model import (
    SPEED_CAP,
    ControlSignal,
    FrontCurve,
    InitialBranchResult,
    InitialState,
    Toughness,
    griffith_speed,
)

_SCHEMES = ("euler", "heun")

# g = ell' / (1 - ell') at the stored speed cap.
_G_CAP = SPEED_CAP / (1.0 - SPEED_CAP)

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
        self.up_jumps = up_xs[np.append(close, False) | np.insert(close, 0, False)]
        size = int((s_end + initial.ell0) / cfg.h) + 4 * self.up_jumps.size + 64
        for name in _FIELDS:
            setattr(self, name, np.empty(size, dtype=bool if name == "tracked" else float))
        self.n = 0
        self._solve(s_end)
        for name in _FIELDS:
            setattr(self, name, getattr(self, name)[: self.n])

    def _solve(self, s_end):
        ell0, eps, seed = self.initial.ell0, self.eps, self.initial.seed_trace
        start = np.array([-ell0])
        self._add(start, _seed_slope(seed, start, self.up_xs, self.up_vs), np.zeros(1, bool),
                  False)
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
                images = np.append(images, (a + eps, a + 2.0 * self.ell[n - 1]))
            prev = n
            self._block(a, b, images[images <= b], reflect=True)

    def _block(self, a, b, jumps, reflect):
        """Solve on (a, b]: the uniform grid plus the u' jumps and the tracked ``jumps``."""
        m = max(math.ceil((b - a) / self.cfg.h - 1e-9), 1)
        q = np.linspace(a, b, m + 1)[1:]
        tracked = False
        lo, hi = np.searchsorted(self.up_jumps, (a, b), side="right")
        if jumps.size or hi > lo:
            jumps = np.concatenate((jumps, self.up_jumps[lo:hi]))
            q = np.concatenate((jumps, q))
            tracked = np.arange(q.size) < jumps.size
            order = np.argsort(q, kind="stable")
            q, tracked = q[order], tracked[order]
            # Nodes closer than eps / 2 merge into the first; a merged jump stays tracked.
            first = np.flatnonzero(q - np.concatenate(([a], q[:-1])) > 0.5 * self.eps)
            q, tracked = q[first], np.logical_or.reduceat(tracked, first)
        fp = (self._reflect(q, a) if reflect
              else _seed_slope(self.initial.seed_trace, q, self.up_xs, self.up_vs))
        self._add(q, fp, tracked, reflect)

    def _reflect(self, q, a):
        """f' on the block after a, reflected from the nodes in [a - 2 ell~(a), a]."""
        n = self.n
        lo = max(int(np.searchsorted(self.s[:n], a - 2.0 * self.ell[n - 1], side="right")) - 1, 0)
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
        s, t, ell, g = (getattr(self, name)[n:end] for name in _FIELDS[:4])
        self.tracked[n:end] = tracked
        kappa, T = self.kappa, self.cfg.T
        if kappa.is_constant:
            np.minimum(np.maximum(fp * fp / kappa.kappa - 0.5, 0.0), _G_CAP, out=g)
            ell[0], ell[1:] = q[0] - s0, q[1:] - q[:-1]
            if self.cfg.scheme == "heun":
                t[0], t[1:] = g[0] + g0, g[1:] + g[:-1]
                t *= 0.5
                t *= ell
            else:
                t[0], t[1:] = ell[0] * g0, ell[1:] * g[:-1]
            np.add(np.cumsum(t, out=ell), l0, out=ell)
        else:
            ell[:], g[:] = self._march(q, fp, s0, l0, g0)
        np.add(q, ell, out=t)
        np.subtract(t, ell, out=s)
        np.copyto(s, q, where=~(t < T))
        if not reflected:
            # Up to ell0 trace_slope evaluates the data formula: take it at the
            # stored abscissae, which may sit inside a u' jump pair.
            fp = _seed_slope(self.initial.seed_trace, s, self.up_xs, self.up_vs)
        self.fp[n:end] = fp
        kap = kappa.kappa if kappa.is_constant else kappa(np.minimum(ell, T - q))
        np.minimum(griffith_speed(fp, kap), SPEED_CAP, out=self.v[n:end])
        self.n = end

    def _march(self, q, fp, s0, l0, g0):
        """ell~ and g when g depends on ell~ through kappa: Euler, or an Euler predictor
        for kappa's argument and the trapezoid rule, solved by ``scan``.  After the first
        node with t >= T the front is held, as no such node is a reflection source for
        s <= T; kappa is read at min(ell, T - s), which keeps that first node inside
        [0, ell(T)].  Guesses read kappa held to its samples; a DomainError names the
        first argument of the solution, in node order, outside them.
        """
        kappa, heun = self.kappa, self.cfg.scheme == "heun"
        d, f2, top = q - np.concatenate(([s0], q[:-1])), fp * fp, self.cfg.T - q
        reach, half = top + d, 0.5 * d
        # Per pass, ell at the node before the window, then the increments: one
        # in-place cumsum rounds like ell = ell + inc node by node.
        buf = np.empty(q.size + 1)

        def rate(x, f2):  # g at nodes of squared slope f2, kappa read at x held to its samples
            return np.minimum(np.maximum(f2 / kappa.held(x) - 0.5, 0.0), _G_CAP)

        def step(lo, hi, ell, g):
            top_, f2_, stop = top[lo:hi], f2[lo:hi], ~(ell < reach[lo:hi])
            inc = np.multiply(d[lo:hi], g, out=buf[lo + 1 : hi + 1])
            if heun:
                np.multiply(half[lo:hi], g + rate(np.minimum(ell + inc, top_), f2_), out=inc)
            inc[stop] = 0.0  # the previous node lies at or past the horizon: hold
            buf[lo] = ell[0]
            ell = np.cumsum(buf[lo : hi + 1], out=buf[lo : hi + 1])[1:]
            g = rate(np.minimum(ell, top_), f2_)
            g[stop] = 0.0
            return ell, g

        # Below the threshold at every node the front rests whatever ell~ is: g = +0.0.
        # np.interp may read kappa a few ulps of its largest sample below the least one,
        # hence the floor; a NaN slope fails the test and raises below.
        kvs = kappa.kappa.vs
        if g0 == 0.0 and (f2 <= 0.5 * (kvs.min() - 1e-15 * kvs.max())).all():
            ell, g = np.full(q.size + 1, l0), np.zeros(q.size + 1)
        else:
            ell, g = scan(step, (l0, g0), q.size)
        # kappa's arguments in the order of the node-by-node march
        run = ell[:-1] < reach
        args = [np.minimum(ell[:-1] + d * g[:-1], top)] if heun else []
        args.append(np.minimum(ell[1:], top))
        kappa.check(*(a[run] for a in args))
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
        # The front ends with one partial step of the scheme, in t, to t = T.
        T = cfg.T
        k = max(int(np.searchsorted(core.t, T - core.eps)) - 1, 0)
        dt = T - core.t[k]
        ell_T = core.ell[k] + dt * core.v[k]
        if cfg.scheme == "heun":
            ell_T = core.ell[k] + 0.5 * dt * (core.v[k] + self._speed(T - ell_T, ell_T))
        self.front = FrontCurve(
            np.append(core.t[: k + 1], T),
            np.append(core.ell[: k + 1], ell_T),
            np.append(core.v[: k + 1], self._speed(T - ell_T, ell_T)),
        )

    def _speed(self, s, ell):
        return min(griffith_speed(self.trace_slope(s), self.toughness(ell)), SPEED_CAP)

    # -- trace queries ------------------------------------------------------

    def trace_slope(self, s):
        """f'(s): exact data formulas below ell0, the solver's nodes above.

        A float gives a float, an array an array of the same shape.
        """
        s, core = np.asarray(s, dtype=float), self._core  # NaN reads the nodes
        out = sides(s <= self.initial.ell0,
                    lambda i: _seed_slope(self.initial.seed_trace, s[i], core.up_xs, core.up_vs),
                    lambda i: np.interp(s[i], core.s, core.fp))
        return float(out) if out.ndim == 0 else out

    def trace_value(self, s):
        """f(s), anchored at f(0) = 0, via the trace relation f(s) = u(s) + f(echo(s)).

        A float gives a float, an array an array of the same shape.  Each
        point walks its echo chain down to [-ell0, ell0] once, adding u into a
        sum that starts at -0.0 (so a point reflected at most once keeps the
        bits of u + f(echo)), then the data formula at the end of the chain:
        neither the recursion limit nor memory depends on the depth.
        """
        q = np.array(s, dtype=float).ravel()
        init, u = self.initial, self.control.u
        f = np.full(q.shape, -0.0)
        active = np.flatnonzero(q > init.ell0)
        while active.size:
            f[active] += u(q[active])
            q[active] = echo = self.front.echo(q[active])
            active = active[echo > init.ell0]
        # The data's polylines start at 0 (up to the domain slack): an antiderivative is
        # the integral from 0.  f(s <= 0) = -integral_0^{-s} of the seed slope (y1 - y0')/2.
        def data(i):
            mid = q[i]
            half = 0.5 * (init.y0_prime.antiderivative_at(mid) + init.y1.antiderivative_at(mid))
            return u(mid) - self._u0 - half

        f += sides(q <= 0.0, lambda i: -init.seed_trace.incoming.antiderivative_at(-q[i]), data)
        f = f.reshape(np.shape(s))
        return float(f) if f.ndim == 0 else f

    def trace_function(self) -> SampledFunction:
        """The trace slope on [-ell0, T] as one sampled function on the solver's nodes."""
        return SampledFunction(self._core.s, self.trace_slope(self._core.s))

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
        if x_grid.size and (x_grid.min() < -1e-12 or x_grid.max() > ell_t * (1 + 1e-12) + 1e-12):
            raise DomainError(f"reconstruction point beyond the front ell({t:g}) = {ell_t:g}")
        init = self.initial
        x = np.minimum(x_grid, ell_t)
        fp_back = self.trace_slope(t - x)
        y = np.empty_like(x)
        a_out = np.empty_like(x)
        outside = t + x >= init.ell0 * (1.0 - 1e-14)
        xo = x[outside]
        s_out = t + xo
        echo, factor = self.front.reflect(s_out)
        f = self.trace_value(np.concatenate((t - xo, echo)))  # one walk for both feet
        y[outside] = f[: xo.size] - f[xo.size :]
        a_out[outside] = -self.trace_slope(echo) * factor
        if not outside.all():
            # Data cone: d'Alembert from the initial data, plus the control once
            # the backward characteristic reaches the boundary (t > x).
            early = ~outside & (t <= x)
            xe = x[early]
            y[early] = 0.5 * (
                init.y0(xe + t) + init.y0(xe - t) + definite_integral(init.y1, xe - t, xe + t)
            )
            late = ~outside & (t > x)
            xl = x[late]
            y[late] = self.control.u(t - xl) + 0.5 * (
                definite_integral(init.y0_prime, t - xl, t + xl)
                + definite_integral(init.y1, t - xl, t + xl)
            )
            xc = x[~outside]
            a_out[~outside] = 0.5 * (init.y0_prime(t + xc) + init.y1(t + xc))
        return y, fp_back + a_out, -fp_back + a_out

    def griffith_residuals(self) -> np.ndarray:
        """Per-node gap between stored speeds and the Griffith value."""
        f, kappa = self.front, self.toughness
        fp = self.trace_slope(f.times - f.positions)
        kap = kappa.kappa if kappa.is_constant else kappa(f.positions)  # a float: np.full's bits
        return np.abs(f.speeds - griffith_speed(fp, kap))


def solve_front(
    initial: InitialState,
    control: ControlSignal,
    kappa: Toughness,
    cfg: SolverConfig,
) -> SolutionRecord:
    """Solve the coupled front/trace system from 0 to T under the control."""
    if control.t_end < cfg.T * (1 - 1e-12):
        raise DomainError(
            f"control defined up to {control.t_end:g} but horizon is {cfg.T:g}"
        )
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

