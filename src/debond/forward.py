"""Forward-in-time solver for the coupled front/trace system.

Given initial data, a toughness profile and a boundary control, the solver
marches the front ODE

    ell'(t) = max[(2 f'(t - ell)^2 - kappa(ell)) / (2 f'(t - ell)^2 + kappa(ell)), 0]

where the trace slope f' is determined causally: seeded by the initial data
on [-ell0, ell0] and extended past ell0 through the reflection relation

    f'(s) = u'(s) + f'(echo(s)) * (1 - ell'(t+)) / (1 + ell'(t+)),
    t+ = tau_plus^-1(s),   echo(s) = s - 2 ell(t+).

The echo point always lags the march by at least 2*ell0, so every value is
available when needed.  f' samples are stored at the non-uniform abscissae
s = tau_minus(t_n) produced by the march (that is exactly where the
reflection relation queries them), with linear interpolation between.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HorizonExceeded, IncompatibleData, StepTooLarge
from .func1d import SampledFunction, cumulative_trapezoid, definite_integral, lerp, merged_eval
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


@dataclass(frozen=True)
class SolverConfig:
    """Time step, horizon and scheme for the forward march."""

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


# Echo-chain values ``trace_value`` holds at once (about one per point and
# reflection); deeper or larger queries are walked in batches.
_CHAIN_BUDGET = 1 << 20


class _SeedData:
    """Raw piecewise-linear arrays for the data-determined part of the trace."""

    def __init__(self, initial: InitialState):
        self.ell0 = initial.ell0
        y0p, y1 = initial.y0_prime, initial.y1
        # f'(s) = (y1 - y0')(-s)/2 on [-ell0, 0], stored directly in s.
        grid, diff = merged_eval(y1, y0p, lambda a, b: 0.5 * (a - b))
        self.minus_xs = np.ascontiguousarray(-grid[::-1])
        self.minus_vs = np.ascontiguousarray(diff[::-1])
        # Outgoing data combination (y0' + y1)/2 on [0, ell0], queried by line 2.
        self.plus_xs, self.plus_vs = merged_eval(y0p, y1, lambda a, b: 0.5 * (a + b))

    @functools.cached_property
    def minus_fn(self) -> SampledFunction:
        """(y1 - y0')/2 on [0, ell0]; f(s <= 0) is minus its integral from 0 to -s."""
        return SampledFunction(-self.minus_xs[::-1], self.minus_vs[::-1])


def _require_matching_endpoint(initial: InitialState, control: ControlSignal):
    if abs(initial.y0(0.0) - control.u(0.0)) > 1e-6:
        raise IncompatibleData(
            f"control endpoint u(0) = {control.u(0.0):g} does not match y0(0) = "
            f"{initial.y0(0.0):g}"
        )


class _March:
    """Shared marching core for the forward solve and the initial branch.

    ``fprime``, ``_commit`` and ``step`` work through memoryviews of the arrays
    ``SolutionRecord`` reads: Python floats, rounded like float64 elements.
    """

    def __init__(self, initial, kappa, cfg, uprime_xs, uprime_vs):
        if cfg.h > initial.ell0 / 10.0 + 1e-15:
            raise ValueError("time step must not exceed ell0 / 10")
        self.initial = initial
        self.kappa = kappa
        self.cfg = cfg
        self.seed = _SeedData(initial)
        self.up_xs = uprime_xs
        self.up_vs = uprime_vs
        n_steps = max(int(round(cfg.T / cfg.h)), 1)
        self.t = np.linspace(0.0, cfg.T, n_steps + 1)
        self.ell = np.empty(n_steps + 1)
        self.ellp = np.empty(n_steps + 1)
        self.sm = np.empty(n_steps + 1)  # tau_minus(t_n)
        self.sp = np.empty(n_steps + 1)  # tau_plus(t_n)
        self.fp = np.empty(n_steps + 1)  # f'(sm[n])
        self.n = 0
        seed, mv = self.seed, memoryview
        self._t, self._ell, self._ellp = mv(self.t), mv(self.ell), mv(self.ellp)
        self._sm, self._sp, self._fp = mv(self.sm), mv(self.sp), mv(self.fp)
        self._up_xs, self._up_vs = mv(uprime_xs), mv(uprime_vs)
        self._minus_xs, self._minus_vs = mv(seed.minus_xs), mv(seed.minus_vs)
        self._plus_xs, self._plus_vs = mv(seed.plus_xs), mv(seed.plus_vs)
        self._ell0 = seed.ell0
        self._euler = cfg.scheme == "euler"
        self._kconst = kappa.kappa if kappa.is_constant else None
        self._commit(0, initial.ell0)

    def _kappa_at(self, x):
        if self._kconst is not None:
            return self._kconst
        return self.kappa(x)

    def fprime(self, q, n):
        """Trace slope at a float q, using nodes 0..n-1 for reflections.

        The march's per-step query; ``fprime_array`` is the same relation
        evaluated over an array with every committed node.
        """
        ell0 = self._ell0
        if q <= 0.0:
            return lerp(self._minus_xs, self._minus_vs, q)
        if q <= ell0:
            return lerp(self._up_xs, self._up_vs, q) - lerp(self._plus_xs, self._plus_vs, q)
        sp = self._sp
        ell_at = lerp(sp, self._ell, q, n)
        v_at = lerp(sp, self._ellp, q, n)
        echo = q - 2.0 * ell_at
        if echo < -ell0:
            echo = -ell0
        if echo <= ell0:
            fp_echo = self.fprime(echo, n)
        else:
            fp_echo = lerp(self._sm, self._fp, echo, n)
        return lerp(self._up_xs, self._up_vs, q) + fp_echo * (1.0 - v_at) / (1.0 + v_at)

    def seed_fprime_array(self, q):
        """Trace slope on an array q <= ell0: the data and the control alone."""
        seed = self.seed
        return np.where(
            q <= 0.0,
            lerp(seed.minus_xs, seed.minus_vs, q),
            lerp(self.up_xs, self.up_vs, q) - lerp(seed.plus_xs, seed.plus_vs, q),
        )

    def fprime_array(self, q):
        """``fprime`` over an array q, reflecting through every committed node."""
        seed = self.seed
        n = self.n + 1
        sp = self.sp[:n]
        ell_at = lerp(sp, self.ell[:n], q)
        v_at = lerp(sp, self.ellp[:n], q)
        echo = np.maximum(q - 2.0 * ell_at, -seed.ell0)
        fp_echo = np.where(
            echo <= seed.ell0, self.seed_fprime_array(echo), lerp(self.sm[:n], self.fp[:n], echo)
        )
        reflected = lerp(self.up_xs, self.up_vs, q) + fp_echo * (1.0 - v_at) / (1.0 + v_at)
        return np.where(q <= seed.ell0, self.seed_fprime_array(q), reflected)

    def _commit(self, n, ell_n):
        t = self._t[n]
        sm = t - ell_n
        self._ell[n] = ell_n
        self._sm[n] = sm
        self._sp[n] = t + ell_n
        if n > 0 and sm <= self._sm[n - 1]:
            raise StepTooLarge(f"tau_minus lost monotonicity at t = {t:.6g}; reduce the step")
        fp = self.fprime(sm, n)
        self._fp[n] = fp
        # Inline compare, several times cheaper than min(); a NaN passes through.
        v = griffith_speed(fp, self._kappa_at(ell_n))
        self._ellp[n] = SPEED_CAP if v > SPEED_CAP else v
        self.n = n

    def step(self):
        n = self.n
        t1 = self._t[n + 1]
        h = t1 - self._t[n]
        v0 = self._ellp[n]
        ell = self._ell[n]
        if self._euler:
            self._commit(n + 1, ell + h * v0)
            return
        ell_pred = ell + h * v0
        fp_pred = self.fprime(t1 - ell_pred, n + 1)
        v1 = griffith_speed(fp_pred, self._kappa_at(ell_pred))
        v1 = SPEED_CAP if v1 > SPEED_CAP else v1
        self._commit(n + 1, ell + 0.5 * h * (v0 + v1))

    def run(self):
        for _ in range(self.t.shape[0] - 1):
            self.step()


class SolutionRecord:
    """A complete forward trajectory: front, trace, control and data.

    Displacement and its derivatives are reconstructed on demand from the
    stored front and trace; instances are immutable after construction and
    safe for concurrent reads.
    """

    def __init__(self, march: _March, control: ControlSignal):
        self.initial = march.initial
        self.toughness = march.kappa
        self.control = control
        self.config = march.cfg
        self.front = FrontCurve(march.t, march.ell, march.ellp)
        self._march = march
        # Extend the slope store over (tau_minus(T), T]: reconstruction at
        # time T queries f'(T - x) all the way up to s = T.
        T = march.cfg.T
        tail_lo = march.sm[march.n]
        if tail_lo < T:
            count = max(int(np.ceil((T - tail_lo) / march.cfg.h)), 1)
            tail = np.linspace(tail_lo, T, count + 1)[1:]
            tail_fp = march.fprime_array(tail)
            self._store_s = np.concatenate([march.sm[: march.n + 1], tail])
            self._store_fp = np.concatenate([march.fp[: march.n + 1], tail_fp])
        else:
            self._store_s = march.sm[: march.n + 1].copy()
            self._store_fp = march.fp[: march.n + 1].copy()

    # -- trace queries ------------------------------------------------------

    def trace_slope(self, s):
        """f'(s): exact data formulas below ell0, stored march samples above.

        A float gives a float, an array an array of the same shape.
        """
        s = np.asarray(s, dtype=float)
        out = np.where(
            s <= self.initial.ell0,
            self._march.seed_fprime_array(s),
            lerp(self._store_s, self._store_fp, s),
        )
        return float(out) if out.ndim == 0 else out

    def trace_value(self, s):
        """f(s), anchored at f(0) = 0, via the trace relation f(s) = u(s) + f(echo(s)).

        A float gives a float, an array an array of the same shape.  Each
        point follows its echo chain down to [-ell0, ell0] in a loop, so the
        number of reflections (about s / (2 ell0)) is not bounded by the
        recursion limit; the u terms are then added back from the deepest
        level out, in the order of the recursive definition.
        """
        q = np.asarray(s, dtype=float)
        flat = q.ravel()
        ell0 = self.initial.ell0
        chain = flat.size + np.sum(np.maximum(flat - ell0, 0.0)) / (2.0 * ell0)
        batches = np.array_split(flat, 1 + int(chain // _CHAIN_BUDGET))
        out = np.concatenate([self._echo_chain(b) for b in batches]).reshape(q.shape)
        return float(out) if out.ndim == 0 else out

    def _echo_chain(self, q):
        ell0 = self.initial.ell0
        q = q.copy()
        levels = []
        active = np.flatnonzero(q > ell0)
        while active.size:
            levels.append((active, self.control.u(q[active])))
            q[active] = self.front.echo(q[active])
            active = active[q[active] > ell0]
        f = np.empty_like(q)
        neg = q <= 0.0
        # f(s <= 0) = integral_0^{-s} (y0' - y1)/2 = -integral of the seed slope
        f[neg] = -definite_integral(self._march.seed.minus_fn, 0.0, -q[neg])
        mid = q[~neg]
        half = 0.5 * (
            definite_integral(self.initial.y0_prime, 0.0, mid)
            + definite_integral(self.initial.y1, 0.0, mid)
        )
        f[~neg] = self.control.u(mid) - self.control.u(0.0) - half
        for active, u in reversed(levels):
            f[active] = u + f[active]
        return f

    def trace_function(self) -> SampledFunction:
        """The trace slope assembled into one sampled function on [-ell0, T]."""
        ell0 = self.initial.ell0
        T = self.config.T
        eps = max(2e-12 * (T + ell0), 1e-13)
        nodes = [self._march.seed.minus_xs, np.array([0.0 + eps])]
        inner = self._store_s[(self._store_s > eps) & (self._store_s <= ell0 - eps)]
        nodes += [inner, np.array([ell0, ell0 + eps])]
        nodes.append(self._store_s[self._store_s > ell0 + eps])
        s = np.concatenate(nodes)
        s = np.unique(s)
        s = s[np.concatenate(([True], np.diff(s) > eps / 2))]
        return SampledFunction(s, self.trace_slope(s))

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
        if np.any(x_grid < -1e-12) or np.any(x_grid > ell_t * (1 + 1e-12) + 1e-12):
            raise DomainError(f"reconstruction point beyond the front ell({t:g}) = {ell_t:g}")
        init = self.initial
        x = np.minimum(x_grid, ell_t)
        fp_back = self.trace_slope(t - x)
        y = np.empty_like(x)
        a_out = np.empty_like(x)
        outside = t + x >= init.ell0 * (1.0 - 1e-14)
        xo = x[outside]
        s_out = t + xo
        echo = self.front.echo(s_out)
        y[outside] = self.trace_value(t - xo) - self.trace_value(echo)
        a_out[outside] = -self.trace_slope(echo) * self.front.reflection_factor(s_out)
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
        f = self.front
        fp = self.trace_slope(f.times - f.positions)
        return np.abs(f.speeds - griffith_speed(fp, self.toughness(f.positions)))


def seed_trace(initial: InitialState, control: ControlSignal):
    """Data-determined trace on [-ell0, ell0]: slope and integral (f(0) = 0).

    The slope keeps one-sided values at the kink s = 0 via a paired node.
    The control must be defined at least on [0, ell0].
    """
    if control.t_end < initial.ell0 * (1 - 1e-12):
        raise IncompatibleData("control must cover [0, ell0] to seed the trace")
    _require_matching_endpoint(initial, control)
    seed = _SeedData(initial)
    up_xs, up_vs = control.uprime.xs, control.uprime.vs
    eps = max(2e-12 * 2 * initial.ell0, 1e-13)
    right = np.union1d(seed.plus_xs, up_xs[(up_xs > 0) & (up_xs <= initial.ell0)])
    right = right[right > eps]
    if right.size == 0 or right[-1] < initial.ell0 - eps:
        right = np.append(right, initial.ell0)
    s_nodes = np.concatenate([seed.minus_xs, [eps], right])
    k = seed.minus_xs.shape[0]
    q = s_nodes[k:]
    vals = np.concatenate(
        [seed.minus_vs, lerp(up_xs, up_vs, q) - lerp(seed.plus_xs, seed.plus_vs, q)]
    )
    fprime = SampledFunction(s_nodes, vals)
    cum = cumulative_trapezoid(s_nodes, vals)
    cum -= cum[k - 1]  # anchor f(0) = 0 at the left node of the kink pair
    f = SampledFunction(s_nodes, cum)
    return fprime, f


def solve_front(
    initial: InitialState,
    control: ControlSignal,
    kappa: Toughness,
    cfg: SolverConfig,
) -> SolutionRecord:
    """March the coupled front/trace system from 0 to T under the control."""
    if control.t_end < cfg.T * (1 - 1e-12):
        raise DomainError(
            f"control defined up to {control.t_end:g} but horizon is {cfg.T:g}"
        )
    _require_matching_endpoint(initial, control)
    march = _March(initial, kappa, cfg, control.uprime.xs, control.uprime.vs)
    march.run()
    return SolutionRecord(march, control)


def solve_initial_branch(
    initial: InitialState,
    kappa: Toughness,
    cfg: SolverConfig,
) -> InitialBranchResult:
    """Front portion determined by the initial data alone (no control needed).

    Marches until the backward characteristic foot t - ell(t) first reaches 0
    and locates the crossing t_star (= ell_star) by linear interpolation.
    """
    zero = np.array([0.0, cfg.T])
    march = _March(initial, kappa, cfg, zero, np.zeros(2))
    n_max = march.t.shape[0] - 1
    while march.sm[march.n] < 0.0:
        if march.n >= n_max:
            raise HorizonExceeded(
                f"initial branch did not close within the horizon T = {cfg.T:g}"
            )
        march.step()
    n = march.n  # n >= 1: sm[0] = -ell0 < 0 and h <= ell0/10 force several steps
    w = (0.0 - march.sm[n - 1]) / (march.sm[n] - march.sm[n - 1])
    t_star = march.t[n - 1] + w * (march.t[n] - march.t[n - 1])
    v_star = march.ellp[n - 1] + w * (march.ellp[n] - march.ellp[n - 1])
    times = march.t[: n + 1].copy()
    ells = march.ell[: n + 1].copy()
    speeds = march.ellp[: n + 1].copy()
    # Replace the overshooting node with the exact crossing; drop it instead
    # when the crossing coincides with the previous node.
    if t_star - times[n - 1] > 1e-9 * max(t_star, 1.0):
        times[n], ells[n], speeds[n] = t_star, t_star, v_star
    else:
        times, ells, speeds = times[:n], ells[:n], speeds[:n]
        times[-1], ells[-1], speeds[-1] = t_star, t_star, v_star
    front = FrontCurve(times, ells, speeds)
    return InitialBranchResult(
        t_star=float(t_star),
        ell_star=float(t_star),
        ell_star_prime=float(v_star),
        front=front,
        slope_authoritative=(initial.regularity == "C1"),
    )


def reconstruct_state(sol: SolutionRecord, t: float, x_grid):
    """Displacement, time derivative and space derivative at (t, x_grid)."""
    return sol.reconstruct(t, x_grid)
