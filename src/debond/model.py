"""Domain types and the pointwise Griffith kernel.

The kernel relates the trace slope f' at the backward characteristic foot,
the local toughness at the front, and the front speed:

    speed = max[(2 f'^2 - kappa) / (2 f'^2 + kappa), 0]        in [0, 1)

together with its inversion (used when a front is prescribed and the trace
must be manufactured).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguityNote,
    DomainError,
    IncompatibleTarget,
    InvalidToughness,
    SpeedOutOfRange,
)
from .func1d import MonotoneMap, SampledFunction, constant, derivative, freeze, merged_eval

VALID_REGULARITY = ("C01", "C1")

# How far from zero a state's displacement at its front, and a target's terminal
# compatibility residual, may lie.
FRONT_TOL = 1e-8


# ---------------------------------------------------------------------------
# Pointwise kernel
# ---------------------------------------------------------------------------

def griffith_speed(fprime_at_trace, kappa_at_front):
    """Front speed selected by the energy criterion: in [0, 1), or 1.0 by rounding.

    Scalars give a float, arrays an array.  A non-finite argument raises
    ``FloatingPointError`` naming it.  A float (a constant toughness) takes scalar tests.
    """
    for name, value in (("trace slope", fprime_at_trace), ("toughness", kappa_at_front)):
        if isinstance(value, float) and math.isfinite(value):
            continue
        finite = np.isfinite(value)
        if not finite.all():
            bad = np.asarray(value)[~finite].flat[0]
            raise FloatingPointError(f"Griffith speed of a non-finite {name}: {bad}")
    lowest = (kappa_at_front if isinstance(kappa_at_front, float)
              else np.min(kappa_at_front, initial=np.inf))
    if lowest <= 0.0:  # np.float64 prints as the float does
        raise InvalidToughness(f"toughness must be positive, got {lowest}")
    twice_sq = 2.0 * fprime_at_trace * fprime_at_trace
    speed = (twice_sq - kappa_at_front) / (twice_sq + kappa_at_front)
    return np.maximum(speed, 0.0) if isinstance(speed, np.ndarray) else max(speed, 0.0)


def speed_to_fprime_magnitude(v, kappa_at_front):
    """Trace-slope magnitude that produces front speed ``v`` (0 < v < 1).

    Right inverse of :func:`griffith_speed`; as v -> 0+ the magnitude tends
    to the threshold sqrt(kappa / 2).  Scalars give a float, arrays an array
    (``np.sqrt`` is correctly rounded, like ``math.sqrt``).
    """
    v = np.asarray(v, dtype=float)
    kappa_at_front = np.asarray(kappa_at_front, dtype=float)
    outside = ~((v > 0.0) & (v < 1.0))
    if np.any(outside):
        raise SpeedOutOfRange(f"speed must lie in (0, 1), got {v[outside].flat[0]}")
    if np.any(kappa_at_front <= 0.0):
        raise InvalidToughness(f"toughness must be positive, got {np.min(kappa_at_front)}")
    out = np.sqrt(kappa_at_front * (1.0 + v) / (2.0 * (1.0 - v)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Toughness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Toughness:
    """Local toughness of the glue, constant or sampled on [0, x_max]."""

    kappa: object  # float or SampledFunction

    def __post_init__(self):
        if isinstance(self.kappa, (int, float)):
            value = float(self.kappa)
            if value <= 0.0:
                raise InvalidToughness(f"toughness must be positive, got {value}")
            object.__setattr__(self, "kappa", value)
        elif isinstance(self.kappa, SampledFunction):
            if np.min(self.kappa.vs) <= 0.0:
                raise InvalidToughness("sampled toughness must be positive everywhere")
        else:
            raise TypeError("kappa must be a number or a SampledFunction")

    @property
    def is_constant(self) -> bool:
        return isinstance(self.kappa, float)

    def __call__(self, x):
        if self.is_constant:
            if np.ndim(x) == 0:
                return self.kappa
            return np.full(np.shape(x), self.kappa)
        return self._named(self.kappa, x)

    def held(self, x):
        """kappa at x held to its samples (``np.interp``, no domain check), or the constant."""
        return self.kappa if self.is_constant else np.interp(x, self.kappa._xs, self.kappa._vs)

    def check(self, *arrays):
        """Raise the DomainError that ``self(np.column_stack(arrays).ravel())`` raises, naming
        the first point in that order outside the samples; nothing when all are inside."""
        if not self.is_constant:
            self._named(self.kappa._check, np.column_stack(arrays).ravel())

    @staticmethod
    def _named(read, x):
        """``read(x)``, whose DomainError is raised naming the toughness and its config fields."""
        try:
            return read(x)
        except DomainError as err:
            raise DomainError(f"toughness: {err}, the interval it is sampled on "
                              "(toughness.x_max or toughness.samples)") from err


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def _require_domain(fn: SampledFunction, hi: float, name: str):
    tol = 1e-9 * max(hi, 1.0)
    if abs(fn.lo) > tol or abs(fn.hi - hi) > tol:
        raise ValueError(f"{name} must be sampled on [0, {hi:g}], got [{fn.lo:g}, {fn.hi:g}]")


def _check_state(length, disp, vel, regularity, tol, names):
    """Checks shared by both states; ``names`` spells (length, disp, vel). Returns disp'."""
    length_name, disp_name, vel_name = names
    if length <= 0.0:
        raise ValueError(f"{length_name} must be positive")
    if regularity not in VALID_REGULARITY:
        raise ValueError(f"regularity must be one of {VALID_REGULARITY}")
    _require_domain(disp, length, disp_name)
    _require_domain(vel, length, vel_name)
    if abs(disp(length)) > tol:
        raise ValueError(
            f"{disp_name} must vanish at the front: {disp_name}({length:g}) = {disp(length):g}"
        )
    return derivative(disp)


@dataclass(frozen=True)
class SeedTrace:
    """The trace slope the data seed, read-only: (y1 - y0')(-s)/2 on s in [-ell0, 0]
    (``minus_xs``, ``minus_vs``) and (y0' + y1)/2 on [0, ell0] (``plus_xs``, ``plus_vs``)."""

    minus_xs: np.ndarray
    minus_vs: np.ndarray
    plus_xs: np.ndarray
    plus_vs: np.ndarray

    def __post_init__(self):
        freeze(self, **vars(self))

    @functools.cached_property
    def incoming(self) -> SampledFunction:
        """(y1 - y0')/2 on [0, ell0], built on first use: f(s <= 0) = -(its integral to -s)."""
        return SampledFunction(-self.minus_xs[::-1], self.minus_vs[::-1])


@dataclass(frozen=True)
class InitialState:
    """Initial front position and displacement/velocity profiles on [0, ell0]."""

    ell0: float
    y0: SampledFunction
    y1: SampledFunction
    regularity: str = "C01"
    y0_prime: SampledFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slope = _check_state(self.ell0, self.y0, self.y1, self.regularity, FRONT_TOL,
                             ("ell0", "y0", "y1"))
        object.__setattr__(self, "y0_prime", slope)

    @functools.cached_property
    def seed_trace(self) -> SeedTrace:
        """The trace slope the data seed, on merged grids, built once."""
        grid, diff = merged_eval(self.y1, self.y0_prime, lambda a, b: 0.5 * (a - b))
        return SeedTrace(-grid[::-1], np.ascontiguousarray(diff[::-1]),
                         *merged_eval(self.y0_prime, self.y1, lambda a, b: 0.5 * (a + b)))


@dataclass(frozen=True)
class TargetState:
    """Prescribed terminal front position and profiles on [0, ellbar0]."""

    ellbar0: float
    ybar0: SampledFunction
    ybar1: SampledFunction
    regularity: str = "C01"
    tol: float = FRONT_TOL
    ybar0_prime: SampledFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slope = _check_state(self.ellbar0, self.ybar0, self.ybar1, self.regularity, self.tol,
                             ("ellbar0", "ybar0", "ybar1"))
        object.__setattr__(self, "ybar0_prime", slope)

    @functools.cached_property
    def w_plus(self) -> SampledFunction:
        """The outgoing terminal combination ybar1 + ybar0' on a merged grid, built once."""
        return SampledFunction(*merged_eval(self.ybar1, self.ybar0_prime, np.add))

    @functools.cached_property
    def w_minus(self) -> SampledFunction:
        """The incoming terminal combination ybar1 - ybar0' on a merged grid, built once."""
        return SampledFunction(*merged_eval(self.ybar1, self.ybar0_prime, np.subtract))


# ---------------------------------------------------------------------------
# Front curves and controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrontCurve:
    """Debonding front on a time grid, with the characteristic maps t -> t +- ell.

    Both maps are strictly increasing (speeds stay below 1), so their
    inverses locate where a characteristic hitting the front originated.
    """

    times: np.ndarray
    positions: np.ndarray
    speeds: np.ndarray
    tau_plus: MonotoneMap = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=float)
        p = np.ascontiguousarray(self.positions, dtype=float)
        v = np.ascontiguousarray(self.speeds, dtype=float)
        if not (t.shape == p.shape == v.shape) or t.ndim != 1 or t.size < 2:
            raise ValueError("times, positions, speeds must be equal-length 1-D arrays")
        # One reduction per bound, each failed by NaN.
        dt, dp = t[1:] - t[:-1], p[1:] - p[:-1]
        if not dt.min() > 0.0:
            raise ValueError("times must be strictly increasing")
        if not dp.min() >= -1e-9 * max(p.max(), 1.0):
            raise ValueError("front positions must be nondecreasing")
        if not (v.min() >= 0.0 and v.max() < 1.0):
            raise ValueError("front speeds must lie in [0, 1)")
        if not (dt - dp).min() > 0.0:
            raise ValueError("front advanced a full time step; tau_minus not invertible")
        tau_plus = MonotoneMap(SampledFunction(t, t + p))
        freeze(self, positions=p, speeds=v)
        object.__setattr__(self, "times", tau_plus.fn.xs)  # one table, and one alias
        object.__setattr__(self, "_times", tau_plus.fn._xs)
        object.__setattr__(self, "tau_plus", tau_plus)

    @functools.cached_property
    def tau_minus(self) -> MonotoneMap:
        return MonotoneMap(SampledFunction(self._times, self._times - self._positions))

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def ell(self, t):
        out = np.interp(t, self._times, self._positions)
        return float(out) if np.ndim(out) == 0 else out

    def ell_prime(self, t):
        out = np.interp(t, self._times, self._speeds)
        return float(out) if np.ndim(out) == 0 else out

    def echo(self, s):
        """The earlier trace coordinate (tau_minus o tau_plus^-1)(s)."""
        return s - 2.0 * self.ell(self.tau_plus.invert(s))

    def reflection_factor(self, s):
        """(1 - ell')/(1 + ell') evaluated at tau_plus^-1(s)."""
        return self.reflect(s)[1]

    def reflect(self, s):
        """echo(s) and reflection_factor(s) from one inversion of tau_plus."""
        foot = self.tau_plus.invert(s)
        v = self.ell_prime(foot)
        return s - 2.0 * self.ell(foot), (1.0 - v) / (1.0 + v)


@dataclass(frozen=True)
class ControlSignal:
    """Boundary control u on [0, T] together with its rate u'."""

    u: SampledFunction
    uprime: SampledFunction

    def __post_init__(self):
        if (self.u.lo, self.u.hi) != (self.uprime.lo, self.uprime.hi):
            raise ValueError(
                f"control u on [{self.u.lo:.17g}, {self.u.hi:.17g}] and u' on "
                f"[{self.uprime.lo:.17g}, {self.uprime.hi:.17g}] must share one interval")

    @classmethod
    def zero(cls, T: float) -> "ControlSignal":
        return cls(constant(0.0, 0.0, T), constant(0.0, 0.0, T))

    @property
    def t_end(self) -> float:
        return self.u.hi


# ---------------------------------------------------------------------------
# Branch summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialBranchResult:
    """End of the front portion determined solely by the initial data.

    ``ell_star_prime`` is authoritative only for C1 data; for Lipschitz data
    it holds the left-limit slope and is flagged accordingly.
    """

    t_star: float
    ell_star: float
    ell_star_prime: float
    front: FrontCurve
    slope_authoritative: bool = True


@dataclass(frozen=True)
class BranchResult:
    """An admissible final branch on [t_bar_star, T] plus its summary data.

    ``alpha`` is the terminal front speed (the classification value for C1
    branches, the chosen terminal speed otherwise).  ``alternative_admissible``
    records, per node, whether the speed option that was not chosen would also
    have been admissible; non-uniqueness is surfaced, not resolved.
    """

    front_segment: FrontCurve
    t_bar_star: float
    ell_bar_star: float
    ell_bar_star_prime: float
    alpha: float
    alternative_admissible: np.ndarray = None


# ---------------------------------------------------------------------------
# Compatibility and admissibility checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckItem:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class CheckReport:
    items: tuple

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def worst(self) -> CheckItem:
        return max(self.items, key=lambda item: item.residual - item.tol)

    def __iter__(self):
        return iter(self.items)


def check_initial_compatibility(
    state: InitialState,
    u0: float,
    uprime0: float,
    kappa: Toughness,
) -> CheckReport:
    """Well-posedness compatibility of initial data against the control endpoint,
    each residual within 1e-6.

    Lipschitz data needs the displacement matches y0(0) = u(0) and
    y0(ell0) = 0.  C1 data additionally needs y1(0) = u'(0) and the front
    slope condition tying y1(ell0) to the Griffith speed of the seed trace.
    """
    tol = 1e-6
    items = [
        CheckItem("y0_matches_control_at_0", abs(state.y0(0.0) - u0), tol),
        CheckItem("y0_vanishes_at_front", abs(state.y0(state.ell0)), tol),
    ]
    if state.regularity == "C1":
        items.append(CheckItem("y1_matches_control_rate_at_0", abs(state.y1(0.0) - uprime0), tol))
        d = state.y1(state.ell0) - state.y0_prime(state.ell0)
        speed0 = griffith_speed(0.5 * d, kappa(state.ell0))
        required = -speed0 * state.y0_prime(state.ell0)
        items.append(
            CheckItem("front_slope_compatibility", abs(state.y1(state.ell0) - required), tol)
        )
    return CheckReport(tuple(items))


def classify_final_state(target: TargetState, kappa: Toughness) -> float:
    """Terminal front speed alpha implied by the target data.

    Returns 0 for a passive final state (ybar1 vanishes at the front) or the
    unique positive root for an active one, each matched within ``FRONT_TOL``.
    The boundary case where both classifications coincide resolves to passive,
    with a warning.
    """
    y1_end = target.ybar1(target.ellbar0)
    slope_end = target.ybar0_prime(target.ellbar0)
    kap_end = kappa(target.ellbar0)
    scale = max(1.0, abs(slope_end))

    passive_ok = abs(y1_end) <= FRONT_TOL
    active_alpha = None
    s2 = slope_end * slope_end
    if s2 > 2.0 * kap_end:
        candidate = math.sqrt(1.0 - 2.0 * kap_end / s2)
        if abs(y1_end + candidate * slope_end) <= FRONT_TOL * scale:
            active_alpha = candidate

    if passive_ok:
        if active_alpha is not None and active_alpha > FRONT_TOL:
            warnings.warn(
                "both passive and active classifications match; resolving as passive",
                AmbiguityNote,
            )
        return 0.0
    if active_alpha is not None:
        return active_alpha
    raise IncompatibleTarget(
        f"target matches neither passive (|ybar1({target.ellbar0:g})| = {abs(y1_end):g}) "
        f"nor active terminal compatibility"
    )


def check_damping_bound(target: TargetState, kappa_at_front: float) -> CheckReport:
    """Expansion-damping bound |ybar1 + ybar0'|^2 <= 2 kappa on w_plus's grid, up to
    1e-9 max(1, 2 kappa).

    ``kappa_at_front`` is the toughness seen along the outgoing characteristics:
    for a static branch, its value at the target front.
    """
    w = target.w_plus
    kap = float(kappa_at_front)
    excess = w.vs * w.vs - 2.0 * kap
    worst = int(np.argmax(excess))
    item = CheckItem(
        f"damping_bound_worst_at_x={w.xs[worst]:.6g}",
        float(excess[worst]),
        1e-9 * max(1.0, 2.0 * kap),
    )
    return CheckReport((item,))
