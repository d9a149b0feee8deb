"""Backward-in-time computation of admissible final front branches.

Walking back from t = T with the target data frozen, the front speed at each
instant must belong to a two-element set

    { 0 } u { (K - Y) / (K + Y) }   intersected with [0, 1),

where Y = |(ybar1 + ybar0')(t + L(t) - T)|^2 and K = 2 kappa(L(t)); both
options additionally require the size constraint Y <= K.  Solutions may not
exist (DeadEnd) or be unique; the policy picks one and the result records at
every node whether the other option was available too.

The branch is marched in r = t + L rather than in t: dr/dt = 1 + v, so
dL/dr = v / (1 + v), and w = ybar1 + ybar0' is read at r - T.  The march
starts at r = T + ellbar0 and its stopping line t + L = T is r = T, so the
last node is the branch start and every abscissa of w is a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import C1SwitchViolation, DeadEnd, NoTermination
from .model import (
    SPEED_CAP,
    BranchResult,
    FrontCurve,
    TargetState,
    Toughness,
    classify_final_state,
)

_MODES = ("prefer_static", "prefer_moving")


@dataclass(frozen=True)
class BranchPolicy:
    """Selection rule among admissible backward speeds.

    ``c1_mode`` enforces the C1 switching rules: the terminal speed is pinned
    to the classification value and the branch may only change between static
    and moving where the two options coincide (moving root near zero).
    ``h`` is the largest step of the backward march in r = t + L.
    """

    mode: str = "prefer_static"
    c1_mode: bool = False
    h: float = 1e-3

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.h <= 0.0:
            raise ValueError("backward step must be positive")


def branch_speed_options(Y: float, K: float):
    """Admissible backward speeds for data magnitude Y and threshold K = 2 kappa.

    Returns a tuple (always containing 0 when the constraint Y <= K holds;
    the moving root is included when it lands in [0, 1)).  Raises DeadEnd
    when no option is admissible.
    """
    if K <= 0.0:
        raise DeadEnd("toughness threshold must be positive")
    slack = 1e-12 * K
    if Y > K + slack:
        raise DeadEnd(
            f"size constraint violated: |ybar1 + ybar0'|^2 = {Y:.6g} exceeds 2 kappa = {K:.6g}"
        )
    root = (K - Y) / (K + Y)
    if not 0.0 < root < 1.0:
        return (0.0,)
    return (0.0, root)


def _nodes(w, ellbar0, h=math.inf):
    """Nodes x = t + L - T on [0, ellbar0]: w's abscissae, segments cut into parts <= h."""
    # state samples may end up to 1e-9 off [0, ellbar0], each table on its own
    xs = np.unique(np.clip(w.xs, 0.0, ellbar0))
    dx = np.diff(xs)
    parts = np.maximum(np.ceil(dx / h), 1.0).astype(int)
    seg = np.repeat(np.arange(parts.size), parts)
    k = np.arange(seg.size) - np.repeat(np.cumsum(parts) - parts, parts)
    return np.append(xs[seg] + k * (dx / parts)[seg], xs[-1])


class _BackwardMarch:
    def __init__(self, target, kappa, policy):
        self.w = target.w_plus()
        self.kappa = kappa
        self.policy = policy
        self.switch_tol = max(1e-9, 10.0 * policy.h)

    def _options(self, x, L):
        wv = self.w(x)
        return branch_speed_options(wv * wv, 2.0 * self.kappa(L))

    def choose(self, x, L, moving_mode, forced=None):
        """Pick a speed at (x = r - T, L); returns (speed, new_moving_mode, alt_flag)."""
        opts = self._options(x, L)
        root = opts[-1]
        has_moving = len(opts) == 2
        alt = has_moving and root > self.switch_tol
        if forced is not None:
            # terminal node of a C1 branch: speed pinned to alpha
            want_moving = forced > self.switch_tol
            prefer_moving = self.policy.mode == "prefer_moving"
            if want_moving != prefer_moving and root > self.switch_tol:
                raise C1SwitchViolation(
                    f"policy {self.policy.mode} demands a speed jump at t = T away "
                    f"from a coincidence point (terminal speed {forced:.6g}, "
                    f"moving root {root:.6g})"
                )
            return (root if want_moving else 0.0), want_moving, alt
        if not self.policy.c1_mode:
            if self.policy.mode == "prefer_moving" and has_moving:
                return root, True, alt
            return 0.0, False, alt
        # C1 rules: stay on the current branch unless the options coincide.
        if moving_mode:
            # leave where the root collapsed to zero (the branches merge), or
            # where a prefer_static policy may switch
            if not has_moving or (self.policy.mode == "prefer_static" and root <= self.switch_tol):
                return 0.0, False, alt
            return root, True, alt
        if self.policy.mode == "prefer_moving" and has_moving:
            if root <= self.switch_tol:
                return root, True, alt
            return 0.0, False, alt  # would need a jump; keep the static branch
        return 0.0, False, alt


def _package(T, xs, Ls, vs, alts, alpha) -> BranchResult:
    """BranchResult from nodes ordered by x = t + L - T, starting at x = 0."""
    Ls = np.asarray(Ls, dtype=float)
    vs = np.asarray(vs, dtype=float)
    ts = T - (Ls - xs)  # exact T where L = x = ellbar0
    return BranchResult(
        front_segment=FrontCurve(ts, Ls, np.minimum(vs, SPEED_CAP)),
        t_bar_star=float(ts[0]),
        ell_bar_star=float(Ls[0]),
        ell_bar_star_prime=float(vs[0]),
        alpha=float(alpha),
        alternative_admissible=np.asarray(alts, dtype=bool),
    )


def solve_final_branch(
    target: TargetState,
    kappa: Toughness,
    T: float,
    policy: BranchPolicy,
) -> BranchResult:
    """Integrate the constrained inclusion backward from L(T) = ellbar0.

    Heun in x = t + L - T from ellbar0 down to the node x = 0, where t + L = T,
    with dL/dx = v / (1 + v) < 1/2: so L >= ellbar0 / 2 and t_bar_star > 0.
    """
    if T <= target.ellbar0:
        raise NoTermination(
            f"horizon T = {T:g} too short for a final branch ending at {target.ellbar0:g}"
        )
    march = _BackwardMarch(target, kappa, policy)
    alpha = classify_final_state(target, kappa) if policy.c1_mode else None
    xs = _nodes(march.w, target.ellbar0, policy.h)

    x_k = float(xs[-1])
    L = target.ellbar0
    v, moving, alt = march.choose(x_k, L, False, forced=alpha)
    Ls, vs, alts = [L], [v], [alt]
    for x_next in xs[-2::-1].tolist():
        dx = x_k - x_next
        g = v / (1.0 + v)
        v_mid, moving_mid, _ = march.choose(x_next, L - dx * g, moving)
        L -= 0.5 * dx * (g + v_mid / (1.0 + v_mid))
        v, moving, alt = march.choose(x_next, L, moving_mid)
        Ls.append(L)
        vs.append(v)
        alts.append(alt)
        x_k = x_next
    return _package(T, xs, Ls[::-1], vs[::-1], alts[::-1], vs[0] if alpha is None else alpha)


def static_branch(target: TargetState, kappa: Toughness, T: float) -> BranchResult:
    """The static final branch L = ellbar0 on [T - ellbar0, T], on w_plus's abscissae.

    Valid whenever sup |ybar1 + ybar0'|^2 <= 2 kappa(ellbar0); the caller is
    expected to have checked that constraint.
    """
    xs = _nodes(target.w_plus(), target.ellbar0)
    n = xs.size
    return _package(T, xs, np.full(n, target.ellbar0), np.zeros(n), np.zeros(n, dtype=bool), 0.0)
