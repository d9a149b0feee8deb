"""Backward-in-time computation of admissible final front branches.

Walking back from t = T with the target data frozen, the front speed at each
instant must belong to a two-element set

    { 0 } u { (K - Y) / (K + Y) }   intersected with [0, 1),

where Y = |(ybar1 + ybar0')(t + L(t) - T)|^2 and K = 2 kappa(L(t)); both
options additionally require the size constraint Y <= K.  Solutions may not
exist (DeadEnd) or be unique; the policy picks one and the result records at
every node whether the other option was available too.
"""

from __future__ import annotations

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
    if root <= 0.0:
        return (0.0,)
    if root >= 1.0:
        return (0.0,)
    return (0.0, root)


class _BackwardMarch:
    def __init__(self, target, kappa, T, policy):
        self.w = target.w_plus()
        self.kappa = kappa
        self.T = T
        self.policy = policy
        self.switch_tol = max(1e-9, 10.0 * policy.h)

    def _options(self, t, L):
        x = min(max(t + L - self.T, self.w.lo), self.w.hi)
        wv = self.w(x)
        return branch_speed_options(wv * wv, 2.0 * self.kappa(L))

    def choose(self, t, L, moving_mode, forced=None):
        """Pick a speed at (t, L); returns (speed, new_moving_mode, alt_flag)."""
        opts = self._options(t, L)
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
            if self.policy.mode == "prefer_static" and root <= self.switch_tol:
                return 0.0, False, alt
            if not has_moving:
                # root collapsed to zero: the branches merge
                return 0.0, False, alt
            return root, True, alt
        if self.policy.mode == "prefer_moving" and has_moving:
            if root <= self.switch_tol:
                return root, True, alt
            return 0.0, False, alt  # would need a jump; keep the static branch
        return 0.0, False, alt


def solve_final_branch(
    target: TargetState,
    kappa: Toughness,
    T: float,
    policy: BranchPolicy,
) -> BranchResult:
    """Integrate the constrained inclusion backward from L(T) = ellbar0.

    Stops at the first time t_bar_star with t + L(t) = T (located by linear
    interpolation between the bracketing nodes, then pinned so the identity
    holds exactly) and packages the branch with its summary quantities.
    """
    if T <= target.ellbar0:
        raise NoTermination(
            f"horizon T = {T:g} too short for a final branch ending at {target.ellbar0:g}"
        )
    march = _BackwardMarch(target, kappa, T, policy)
    alpha = classify_final_state(target, kappa) if policy.c1_mode else None

    h = policy.h
    ts = [T]
    Ls = [target.ellbar0]
    vs = []
    alts = []
    v0, moving, alt = march.choose(T, target.ellbar0, False, forced=alpha)
    vs.append(v0)
    alts.append(alt)

    while True:
        t_k, L_k = ts[-1], Ls[-1]
        v_k = vs[-1]
        if t_k - h < -2.0 * h:
            raise NoTermination("backward march reached t = 0 before closing")
        L_star = L_k - h * v_k
        v_mid, moving_mid, _ = march.choose(t_k - h, max(L_star, 0.0), moving)
        L_next = L_k - 0.5 * h * (v_k + v_mid)
        t_next = t_k - h
        v_next, moving, alt = march.choose(t_next, L_next, moving_mid)
        ts.append(t_next)
        Ls.append(L_next)
        vs.append(v_next)
        alts.append(alt)
        if t_next + L_next - T <= 0.0:
            break

    ts = np.array(ts)
    Ls = np.array(Ls)
    vs = np.array(vs)
    alts = np.array(alts, dtype=bool)

    # Locate the crossing of t + L(t) = T within the final step.
    x0 = ts[-2] + Ls[-2] - T
    x1 = ts[-1] + Ls[-1] - T
    w = x0 / (x0 - x1) if x0 != x1 else 1.0
    t_bar = ts[-2] + w * (ts[-1] - ts[-2])
    v_bar = vs[-2] + w * (vs[-1] - vs[-2])
    ell_bar = T - t_bar  # pins t_bar + L(t_bar) = T exactly
    if ts[-2] - t_bar > 1e-9 * max(T, 1.0):
        ts[-1], Ls[-1], vs[-1] = t_bar, ell_bar, v_bar
    else:
        ts, Ls, vs, alts = ts[:-1], Ls[:-1], vs[:-1], alts[:-1]
        ts[-1], Ls[-1], vs[-1] = t_bar, ell_bar, v_bar

    order = slice(None, None, -1)
    front = FrontCurve(ts[order].copy(), Ls[order].copy(), np.minimum(vs[order], SPEED_CAP))
    return BranchResult(
        front_segment=front,
        t_bar_star=float(t_bar),
        ell_bar_star=float(ell_bar),
        ell_bar_star_prime=float(v_bar),
        alpha=float(alpha) if alpha is not None else float(vs[0]),
        alternative_admissible=alts[order].copy(),
    )


def static_branch(target: TargetState, kappa: Toughness, T: float) -> BranchResult:
    """The static final branch L = ellbar0 on [T - ellbar0, T].

    Valid whenever sup |ybar1 + ybar0'|^2 <= 2 kappa(ellbar0); the caller is
    expected to have checked that constraint.
    """
    t0 = T - target.ellbar0
    n = max(int(np.ceil(target.ellbar0 / 0.25)), 1)
    ts = np.linspace(t0, T, n + 1)
    front = FrontCurve(ts, np.full(n + 1, target.ellbar0), np.zeros(n + 1))
    return BranchResult(
        front_segment=front,
        t_bar_star=float(t0),
        ell_bar_star=float(target.ellbar0),
        ell_bar_star_prime=0.0,
        alpha=0.0,
        alternative_admissible=np.zeros(n + 1, dtype=bool),
    )
