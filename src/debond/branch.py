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

Each node depends only on the one before it: its L, its speed and, under the
C1 rules, whether the branch is moving.  So the march is one ``func1d.march``
whose rate applies the policy as one array rule, and only the C1 terminal
node, pinned to alpha, is decided on its own.  The first midpoint or node, in
marching order, that leaves kappa's samples or fails the size constraint raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import C1SwitchViolation, DeadEnd, NoTermination
from .func1d import march, union
from .model import (
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

    ``h`` is the largest step of the backward march in r = t + L.  A C1 target
    adds the C1 switching rules (see ``solve_final_branch``).
    """

    mode: str = "prefer_static"
    h: float = 1e-3

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.h <= 0.0:
            raise ValueError("backward step must be positive")


def _roots(Y, K):
    """Moving root and whether it is an option (in (0, 1)), elementwise."""
    root = (K - Y) / (K + Y)
    return root, (0.0 < root) & (root < 1.0)


def _violated(Y, K):
    """Whether the size constraint Y <= K fails, elementwise."""
    return Y > K + 1e-12 * K


def _size_violated(Y, K):
    return DeadEnd(
        f"size constraint violated: |ybar1 + ybar0'|^2 = {Y:.6g} exceeds 2 kappa = {K:.6g}"
    )


def branch_speed_options(Y: float, K: float):
    """Admissible backward speeds for data magnitude Y and threshold K = 2 kappa.

    Returns a tuple (always containing 0 when the constraint Y <= K holds;
    the moving root is included when it lands in [0, 1)).  Raises DeadEnd
    when no option is admissible.
    """
    if K <= 0.0:
        raise DeadEnd("toughness threshold must be positive")
    root, moving = _roots(Y, K)
    if _violated(Y, K):
        raise _size_violated(Y, K)
    return (0.0, root) if moving else (0.0,)


def _nodes(w, ellbar0, h=math.inf):
    """Nodes x = t + L - T on [0, ellbar0]: w's abscissae, segments cut into parts <= h."""
    # state samples may end up to 1e-9 off [0, ellbar0], each table on its own
    xs = union(np.clip(w.xs, 0.0, ellbar0))
    dx = np.diff(xs)
    parts = np.maximum(np.ceil(dx / h), 1.0).astype(int)
    seg = np.repeat(np.arange(parts.size), parts)
    k = np.arange(seg.size) - np.repeat(np.cumsum(parts) - parts, parts)
    return np.append(xs[seg] + k * (dx / parts)[seg], xs[-1])


def _switch_tol(policy):
    return max(1e-9, 10.0 * policy.h)


def _choose(policy, c1, root, has_moving, moving):
    """Moving flag at nodes with moving root ``root`` after a node on ``moving``."""
    tol = _switch_tol(policy)
    if not c1:
        moving = has_moving & (policy.mode == "prefer_moving")
    elif policy.mode == "prefer_moving":
        # C1: join the moving branch only where the options coincide, then stay on it
        moving = has_moving & (moving | (root <= tol))
    else:
        # C1: leave where the root collapses (the branches merge) or a static policy may switch
        moving = moving & has_moving & (root > tol)
    return moving


def _terminal(policy, root, alpha):
    """Speed and moving flag at t = T of a C1 branch, pinned to alpha."""
    want_moving = alpha > _switch_tol(policy)
    if want_moving != (policy.mode == "prefer_moving") and root > _switch_tol(policy):
        raise C1SwitchViolation(
            f"policy {policy.mode} demands a speed jump at t = T away from a coincidence "
            f"point (terminal speed {alpha:.6g}, moving root {root:.6g})"
        )
    return (root if want_moving else 0.0), want_moving


def _package(T, xs, Ls, vs, alts, alpha) -> BranchResult:
    """BranchResult from node arrays ordered by x = t + L - T, starting at x = 0."""
    ts = T - (Ls - xs)  # exact T where L = x = ellbar0
    return BranchResult(
        front_segment=FrontCurve(ts, Ls, vs),
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
    A C1 target enforces the C1 switching rules: the terminal speed is pinned
    to the classification value and the branch may only change between static
    and moving where the two options coincide (moving root near zero).
    """
    if T <= target.ellbar0:
        raise NoTermination(
            f"horizon T = {T:g} too short for a final branch ending at {target.ellbar0:g}"
        )
    w = target.w_plus
    c1 = target.regularity == "C1"
    alpha = classify_final_state(target, kappa) if c1 else None
    xs = _nodes(w, target.ellbar0, policy.h)
    wx = w(xs[::-1])  # nodes from x = ellbar0 down to 0
    Y, dx = wx * wx, xs[-1:0:-1] - xs[-2::-1]

    opts = branch_speed_options(Y[0], 2.0 * kappa(target.ellbar0))
    if alpha is None:
        moving = _choose(policy, c1, opts[-1], len(opts) == 2, False)
        v0 = opts[-1] if moving else 0.0
    else:
        v0, moving = _terminal(policy, opts[-1], alpha)

    def rate(lo, hi, L, _, moving):  # dL/dx, speed and moving flag after nodes on ``moving``
        root, has_moving = _roots(Y[lo + 1 : hi + 1], 2.0 * kappa.held(L))
        moving = _choose(policy, c1, root, has_moving, moving)
        root[~moving] = 0.0
        return root / (1.0 + root), root, moving

    L, g, v, _ = march(-dx, rate, (target.ellbar0, v0 / (1.0 + v0), v0, moving), heun=True)
    # kappa's arguments in the order of the node-by-node march: the first one that
    # leaves kappa's domain or violates the size constraint raises
    args = np.column_stack((L[:-1] - dx * g[:-1], L[1:])).ravel()
    Ys, Ks = np.repeat(Y[1:], 2), np.broadcast_to(2.0 * kappa.held(args), args.shape)
    violated = np.flatnonzero(_violated(Ys, Ks))
    kappa.check(args[: violated[0] + 1 if violated.size else args.size])
    if violated.size:
        raise _size_violated(Ys[violated[0]], Ks[violated[0]])
    root, has_moving = _roots(Y, 2.0 * kappa.held(L))
    alts = has_moving & (root > _switch_tol(policy))
    return _package(T, xs, L[::-1], v[::-1], alts[::-1], v[0] if alpha is None else alpha)


def static_branch(target: TargetState, kappa: Toughness, T: float) -> BranchResult:
    """The static final branch L = ellbar0 on [T - ellbar0, T], on w_plus's abscissae.

    Valid whenever sup |ybar1 + ybar0'|^2 <= 2 kappa(ellbar0); the caller is
    expected to have checked that constraint.
    """
    xs = _nodes(target.w_plus, target.ellbar0)
    n = xs.size
    return _package(T, xs, np.full(n, target.ellbar0), np.zeros(n), np.zeros(n, dtype=bool), 0.0)
