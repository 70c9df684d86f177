"""Per-step velocity filtering with control-barrier-function rows.

Each robot tracks a reference velocity as closely as possible subject
to a speed cap, staying inside the domain disk, and keeping clear of
its neighbors.  Containment uses the standard barrier condition
<grad h, v> >= -alpha h with h_o = R_o^2 - ||p||^2.  Each neighbor j
contributes a row built from h_j = ||p - p_j||^2 - r^2 with a
relative-speed margin, since the neighbor may be closing at up to
v_max and each side carries half the avoidance burden:

    d . v >= 0.5 v_max ||d|| - 0.5 alpha_c (||d||^2 - r^2),   d = p - p_j

All rows are affine in v, so the projection is solved exactly by
enumerating active sets of at most two rows in 2D.  The speed cap is a
post-hoc scaling when no affine row binds; otherwise it joins the
active-set search as 16 polygon facets inscribed in the speed circle,
which keeps ||v|| <= v_max exact at the price of at most cos(pi/16)
conservatism when affine rows are active.

Everything here is plain scalar arithmetic on purpose: the filter runs
once per robot per timestep and sits on the simulation's hot path, so
`VelocityQP` does not re-check the limits that scenario load checks.
Most calls end in the pass-through, where the speed-clipped reference
satisfies every row; `filter_velocity` tests that row by row inline,
with the same arithmetic as the row builder, and builds the rows only
when one is violated.  For a large swarm, `pass_through` runs that test
for every robot at once in numpy, in the same arithmetic and order, over
the neighbour pairs as arrays; only the robots it flags need
`filter_velocity`.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import chain

import numpy as np

__all__ = ["VelocityQP", "filter_velocity", "pass_through", "N_FACETS"]

N_FACETS = 16
_FACET_SCALE = math.cos(math.pi / N_FACETS)
_FACETS = [(math.cos(2.0 * math.pi * j / N_FACETS),
            math.sin(2.0 * math.pi * j / N_FACETS)) for j in range(N_FACETS)]
_TOL = 1e-9


@dataclasses.dataclass(slots=True)
class VelocityQP:
    """One robot's velocity-filtering problem for one timestep.

    alpha is the containment gain and alpha_c the collision gain, both
    in 1/s.  alpha_c trades standoff distance against aggressiveness:
    the zero-velocity equilibrium of a pairwise row sits at
    d* = (v_max + sqrt(v_max^2 + 4 alpha_c^2 r^2)) / (2 alpha_c).

    Nothing is checked here: the caller guarantees v_max > 0, r > 0,
    R_o > r and positive gains, as a `ScenarioConfig` does at load.
    """

    v_ref: tuple
    position: tuple
    neighbor_positions: list
    v_max: float
    r: float
    R_o: float
    alpha: float = 1.0
    alpha_c: float = 1.0


def _affine_rows(qp: VelocityQP) -> list:
    """Rows (ax, ay, b) meaning ax*vx + ay*vy <= b."""
    px, py = qp.position
    rows = [(2.0 * px, 2.0 * py,
             qp.alpha * (qp.R_o * qp.R_o - (px * px + py * py)))]
    half_vmax = 0.5 * qp.v_max
    half_alpha = 0.5 * qp.alpha_c
    rr = qp.r * qp.r
    for nx, ny in qp.neighbor_positions:
        dx = px - nx
        dy = py - ny
        dd = dx * dx + dy * dy
        rows.append((-dx, -dy, half_alpha * (dd - rr) - half_vmax * math.sqrt(dd)))
    return rows


def _best_candidate(rows: list, vx: float, vy: float):
    """Feasible point of the row intersection closest to (vx, vy), or None.

    The optimum of this 2D projection is the reference itself, the
    projection onto one violated row, or the vertex of two rows, so
    enumerating those candidates and keeping the closest feasible one
    is exact.
    """
    candidates = [(vx, vy)]
    for ax, ay, b in rows:
        gap = ax * vx + ay * vy - b
        if gap > 0.0:
            nn = ax * ax + ay * ay
            if nn > 1e-30:
                scale = gap / nn
                candidates.append((vx - scale * ax, vy - scale * ay))
    n = len(rows)
    for i in range(n):
        ai, aj, bi = rows[i]
        for j in range(i + 1, n):
            ak, al, bk = rows[j]
            det = ai * al - aj * ak
            if abs(det) < 1e-12:
                continue
            candidates.append(((bi * al - aj * bk) / det,
                               (ai * bk - bi * ak) / det))
    best = None
    best_dist = math.inf
    for cx, cy in candidates:
        ok = True
        for ax, ay, b in rows:
            if ax * cx + ay * cy - b > _TOL:
                ok = False
                break
        if ok:
            dist = (cx - vx) ** 2 + (cy - vy) ** 2
            if dist < best_dist:
                best_dist = dist
                best = (cx, cy)
    return best


def _clip(vx: float, vy: float, v_max: float) -> tuple:
    """(vx, vy) scaled down to speed v_max if it is faster."""
    # math.hypot, not np.hypot: the two round apart on some inputs
    speed = math.hypot(vx, vy)
    if speed > v_max:
        scale = v_max / speed
        return (vx * scale, vy * scale)
    return (vx, vy)


def filter_velocity(qp: VelocityQP):
    """Safe velocity closest to the reference, plus a deadlock flag.

    Returns ((vx, vy), deadlock).  The flag is set exactly when the
    constraint rows admit no velocity at all; the returned velocity is
    then zero and the caller should log the step as a deadlock.
    """
    vx, vy = qp.v_ref
    cx, cy = _clip(vx, vy, qp.v_max)
    # pass-through: test each row of _affine_rows inline, with its exact
    # arithmetic, and build the rows only if one of them is violated
    px, py = qp.position
    gap = 2.0 * px * cx + 2.0 * py * cy - qp.alpha * (qp.R_o * qp.R_o - (px * px + py * py))
    if not gap > _TOL:
        half_vmax = 0.5 * qp.v_max
        half_alpha = 0.5 * qp.alpha_c
        rr = qp.r * qp.r
        for nx, ny in qp.neighbor_positions:
            dx = px - nx
            dy = py - ny
            dd = dx * dx + dy * dy
            if -dx * cx + -dy * cy - (half_alpha * (dd - rr) - half_vmax * math.sqrt(dd)) > _TOL:
                break
        else:
            return (cx, cy), False

    rows = _affine_rows(qp)
    best = _best_candidate(rows, vx, vy)
    if best is not None and math.hypot(*best) <= qp.v_max + 1e-12:
        return best, False
    if best is None:
        # Even the affine rows alone are inconsistent; the facets only
        # shrink the set further.
        return (0.0, 0.0), True
    bound = qp.v_max * _FACET_SCALE
    rows.extend((fx, fy, bound) for fx, fy in _FACETS)
    best = _best_candidate(rows, vx, vy)
    if best is None:
        return (0.0, 0.0), True
    return best, False


def pass_through(v_refs, positions, src, dst, v_max, r, R_o, alpha=1.0, alpha_c=1.0):
    """`filter_velocity`'s pass-through test for a whole swarm at once.

    `v_refs` holds each robot's reference velocity and `positions` is
    an (n, 2) array of positions relative to the domain centre; robot
    src[k] has robot dst[k] as a neighbour.  Returns the speed-clipped
    references, as `filter_velocity` clips them, and a bool array that
    flags each robot whose clipped reference leaves its containment row
    or one of its neighbour rows violated by more than _TOL.  The rows
    are evaluated with `filter_velocity`'s arithmetic in its order, so a
    robot is flagged exactly when its `filter_velocity` call would
    build the rows; an unflagged robot's filtered velocity is its
    clipped reference, with no deadlock.
    """
    clipped = [_clip(vx, vy, v_max) for vx, vy in v_refs]
    ref = np.fromiter(chain.from_iterable(clipped), float, 2 * len(clipped)).reshape(-1, 2)
    cx, cy = ref[:, 0], ref[:, 1]
    px, py = positions[:, 0], positions[:, 1]
    flagged = 2.0 * px * cx + 2.0 * py * cy - alpha * (R_o * R_o - (px * px + py * py)) > _TOL
    dx = px[src] - px[dst]
    dy = py[src] - py[dst]
    dd = dx * dx + dy * dy
    gap = (-dx * cx[src] + -dy * cy[src]
           - (0.5 * alpha_c * (dd - r * r) - 0.5 * v_max * np.sqrt(dd)))
    flagged[src[gap > _TOL]] = True
    return clipped, flagged
