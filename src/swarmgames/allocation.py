"""Mixed-strategy equilibria for the robot task-allocation game.

Each of M tasks broadcasts a completeness signal s_k in [0, 1] (1 =
satisfied, 0 = at risk) and carries a tuning parameter gamma_k that
scales how many robots it absorbs.  Robots are partitioned into groups
of identical cost vectors; group i has n_0^i idle robots and n_k^i
robots already committed to task k.  Every idle robot independently
samples an action (0 = stay idle, k = join task k) from its group's
mixed strategy.  Joining task k is worth

    u_i(k) = (gamma_k - E[N_k]) / gamma_k - s_k - c_k^i

to a group-i robot, where E[N_k] = |n_k| + sum_i n_0^i p_k^i counts
expected heads on the task, while idling pays exactly zero.  A strategy
matrix is an equilibrium when every supported action of a group earns
that group's common value and no other action beats it.

The game is an exact potential game whose costs are affine in the
loads (Monderer & Shapley 1996; Beckmann, McGuire & Winsten 1956).  With
x_ik = n_0^i p_k^i and L_k = E[N_k], its equilibria are exactly the
minimisers of the convex potential

    Phi(x) = sum_k L_k^2 / (2 gamma_k) + sum_ik x_ik (s_k + c_k^i - 1)

over x >= 0 with sum_k x_ik <= n_0^i: the optimality conditions of that
problem are the equilibrium conditions.  `allocate` first tries a
closed-form warm start.  When that fails the KKT test it searches for
the equilibrium support; every round ends in one solve of the
equilibrium equations on a support pattern, and the rows it returns
are the point that passed the KKT test, float dust included.  A busy
group (one whose idle action is out of the support) with a single
supported task puts its whole mass there.  Each other cell of a busy
group joins it to a task, and with the tasks that idle-mode groups pin
as one root, those cells form a graph.  On a forest the equations are
triangular and are solved by substitution.  Mass moved around a cycle
changes no row sum or load, so a solve holds each cell that closes one
at the current point and reports the slope of Phi around it.  There is
one search, with two starts:

- The search is a crossover (Megiddo 1991): a primal active-set method
  on Phi.  Its first step solves the start point's pattern, and the
  round ends there if the solution passes the KKT test.  Else it steps
  toward each pattern's solution, or downhill around a cycle where Phi
  slopes, until a bound blocks, and moves one constraint per step.
  Its start lies on the face of the row constraints: busy rows sum to
  1, the others to at most 1.
- A small miss starts it at the warm start itself: its support, the
  rows it overfills as busy, each row above 1 scaled back to 1.
- A larger miss starts it at the last iterate of a primal-dual
  interior-point method (Mehrotra's predictor-corrector) on Phi,
  projected onto that face.  That method needs a number of iterations
  that barely depends on g, and each iteration costs one M x M solve
  plus vectorised (g, M+1) passes, because each group couples only its
  own cells and the tasks couple through M loads.  It stops once its
  iterates are close to the optimum.  From the warm start the
  crossover's step count grows with g.

Most rounds a simulation meets are small (the monitoring scenario's
4 groups x 5 tasks, the colony's 1 x 2), and most of those end at the
closed-form warm start: one diagonal solve.  On arrays of a few dozen
cells numpy's fixed cost per call outweighs the arithmetic.  So
`allocate` merges the groups (a dict keyed on each cost row's bytes)
and sizes the round once: at most `_SMALL_CELLS` merged cells (h x M)
run the warm start, its KKT test, the crossover's start and the row
assembly in plain Python floats, with the array code's operations in
the same order, so the strategies are bit-identical (only the KKT
test's load sums may round differently, by an ulp).  Larger rounds run
in array code.  The constant sits below the measured whole-round
break-even (at par near 96 cells, the array code ahead from 128).  The
crossover's KKT test is the float one on the same small rounds; its
ratio test and release run in plain floats at every size, the ratio
test over the support cells and the idle rows only.

`verify_equilibrium` checks any candidate strategy against the
definition, independently of the solver.  It first checks that the rows
are distributions: one min and one max for the range, one reduction for
the row sums, and the rows of groups without idle robots only where
there are any.  It then recomputes one load vector and one (g, M+1)
utility matrix and takes masked row reductions over it: a fixed number
of numpy calls whatever g and M.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# _interior's M x M coupling solve; the benchmark's linalg layer wraps this name
from numpy.linalg import solve as solve_linear

__all__ = [
    "EPS_ZERO",
    "EPS_EQ",
    "EPS_SUM",
    "AllocationError",
    "ProblemInstance",
    "MixedStrategy",
    "EquilibriumReport",
    "AllocationResult",
    "draw_action",
    "allocate",
    "verify_equilibrium",
]

EPS_ZERO = 1e-12  # support membership and probability range tolerance
EPS_EQ = 1e-8     # accepted expected-utility residual in the oracle
EPS_SUM = 1e-9    # accepted row-normalization error

_CERT_TOL = 0.1 * EPS_EQ  # KKT residual allocate accepts before the oracle sees it
_SMALL_CELLS = 64         # merged cells (h x M) at or below which a round runs in plain floats
_MAX_INTERIOR = 50        # interior-point iterations before the crossover takes over
_MAX_CROSSOVER = 200      # crossover steps before allocate gives up
_MU_POLISH = 1e-6         # mean complementarity, per idle robot, at which the interior
                          # method hands its iterate to the crossover


class AllocationError(RuntimeError):
    """The crossover hit its step cap."""


# ---------------------------------------------------------------------------
# value types


@dataclasses.dataclass(frozen=True)
class ProblemInstance:
    """One round of the allocation game.

    gamma:   (M,) task tuning parameters, all > 0
    signals: (M,) completeness signals in [0, 1]
    costs:   (g, M) nonnegative per-group task costs
    counts:  (g, M+1) integer head counts; column 0 is the idle pool
    """

    gamma: np.ndarray
    signals: np.ndarray
    costs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        signals = np.atleast_1d(np.asarray(self.signals, dtype=float))
        costs = np.atleast_2d(np.asarray(self.costs, dtype=float))
        counts = np.atleast_2d(np.asarray(self.counts, dtype=float))
        m = gamma.shape[0]
        g = costs.shape[0]
        if m == 0:
            raise ValueError("need at least one task")
        if g == 0:
            raise ValueError("need at least one group")
        if gamma.ndim != 1:
            raise ValueError(f"gamma shape {gamma.shape} is not (M,)")
        if signals.shape != (m,):
            raise ValueError(f"signals shape {signals.shape} != ({m},)")
        if costs.shape != (g, m):
            raise ValueError(f"costs shape {costs.shape} != ({g}, {m})")
        if counts.shape != (g, m + 1):
            raise ValueError(f"counts shape {counts.shape} != ({g}, {m + 1})")
        # One min and one max per field; a NaN makes both comparisons false.
        if not (gamma.min() > 0.0 and gamma.max() < math.inf):
            raise ValueError("gamma entries must be finite and > 0")
        if not (signals.min() >= 0.0 and signals.max() <= 1.0):
            raise ValueError("signals must lie in [0, 1]")
        if not (costs.min() >= 0.0 and costs.max() < math.inf):
            raise ValueError("costs must be finite and >= 0")
        # the bound keeps the int64 cast exact; fmod sees finite values only
        if (not (counts.min() >= 0.0 and counts.max() < 2.0 ** 63)
                or np.fmod(counts, 1.0).any()):
            raise ValueError("counts must be nonnegative integers")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @classmethod
    def _trusted(cls, gamma, signals, costs, counts):
        """Instance from arrays already in the form __post_init__ produces.

        float64 gamma (M,), signals (M,) and costs (g, M), int64 counts
        (g, M+1), each inside the ranges __post_init__ checks.  Nothing
        is converted or checked: the simulation builds an instance every
        step from a scenario config validated once at load.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "signals", signals)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "counts", counts)
        return self

    @property
    def n_tasks(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_groups(self) -> int:
        return self.costs.shape[0]

    @property
    def idle_counts(self) -> np.ndarray:
        return self.counts[:, 0]

    @property
    def task_totals(self) -> np.ndarray:
        """|n_k|: committed robots per task, summed over groups."""
        return self.counts[:, 1:].sum(axis=0)


@dataclasses.dataclass(frozen=True)
class MixedStrategy:
    """Per-group action distributions; probs[i, 0] is group i's idle mass."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.atleast_2d(np.asarray(self.probs, dtype=float))
        object.__setattr__(self, "probs", probs)


@dataclasses.dataclass(frozen=True)
class EquilibriumReport:
    """Worst-case equilibrium residuals of a strategy, per the oracle."""

    max_support_residual: float
    max_dominance_violation: float
    valid: bool


@dataclasses.dataclass(frozen=True)
class AllocationResult:
    """allocate's strategy, its oracle report (None without the check),
    and how the round was solved: `path` is "warm" (the closed-form warm
    start), "crossover" (the crossover from the warm start) or "interior"
    (the interior-point method and the crossover from its last iterate),
    and `iterations` counts interior iterations plus crossover steps.
    The strategy's rows are the point the round's KKT test passed, float
    dust included: each group's task probabilities, its idle mass 1
    minus their sum.
    """

    strategy: MixedStrategy
    report: EquilibriumReport | None
    path: str
    iterations: int


# ---------------------------------------------------------------------------
# sampling


def draw_action(row: list[float], u: float) -> int:
    """The first action whose running sum of the row exceeds u, else the
    last action with positive probability (u fell into rounding dust)."""
    acc = 0.0
    last_positive = 0
    for a, p in enumerate(row):
        if p > 0.0:
            last_positive = a
        acc += p
        if u < acc:
            return a
    return last_positive


# ---------------------------------------------------------------------------
# the potential-game solver behind allocate


def _merge_groups(costs: np.ndarray) -> tuple[list[int], list[int]]:
    """Pool groups with bit-identical cost vectors (they are one group).

    Returns each group's merged index and each merged group's first
    member, merged groups in order of first appearance.  Rows are keyed
    by their bytes, so 0.0 and -0.0 costs stay apart.
    """
    raw, width = costs.tobytes(), costs.itemsize * costs.shape[1]
    index_of, merged_idx, first = {}, [], []
    for i in range(costs.shape[0]):
        j = index_of.setdefault(raw[i * width:(i + 1) * width], len(first))
        if j == len(first):
            first.append(i)
        merged_idx.append(j)
    return merged_idx, first


def _solve_modes(gamma, s, c, n0, ntask, sup, busy, p):
    """Solve the equilibrium equations for fixed supports and modes at a
    current point p, (g, M) probabilities.

    A busy group with one supported task puts probability 1 on it, so its
    load is a constant.  Each other supported cell of a busy group is an
    edge between the group and the task, in a graph where the pinned
    tasks (those with idle-mode groups) count as one root node.  On a
    forest the equations are triangular, the spanning-tree basis of
    network simplex (Ahuja, Magnanti & Orlin, Network Flows, 1993,
    ch. 11), and are solved by substitution in plain floats:

    - Prices q_k = L_k / gamma_k spread from the root.  A pinned task's
      is its first idle-mode group's (in ascending order) zero-utility
      level, 1 - s_k - c_k.  A busy group then earns w_ik - q_k on the
      task it was reached from, with w_ik = 1 - s_k - c_ik, and its
      other tasks' prices follow from that value.
    - A tree without a pinned task fixes its prices up to one common
      shift, which its mass balance (its groups' idle robots make up its
      tasks' loads) sets with one division by its sum of gamma_k.
    - Masses peel off from the leaves: a leaf task's remaining load over
      its group's n0, a leaf group's remaining row mass, and on a pinned
      task what the busy groups leave of its load, shared by its
      idle-mode groups with equal probabilities.

    A cell closes a cycle where its task and busy group are both reached
    already, or where it is an idle-mode group's on a pinned task after
    the task's first (through the root).  Mass moved around a cycle keeps
    every busy row sum and load, so the equations leave it free: each
    such cell is held at p, its load and row mass moved to the
    right-hand side before the leaves peel.  Returns the (g, M)
    probabilities with a dict of each held cell's reduced cost
    r = w_ik - q_k - v_i (v_i = 0 in idle mode), by which Phi falls per
    robot of group i moved into the cell around its cycle.  Entries can
    be negative on a support that holds no equilibrium; the caller tests
    the result.
    """
    g, m = c.shape
    tasks, groups = sup.T.nonzero()
    # plain floats: numpy scalar arithmetic costs more than this walk
    gamma_, s_, n0_, ntask_ = gamma.tolist(), s.tolist(), n0.tolist(), ntask.tolist()
    busy_ = busy.tolist()
    idles = {}     # pinned task: its idle-mode groups, ascending
    tasks_of = {}  # busy group: its supported tasks, ascending
    for k, i in zip(tasks.tolist(), groups.tolist()):
        if busy_[i]:
            tasks_of.setdefault(i, []).append(k)
        else:
            idles.setdefault(k, []).append(i)
    flat, vals = [], []  # (g, M) indices and values of the solved cells
    groups_on = [[] for _ in range(m)]  # coupled busy groups per task
    for i, ks in tasks_of.items():
        if len(ks) == 1:
            ntask_[ks[0]] += n0_[i]
            flat.append(i * m + ks[0])
            vals.append(1.0)
        else:
            for k in ks:
                groups_on[k].append(i)

    price = {k: 1.0 - s_[k] - c.item(ids[0], k) for k, ids in idles.items()}
    value = {}  # coupled busy group: its utility on each of its tasks
    edges = []  # tree edges (group, task, whether the task hangs below), parents first
    held = {}   # cycle cell (group, task): its reduced cost

    def hold(i, k):
        held[i, k] = 1.0 - s_[k] - c.item(i, k) - price[k] - value.get(i, 0.0)

    for k, ids in idles.items():  # each pinned task keeps one idle-mode group
        while len(ids) > 1:
            hold(ids.pop(), k)

    def spread(stack):
        """Value the groups and price the tasks the priced tasks on the
        stack reach, each task with the group it was reached from; a
        group other than its parent valued already closes a cycle (the
        priced tasks a group reaches are still on the stack)."""
        while stack:
            k, parent = stack.pop()
            for i in groups_on[k]:
                if i in value:
                    if i != parent:
                        hold(i, k)
                    continue
                value[i] = 1.0 - s_[k] - c.item(i, k) - price[k]
                edges.append((i, k, False))
                for j in tasks_of[i]:
                    if j != k and j not in price:
                        price[j] = 1.0 - s_[j] - c.item(i, j) - value[i]
                        edges.append((i, j, True))
                        stack.append((j, i))

    spread([(k, None) for k in idles])
    for k in range(m):
        if groups_on[k] and k not in price:
            # a tree without a pinned task: price k at 0, then shift every
            # price by the tree's mass balance
            start = len(edges)
            price[k] = 0.0
            spread([(k, None)])
            tree = edges[start:]
            ks = [k] + [j for _, j, below in tree if below]
            heads = sum(n0_[i] for i, _, below in tree if not below)
            # left to right from 0.0: Python 3.12's sum() compensates
            # float sums, so it rounds apart from earlier versions
            load = mass = 0.0
            for j in ks:
                load += ntask_[j] - gamma_[j] * price[j]
                mass += gamma_[j]
            shift = (heads + load) / mass
            for j in ks:
                price[j] += shift

    rest = {k: gamma_[k] * q - ntask_[k] for k, q in price.items()}  # load not yet placed
    left = dict.fromkeys(value, 1.0)                                    # row mass not yet placed
    for i, k in held:
        x = p.item(i, k)
        rest[k] -= n0_[i] * x
        if i in left:
            left[i] -= x
        flat.append(i * m + k)
        vals.append(x)
    for i, k, below in reversed(edges):
        if below:
            x = rest[k] / n0_[i]
            left[i] -= x
        else:
            x = left[i]
            rest[k] -= n0_[i] * x
        flat.append(i * m + k)
        vals.append(x)
    for k, ids in idles.items():
        x = rest[k] / sum(n0_[i] for i in ids)
        flat += [i * m + k for i in ids]
        vals += [x] * len(ids)
    probs = np.zeros((g, m))
    probs.put(flat, vals)
    return probs, held


def _certified(w, gamma, n0, ntask, probs):
    """KKT test of merged-group task probabilities, tighter than the oracle.

    Every supported action of a group, idling included while idle mass
    remains, must earn the group's best utility within _CERT_TOL, and
    every row must be a sub-distribution.  Rows without idle robots
    carry no mass and are skipped.
    """
    util = w - (ntask + n0 @ probs) / gamma
    best = np.maximum(util.max(axis=1), 0.0)
    mass = probs.sum(axis=1)
    bad_cell = np.where(probs > EPS_ZERO, best[:, None] - util > _CERT_TOL, probs < -EPS_ZERO)
    bad_row = (mass > 1.0 + EPS_ZERO) | ((mass < 1.0 - EPS_ZERO) & (best > _CERT_TOL) & (n0 > 0))
    return not (bad_cell.any() or bad_row.any())


def _certified_floats(util, n0, probs):
    """_certified on lists, given each row's utilities
    util = 1 - s - c - (ntask + n0 @ probs) / gamma."""
    for row, uj, nj in zip(probs, util, n0):
        mass = _row_sum(row)
        best = max(max(uj), 0.0)
        if (mass > 1.0 + EPS_ZERO or min(row) < -EPS_ZERO
                or (mass < 1.0 - EPS_ZERO and best > _CERT_TOL and nj > 0.0)
                or any(best - u > _CERT_TOL for p, u in zip(row, uj) if p > EPS_ZERO)):
            return False
    return True


def _warm_start(gamma, s, c, n0, ntask):
    """Every task to its cheapest group(s) with idle robots, everyone
    idling: the closed-form (g, M) task probabilities of that support.

    Each supported task is pinned at its cheapest groups' zero-utility
    level, and those groups share the excess load with equal
    probabilities.  A task no group supports has cmin = inf and an empty
    pool: its excess, -inf, is not divided and its share stays 0.
    """
    cost = np.where((n0 > 0)[:, None], c, np.inf)
    cmin = cost.min(axis=0)
    excess = gamma * (1.0 - s) - ntask - gamma * cmin
    sup = (cost == cmin) & (excess > 0.0)
    pool = n0 @ sup
    return sup * np.divide(excess, pool, out=np.zeros(c.shape[1]), where=pool > 0)


def _step_to_boundary(v, dv):
    """Largest step in (0, 1] along dv that keeps the positive v nonnegative."""
    return 1.0 / max(1.0, -float((dv / v).min()))


def _interior(gamma, s, c, n0, ntask):
    """Mehrotra predictor-corrector interior point on min Phi.

    The variables are the (h, M+1) masses x of the h merged groups with
    idle robots, column 0 the idle slack, so each group's row sums to
    n0_i; z >= 0 are their duals and y the groups' row prices.  Each
    Newton step eliminates every group's equality row in closed form
    and takes the load coupling through one M x M solve of the SPD
    matrix Gamma + A S A^T, with S = x / z and A the per-group
    projection of the task columns.

    The steps run until the mean complementarity mu is below _MU_POLISH
    per idle robot, or for _MAX_INTERIOR steps.  Returns the last
    iterate as _crossover's start point: the (g, M) support x > z, the
    busy groups (idle slack below its dual, and a supported cell), the
    (g, M) probabilities x / n0 projected onto the crossover's face
    (zero off the support, busy rows scaled to sum 1, the others to at
    most 1: at mu's level the idle slack and the cells off the support
    still hold up to 7e-3 of a busy row), and the number of Newton steps.
    """
    live = n0 > 0
    w = (1.0 - s - c)[live]
    cap = n0[live]
    h, m = w.shape
    size = h * (m + 1)
    x = np.repeat((cap / (m + 1))[:, None], m + 1, axis=1)
    util = w - (ntask + x[:, 1:].sum(axis=0)) / gamma
    y = -1.0 - np.maximum(util.max(axis=1), 0.0)
    z = np.empty_like(x)
    z[:, 0] = -y
    z[:, 1:] = -y[:, None] - util  # dual feasible: every z >= 1
    mu_stop = _MU_POLISH * cap.mean()
    for steps in range(_MAX_INTERIOR):
        xz = x * z
        mu = float(xz.sum()) / size
        if mu < mu_stop:
            break
        # minus the dual and primal residuals.  The start is feasible, but
        # each Newton step feeds the rounding of the last back in, so the
        # rows drift, by under 5e-12 of n0 on the tests' tie and g = 64
        # sets; the hand-over below projects onto the crossover's face.
        rd = z.copy()
        rd[:, 0] += y
        rd[:, 1:] -= ((ntask + np.einsum("ij->j", x[:, 1:])) / gamma - w) - y[:, None]
        rp = cap - np.einsum("ij->i", x)
        scale = x / z
        row = np.einsum("ij->i", scale)
        task = scale[:, 1:]
        share = task / row[:, None]
        coupling = task.T @ share
        coupling *= -1.0
        coupling.flat[::m + 1] += gamma + np.einsum("ij->j", task)

        def newton(rc):
            r = rd - rc / x
            a = (rp - np.einsum("ij,ij->i", scale, r)) / row
            t = solve_linear(coupling, np.einsum("ij,ij->j", task, r[:, 1:] + a[:, None]))
            dy = a + share @ t
            dx = scale * (r + dy[:, None])
            dx[:, 1:] -= task * t
            return dx, dy, -(rc + z * dx) / x

        dx, _, dz = newton(xz)
        ap, ad = _step_to_boundary(x, dx), _step_to_boundary(z, dz)
        mu_aff = float(np.einsum("ij,ij->", x + ap * dx, z + ad * dz)) / size
        dx, dy, dz = newton(xz + dx * dz - (mu_aff / mu) ** 3 * mu)
        ap, ad = 0.99 * _step_to_boundary(x, dx), 0.99 * _step_to_boundary(z, dz)
        x, y, z = x + ap * dx, y + ad * dy, z + ad * dz
    else:
        steps = _MAX_INTERIOR
    sup = np.zeros(c.shape, dtype=bool)
    busy = np.zeros(n0.shape[0], dtype=bool)
    p = np.zeros(c.shape)
    sup[live] = on = x[:, 1:] > z[:, 1:]
    busy[live] = (x[:, 0] < z[:, 0]) & on.any(axis=1)
    p[live] = x[:, 1:] / cap[:, None]
    p[~sup] = 0.0
    mass = p.sum(axis=1)
    p /= np.where(busy, mass, np.maximum(mass, 1.0))[:, None]
    return sup, busy, p, steps


def _crossover(gamma, s, c, n0, ntask, sup, busy, p):
    """Primal active-set method on min Phi from a start point (Megiddo
    1991), on the support forest as in network simplex.

    The start is a (g, M) support, the busy groups, each with a
    supported cell (its last never empties), and (g, M) probabilities p
    on the face of the row constraints: busy rows sum to 1 and the
    others to at most 1.  Cells off the support are never read; a cell
    that joins the support starts at 0.  Each step solves the pattern
    with _solve_modes at p.
    If every held cell's reduced cost is within _CERT_TOL of 0, the
    round ends if that solution passes the KKT test (in floats on at
    most _SMALL_CELLS cells); else the step runs toward it, up to length
    1.  Else Phi falls linearly around the cycle of the largest |r|, and
    the step runs without a cap along the difference a second solve
    makes with that cell bumped by sign(r).  Either step stops where a
    cell empties (it leaves the support) or an idle row fills (it turns
    busy).  A full step ends at the solution, so the KKT test's
    utilities price the release of its largest violation: a cell outside
    the support that earns more than its row's value (its best supported
    utility if busy, else 0), or a busy row valued below 0.  The ratio
    test and the release run in plain floats, the ratio test over the
    support cells and the idle rows only.  sup, busy and p are updated
    in place.  Returns the (g, M) task probabilities and the number of
    steps.
    """
    m = c.shape[1]
    small = c.size <= _SMALL_CELLS
    w = 1.0 - s - c
    cap = n0.tolist()
    for step in range(1, _MAX_CROSSOVER + 1):
        probs, held = _solve_modes(gamma, s, c, n0, ntask, sup, busy, p)
        cell, r = max(held.items(), key=lambda item: abs(item[1]), default=(None, 0.0))
        if abs(r) <= _CERT_TOL:
            util = w - (ntask + n0 @ probs) / gamma
            if (_certified_floats(util.tolist(), cap, probs.tolist()) if small
                    else _certified(w, gamma, n0, ntask, probs)):
                return probs, step
            ends, base, reach = probs, p, 1.0
        else:
            bumped = p.copy()
            bumped[cell] += math.copysign(1.0, r)
            ends = _solve_modes(gamma, s, c, n0, ntask, sup, busy, bumped)[0]
            base, reach = probs, math.inf
        # ratio test over the support cells and the idle rows they fill: the
        # step's own end, then each emptying cell, then each filling idle row
        cells = np.flatnonzero(sup)
        at = p.take(cells).tolist()
        d = (ends - base).take(cells).tolist()
        busy_ = busy.tolist()
        growth, filled = {}, {}
        length, block = reach, None
        for f, x, dk in zip(cells.tolist(), at, d):
            i = f // m
            growth[i] = growth.get(i, 0.0) + dk
            filled[i] = filled.get(i, 0.0) + x
            if dk < 0.0 and x / -dk < length:
                length, block = x / -dk, (i, f - i * m)
        for i, grown in growth.items():
            if not busy_[i] and grown > 0.0:
                room = max(1.0 - filled[i], 0.0) / grown
                if room < length:
                    length, block = room, (i, None)
        p.put(cells, [max(x + length * dk, 0.0) for x, dk in zip(at, d)])
        if block is None and reach == 1.0:
            # a full step ends at the solution, which util prices
            gain = 0.0
            for i, (ui, on, ni) in enumerate(zip(util.tolist(), sup.tolist(), cap)):
                if ni > 0.0:
                    value = max([u for u, b in zip(ui, on) if b]) if busy_[i] else 0.0
                    if -value > gain:
                        gain, block = -value, (i, None)
                    for k, (u, b) in enumerate(zip(ui, on)):
                        if not b and u - value > gain:
                            gain, block = u - value, (i, k)
        # a bound the step reached turns active, a released one inactive
        if block is not None:
            i, k = block
            if k is None:
                busy[i] = not busy_[i]
            else:
                sup[i, k] = not sup[i, k]
                p[i, k] = 0.0
    raise AllocationError(f"crossover did not finish in {_MAX_CROSSOVER} steps")


def _row_sum(xs):
    """Sum of a list in the order ndarray.sum(axis=1) uses for rows of up
    to 128 entries (numpy's pairwise sum: one running total below 8
    entries, else eight interleaved accumulators), so float rounds round
    their row sums exactly as the array code does.  Their rows have at
    most _SMALL_CELLS <= 128 entries.
    """
    n = len(xs)
    if n < 8:
        total = -0.0
        for x in xs:
            total += x
        return total
    stop = n - n % 8
    acc = xs[:8]
    for i in range(8, stop, 8):
        acc = [a + x for a, x in zip(acc, xs[i:i + 8])]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for x in xs[stop:]:
        total += x
    return total


def _allocate_small(instance: ProblemInstance, merged_idx: list[int],
                    first: list[int]) -> tuple[list[list[float]], str, int]:
    """allocate's round in plain floats; returns the (g, M+1) rows, the
    path and the iteration count.

    On allocate's merged groups, the same float operations in the same
    order as the array code: _warm_start, the KKT test of _certified (as
    _certified_floats) and the row assembly of _allocate_arrays.  A warm
    start that fails the test goes to _crossover from the warm start.
    """
    gamma, s = instance.gamma.tolist(), instance.signals.tolist()
    counts = instance.counts.tolist()
    g, m = instance.costs.shape
    cost_rows = instance.costs.tolist()
    c = [cost_rows[i] for i in first]
    n0 = [0] * len(first)
    for i, j in enumerate(merged_idx):
        n0[j] += counts[i][0]
    n0 = [float(n) for n in n0]
    ntask = [float(sum(col)) for col in list(zip(*counts))[1:]]

    probs = [[0.0] * m for _ in c]
    path, iterations = "warm", 0
    live = [j for j, n in enumerate(n0) if n > 0.0]
    if live:
        dots = [0.0] * m
        for k in range(m):
            cmin = min(c[j][k] for j in live)
            target = gamma[k] * (1.0 - s[k]) - ntask[k]
            if target - gamma[k] * cmin > 0.0:
                sup = [j for j in live if c[j][k] == cmin]
                pool = 0.0
                for j in sup:
                    pool += n0[j]
                shared = (target - gamma[k] * cmin) / pool
                for j in sup:
                    probs[j][k] = shared
                    dots[k] += n0[j] * shared
        quote = [(nk + dk) / gk for nk, dk, gk in zip(ntask, dots, gamma)]
        free = [1.0 - sk for sk in s]
        util = [[fk - ck - qk for fk, ck, qk in zip(free, cj, quote)] for cj in c]
        if not _certified_floats(util, n0, probs):
            # the crossover starts at the warm start, overfilled rows busy and scaled to 1
            sums = [_row_sum(row) for row in probs]
            start = [[p / t for p in row] if t > 1.0 else row for row, t in zip(probs, sums)]
            probs, iterations = _crossover(
                instance.gamma, instance.signals, np.array(c), np.array(n0), np.array(ntask),
                np.array(probs) > 0.0, np.array(sums) > 1.0 + EPS_ZERO, np.array(start))
            probs, path = probs.tolist(), "crossover"

    out = []
    for i in range(g):
        if counts[i][0] > 0:
            row = probs[merged_idx[i]]
            out.append([1.0 - _row_sum(row), *row])
        else:
            out.append([1.0] + [0.0] * m)
    return out, path, iterations


def allocate(instance: ProblemInstance, *, check: bool = True) -> AllocationResult:
    """Equilibrium assignment probabilities for one allocation round.

    Groups with identical cost vectors are merged, and the merged
    round's size picks its code once: at most _SMALL_CELLS merged cells
    (h x M) run in plain floats, more in array code.  Then the potential
    Phi (see the module docstring) is minimised:

    1. Each task goes to its cheapest group(s), everyone idling, and
       that support is solved in closed form (path "warm").
    2. Otherwise one search, the crossover, runs from a start point:
       an active-set method whose first step solves the start's
       (support, busy) pattern, any cell that closes a cycle held at
       the start, and which moves one constraint per step until a
       solution passes the test.  In every solve a busy group on one
       task is a constant load, and only the coupled cells are
       unknowns.  A float round starts it at the warm start: the rows
       that overfill are busy, each row above 1 scaled back to 1 (path
       "crossover").
    3. An array round first runs an interior-point method on Phi until
       its mean complementarity is below _MU_POLISH per idle robot, or
       for _MAX_INTERIOR iterations, and the crossover starts at its
       last iterate, projected onto the crossover's face (path
       "interior").

    Each group's row is the point the KKT test passed, as it is: dust
    within EPS_ZERO of a bound stays, inside the oracle's tolerances.
    Groups without idle robots get degenerate idle rows.  With `check`
    the returned strategy is certified by the independent oracle,
    verify_equilibrium: a fixed set of numpy calls on (g, M+1) arrays,
    which costs about as much as a whole warm round of a few cells and
    under half of a warm array round.  A caller that trusts the solver
    in a hot loop, as the simulation does, passes check=False.  The
    result's `path` says which step ended the round and `iterations`
    counts its interior iterations plus crossover steps.  Raises
    AllocationError only if the crossover reaches _MAX_CROSSOVER steps.
    """
    merged_idx, first = _merge_groups(instance.costs)
    if len(first) * instance.n_tasks <= _SMALL_CELLS:
        rows, path, iterations = _allocate_small(instance, merged_idx, first)
        probs = np.array(rows)
    else:
        probs, path, iterations = _allocate_arrays(instance, merged_idx, first)
    strategy = MixedStrategy(probs)
    report = verify_equilibrium(instance, strategy) if check else None
    return AllocationResult(strategy, report, path, iterations)


def _allocate_arrays(instance: ProblemInstance, merged_idx: list[int],
                     first: list[int]) -> tuple[np.ndarray, str, int]:
    """allocate's round in array code on the merged groups; returns the
    (g, M+1) rows, the path and the iteration count."""
    gamma, s = instance.gamma, instance.signals
    c = instance.costs[first]
    n0 = np.bincount(merged_idx, instance.idle_counts)
    ntask = instance.task_totals.astype(float)
    probs_m = _warm_start(gamma, s, c, n0, ntask)
    path, iterations = "warm", 0
    if not _certified(1.0 - s - c, gamma, n0, ntask, probs_m):
        sup, busy, p, steps = _interior(gamma, s, c, n0, ntask)
        probs_m, crossed = _crossover(gamma, s, c, n0, ntask, sup, busy, p)
        path, iterations = "interior", steps + crossed

    rows = probs_m[merged_idx]
    probs = np.column_stack([1.0 - rows.sum(axis=1), rows])
    no_idle = instance.idle_counts == 0
    if no_idle.any():
        probs[no_idle] = 0.0
        probs[no_idle, 0] = 1.0
    return probs, path, iterations


# ---------------------------------------------------------------------------
# the oracle


def verify_equilibrium(instance: ProblemInstance, strategy: MixedStrategy) -> EquilibriumReport:
    """Check the equilibrium conditions directly from the definitions.

    Raises ValueError unless the strategy is well formed: every entry in
    [0, 1] within EPS_ZERO (NaN fails), every row summing to 1 within
    EPS_SUM, and the rows of groups without idle robots, which make no
    decision, idle within EPS_ZERO.  For every group with idle robots:
    all supported actions must share one expected utility (within
    EPS_EQ) and no other action may beat that value by more than EPS_EQ.
    This is a vectorised re-computation from the definitions,
    independent of the solver: one load vector E[N_k], one (g, M+1)
    utility matrix with the idle column at zero, and masked row
    reductions over it.
    """
    probs = strategy.probs
    if probs.shape != (instance.n_groups, instance.n_tasks + 1):
        raise ValueError("strategy dimensions do not match instance")
    # One min and one max; a NaN makes both comparisons false.
    if not (probs.min() >= -EPS_ZERO and probs.max() <= 1.0 + EPS_ZERO):
        raise ValueError("probabilities outside [0, 1]")
    err = float(abs(probs.sum(axis=1) - 1.0).max())
    if err > EPS_SUM:
        raise ValueError(f"row sums off by {err:.3e} (> {EPS_SUM})")
    idle = instance.idle_counts
    load = instance.task_totals + idle @ probs[:, 1:]
    util = np.zeros(probs.shape)
    util[:, 1:] = (instance.gamma - load) / instance.gamma - instance.signals - instance.costs
    deciding = idle > 0
    if not deciding.all():
        stuck = ~deciding & (abs(probs[:, 0] - 1.0) > EPS_ZERO)
        if stuck.any():
            raise ValueError(f"group {int(stuck.argmax())} has no idle robots "
                             "but row is not idle")
        util, probs = util[deciding], probs[deciding]
    supported = probs > EPS_ZERO
    best = np.where(supported, util, -np.inf).max(axis=1)
    worst = np.where(supported, util, np.inf).min(axis=1)
    rival = np.where(supported, -np.inf, util).max(axis=1)
    worst_spread = float((best - worst).max(initial=0.0))
    worst_dominance = float((rival - best).max(initial=0.0))
    valid = worst_spread <= EPS_EQ and worst_dominance <= EPS_EQ
    return EquilibriumReport(worst_spread, worst_dominance, valid)
