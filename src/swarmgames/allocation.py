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
equilibrium equations on a support pattern.  A busy group (one whose
idle action is out of the support) with a single supported task puts its
whole mass there.  Each other cell of a busy group joins it to a task,
and with the tasks that idle-mode groups pin as one root, those cells
form a graph.  On a forest the equations are triangular and are solved
by substitution.  Mass moved around a cycle changes no row sum or load,
so a solve holds each cell that closes one at the current point and
reports the slope of Phi around it.  There are two searches and one
finish:

- Principal pivoting on the (support, busy) pattern (Cottle, Pang &
  Stone 1992, ch. 4): solve the equations on it, flip its largest KKT
  violation and repeat, for at most _MAX_PIVOTS solves.
- A primal-dual interior-point method (Mehrotra's predictor-corrector)
  on Phi.  It needs a number of iterations that barely depends on g,
  and each iteration costs one M x M solve plus vectorised (g, M+1)
  passes, because each group couples only its own cells and the tasks
  couple through M loads.  Once its iterates are close to the optimum,
  each new pattern they show is solved at once.
- A crossover from the last interior iterate where no such solve
  certifies: a primal active-set method on Phi that steps toward each
  pattern's solution, or downhill around a cycle where Phi slopes, until
  a bound blocks, and moves one constraint per step.

Most rounds a simulation meets are small (the monitoring scenario's
4 groups x 5 tasks, the colony's 1 x 2), and most of those end at the
closed-form warm start: one diagonal solve.  On arrays of a few dozen
cells numpy's fixed cost per call outweighs the arithmetic, so rounds of
at most `_SMALL_CELLS` cells (g x M) run the warm start, its KKT test
and the row assembly in plain Python floats, with the same operations
in the same order, so the strategies are bit-identical (only the KKT
test's load sums may round differently, by an ulp).  Larger rounds run
those steps in array code.  Both kinds share one group merge, a dict
keyed on each cost row's bytes, and the searches.  The constant
sits below the measured whole-round break-even (at par near 96 cells,
the array code ahead from 128).  The same constant picks the search: a
warm-start miss with at most `_SMALL_CELLS` merged cells runs the
pivots, and a larger one, or one the pivots give up on, the interior
method.

`verify_equilibrium` checks any candidate strategy against the
definition, independently of the solver.  It first checks that the rows
are distributions: one min and one max for the range, one reduction for
the row sums, and the rows of groups without idle robots only where
there are any.  It then recomputes one load vector and one (g, M+1)
utility matrix and takes masked row reductions over it: a fixed number
of numpy calls whatever g and M.
"""

from __future__ import annotations

import bisect
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
    "assignment_cdf",
    "draw_action",
    "allocate",
    "verify_equilibrium",
]

EPS_ZERO = 1e-12  # support membership and snap-to-bound tolerance
EPS_EQ = 1e-8     # accepted expected-utility residual in the oracle
EPS_SUM = 1e-9    # accepted row-normalization error

_CERT_TOL = 0.1 * EPS_EQ  # KKT residual allocate accepts before the oracle sees it
_SMALL_CELLS = 64         # g x M at or below which rounds run in plain floats and pivot
_MAX_PIVOTS = 4           # pattern solves before the interior method takes over a small miss
_MAX_INTERIOR = 50        # interior-point iterations before the crossover takes over
_MAX_CROSSOVER = 200      # crossover steps before allocate gives up
_MU_POLISH = 1e-6         # mean complementarity, per idle robot, below which each new pattern
                          # the interior iterates show is polished once
_MU_FLOOR = 1e-15         # ... at which the interior method stops


class AllocationError(RuntimeError):
    """The crossover after the interior search hit its step cap."""


class SingularSystem(ArithmeticError):
    """The busy groups and tasks of a support pattern close a cycle (only
    the pivots' solves, made without a current point, can raise it)."""


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
    start), "pivot" (pattern pivots from the warm start) or "interior"
    (the interior-point support search, and the crossover where it ran),
    and `iterations` counts pivots plus interior iterations plus
    crossover steps.
    """

    strategy: MixedStrategy
    report: EquilibriumReport | None
    path: str
    iterations: int


# ---------------------------------------------------------------------------
# sampling


def assignment_cdf(strategy: MixedStrategy, i: int) -> tuple[list[float], int]:
    """Group i's inverse-CDF table for `draw_action`.

    The edges are the running maximum of the cumulative probabilities of
    actions 0..M, so they ascend even if float dust makes a probability
    negative, and the first edge above u is the first cumulative sum
    above u.  The second entry is the last action with positive
    probability, the draw for a u past every edge.
    """
    edges = []
    acc = 0.0
    top = -math.inf
    last_positive = 0
    for a, p in enumerate(strategy.probs[i].tolist()):
        if p > 0.0:
            last_positive = a
        acc += p
        if acc > top:
            top = acc
        edges.append(top)
    return edges, last_positive


def draw_action(cdf: tuple[list[float], int], u: float) -> int:
    """The first action whose cumulative probability exceeds u."""
    edges, last_positive = cdf
    a = bisect.bisect_right(edges, u)
    return a if a < len(edges) else last_positive  # u fell into rounding dust


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


def _solve_modes(gamma, s, c, n0, ntask, sup, busy, p=None):
    """Solve the equilibrium equations for fixed supports and modes.

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
    every busy row sum and load, so the equations leave it free: that
    raises SingularSystem, unless a current point p, (g, M)
    probabilities, is given.  Then each such cell is held at p, its load
    and row mass moved to the right-hand side before the leaves peel,
    and the call returns the (g, M) probabilities with a dict of each
    held cell's reduced cost r = w_ik - q_k - v_i (v_i = 0 in idle
    mode), by which Phi falls per robot of group i moved into the cell
    around its cycle.  Entries can be negative on a support that holds
    no equilibrium; the caller tests the result.
    """
    g, m = c.shape
    if p is None and not busy.any():
        # Pinned tasks are independent; no linear system needed.  A task
        # no group supports has cmin = inf and an empty pool: its excess,
        # -inf, is not divided and its share stays 0.
        pool = n0 @ sup
        excess = gamma * (1.0 - s) - ntask - gamma * np.where(sup, c, np.inf).min(axis=0)
        return sup * np.divide(excess, pool, out=np.zeros(m), where=pool > 0)

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
        if p is None:
            raise SingularSystem("the busy groups and tasks close a cycle")
        held[i, k] = 1.0 - s_[k] - c.item(i, k) - price[k] - value.get(i, 0.0)

    for k, ids in idles.items():  # with p, each pinned task keeps one idle-mode group
        while p is not None and len(ids) > 1:
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
            shift = ((heads + sum(ntask_[j] - gamma_[j] * price[j] for j in ks))
                     / sum(gamma_[j] for j in ks))
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
    return probs if p is None else (probs, held)


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


def _certified_floats(free, c, n0, quote, probs):
    """_certified on lists, given free = 1 - s and the prices
    quote = (ntask + n0 @ probs) / gamma; returns the verdict, each row's
    utilities and each row's mass."""
    util = [[fk - ck - qk for fk, ck, qk in zip(free, cj, quote)] for cj in c]
    mass = [_row_sum(row) for row in probs]
    for row, uj, mj, nj in zip(probs, util, mass, n0):
        best = max(max(uj), 0.0)
        if (mj > 1.0 + EPS_ZERO or min(row) < -EPS_ZERO
                or (mj < 1.0 - EPS_ZERO and best > _CERT_TOL and nj > 0.0)
                or any(best - u > _CERT_TOL for p, u in zip(row, uj) if p > EPS_ZERO)):
            return False, util, mass
    return True, util, mass


def _warm_start(gamma, s, c, n0, ntask):
    """Every task to its cheapest group(s) with idle robots, everyone
    idling: the closed-form (g, M) task probabilities of that support."""
    cost = np.where((n0 > 0)[:, None], c, np.inf)
    cmin = cost.min(axis=0)
    sup = (cost == cmin) & (gamma * (1.0 - s) - ntask - gamma * cmin > 0.0)
    return _solve_modes(gamma, s, c, n0, ntask, sup, np.zeros(n0.shape[0], dtype=bool))


def _pivot(gamma, s, c, n0, ntask, warm):
    """Principal pivoting on the support of the (g, M+1) strategy; a row
    whose idle action is out of it is busy.

    From the warm support, idle out of rows that overfill, each pivot
    solves the pattern with _solve_modes and flips the action that fails
    the KKT test by the most past its tolerance, against the row's value
    (its first supported task's utility if busy, else 0): a task leaves
    below the value or below probability 0 and joins above the value;
    idle leaves a row that overfills or earns above 0 and rejoins a busy
    row valued below 0.  Returns (probs, pivots); probs is None if a
    solve is singular or violations outnumber the pivots left.
    """
    free, cost, cap = (1.0 - s).tolist(), c.tolist(), n0.tolist()
    support = np.array([[_row_sum(row) <= 1.0 + EPS_ZERO] + [p > 0.0 for p in row]
                        for row in warm.tolist()])
    for pivot in range(1, _MAX_PIVOTS + 1):
        try:
            probs = _solve_modes(gamma, s, c, n0, ntask, support[:, 1:], ~support[:, 0])
        except SingularSystem:
            break
        rows = probs.tolist()
        quote = ((ntask + n0 @ probs) / gamma).tolist()
        passed, util, mass = _certified_floats(free, cost, cap, quote, rows)
        if passed:
            return probs, pivot
        worst, flip, violations = 0.0, None, 0
        for i in [i for i, n in enumerate(cap) if n > 0.0]:
            (idle, *on), ui = support[i].tolist(), util[i]
            value = 0.0 if idle else ui[on.index(True)]
            gaps = [max([mass[i] - 1.0 - EPS_ZERO] + [u - _CERT_TOL for u, b in zip(ui, on) if b])
                    if idle else -value - _CERT_TOL]
            gaps += [max(-p - EPS_ZERO, value - u - _CERT_TOL) if b else u - value - _CERT_TOL
                     for p, u, b in zip(rows[i], ui, on)]
            violations += sum(x > 0.0 for x in gaps)
            gap = max(gaps)
            if gap > worst:
                worst, flip = gap, (i, gaps.index(gap))
        # one flip per pivot: more violations than pivots left is out of reach
        if flip is None or violations > _MAX_PIVOTS - pivot:
            break
        support[flip] ^= True
    return None, pivot


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

    Once the mean complementarity mu is below _MU_POLISH per idle robot,
    each new pattern x > z (support, and busy = idle slack below its
    dual) is polished once with _solve_modes, on the iteration it first
    appears.  Each cell of the pattern that closes a cycle (at a tied
    optimum, or on a pattern the iterates only pass through) is held at
    the iterate x / n0, so no polish is singular.  A round the polishes
    do not certify (mu below _MU_FLOOR, or _MAX_INTERIOR iterations)
    ends in _crossover from the last iterate.  Returns the (g, M) task
    probabilities and the number of interior iterations plus crossover
    steps.
    """
    live = n0 > 0
    w_all = 1.0 - s - c
    w, cap = w_all[live], n0[live]
    h, m = w.shape
    size = h * (m + 1)
    x = np.repeat((cap / (m + 1))[:, None], m + 1, axis=1)
    util = w - (ntask + x[:, 1:].sum(axis=0)) / gamma
    y = -1.0 - np.maximum(util.max(axis=1), 0.0)
    z = np.empty_like(x)
    z[:, 0] = -y
    z[:, 1:] = -y[:, None] - util  # dual feasible: every z >= 1
    sup = np.zeros(c.shape, dtype=bool)
    busy = np.zeros(n0.shape[0], dtype=bool)
    point = np.zeros(c.shape)
    mean = cap.mean()
    mu_polish, mu_floor = _MU_POLISH * mean, _MU_FLOOR * mean
    polished = set()
    for it in range(1, _MAX_INTERIOR + 1):
        xz = x * z
        mu = float(xz.sum()) / size
        if mu < mu_polish:
            above = x > z
            pattern = above.tobytes()
            if pattern not in polished:
                polished.add(pattern)
                sup[live] = above[:, 1:]
                busy[live] = ~above[:, 0]
                point[live] = x[:, 1:] / cap[:, None]
                probs = _solve_modes(gamma, s, c, n0, ntask, sup, busy, point)[0]
                if _certified(w_all, gamma, n0, ntask, probs):
                    return probs, it
        if mu < mu_floor:
            break
        # minus the dual and primal residuals.  The start is feasible, but
        # each Newton step feeds the rounding of the last back in, so the
        # rows drift (by up to 3.3e-7 on rounded draws) and _crossover
        # rescales its start.
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
    probs, steps = _crossover(gamma, s, c, n0, ntask, x, z)
    return probs, it + steps


def _crossover(gamma, s, c, n0, ntask, x, z):
    """Primal active-set method on min Phi from an interior iterate
    (Megiddo 1991), on the support forest as in network simplex.

    The point p = x / n0 starts on the support x > z, with busy rows
    (idle slack below its dual) summing to 1.  Each step solves the
    pattern with _solve_modes at p.  If every held cell's reduced cost
    is within _CERT_TOL of 0, the step runs toward that solution, up to
    length 1.  Else Phi falls linearly around the cycle of the largest
    |r|, and the step runs without a cap along the difference a second
    solve makes with that cell bumped by sign(r).  Either step stops
    where a cell empties (it leaves the support) or an idle row fills
    (it turns busy).  At the solution the round ends if the KKT test
    passes; else the largest violation is released: a cell outside the
    support that earns more than its row's value (its best supported
    utility if busy, else 0), or a busy row valued below 0.  Returns the
    (g, M) task probabilities and the number of steps.
    """
    g = c.shape[0]
    live = n0 > 0
    w = 1.0 - s - c
    sup = np.zeros(c.shape, dtype=bool)
    busy = np.zeros(g, dtype=bool)
    sup[live] = x[:, 1:] > z[:, 1:]
    busy[live] = x[:, 0] < z[:, 0]
    busy &= sup.any(axis=1)  # a busy row needs a cell, and its last never empties
    p = np.zeros(c.shape)
    p[live] = x[:, 1:] / n0[live, None]
    p[~sup] = 0.0
    mass = p.sum(axis=1)  # rows off by rounding: busy ones to 1, the others to at most 1
    p /= np.where(busy, mass, np.maximum(mass, 1.0))[:, None]
    for step in range(1, _MAX_CROSSOVER + 1):
        probs, held = _solve_modes(gamma, s, c, n0, ntask, sup, busy, p)
        cell, r = max(held.items(), key=lambda item: abs(item[1]), default=(None, 0.0))
        if abs(r) <= _CERT_TOL:
            d, reach = probs - p, 1.0
        else:
            bumped = p.copy()
            bumped[cell] += math.copysign(1.0, r)
            d, reach = _solve_modes(gamma, s, c, n0, ntask, sup, busy, bumped)[0] - probs, np.inf
        # ratio test: the step's own end, then each emptying cell, then each filling idle row
        growth = d.sum(axis=1)
        limits = np.concatenate([
            [reach],
            np.divide(p, -d, out=np.full(c.shape, np.inf), where=sup & (d < 0.0)).ravel(),
            np.divide(np.maximum(1.0 - p.sum(axis=1), 0.0), growth, out=np.full(g, np.inf),
                      where=~busy & (growth > 0.0)),
        ])
        j = int(limits.argmin())
        p = np.maximum(p + limits[j] * d, 0.0)
        if 0 < j <= p.size:
            sup.flat[j - 1] = False
            p.flat[j - 1] = 0.0
        elif j > p.size:
            busy[j - p.size - 1] = True
        elif reach == 1.0:
            if _certified(w, gamma, n0, ntask, p):
                return p, step
            util = w - (ntask + n0 @ p) / gamma
            value = np.where(busy, np.where(sup, util, -np.inf).max(axis=1), 0.0)
            gain = np.where(np.column_stack([busy, ~sup]) & live[:, None],
                            np.column_stack([-value, util - value[:, None]]), -np.inf)
            i, k = np.unravel_index(int(gain.argmax()), gain.shape)
            if gain[i, k] > 0.0:
                if k:
                    sup[i, k - 1] = True
                else:
                    busy[i] = False
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


def _search(gamma, s, c, n0, ntask, warm):
    """Steps 2 and 3 of allocate on the merged groups: (probs, path, iterations)."""
    pivots = 0
    if c.size <= _SMALL_CELLS:
        probs, pivots = _pivot(gamma, s, c, n0, ntask, warm)
        if probs is not None:
            return probs, "pivot", pivots
    probs, iterations = _interior(gamma, s, c, n0, ntask)
    return probs, "interior", pivots + iterations


def _allocate_small(instance: ProblemInstance) -> tuple[list[list[float]], str, int]:
    """allocate's round in plain floats; returns the (g, M+1) rows, the
    path and the iteration count.

    After the shared _merge_groups, the same float operations in the
    same order as the array code: _warm_start, the KKT test of
    _certified (as _certified_floats) and the row assembly of
    _allocate_arrays.  A warm start that fails the test goes to
    _search, as in the array code.
    """
    gamma, s = instance.gamma.tolist(), instance.signals.tolist()
    counts = instance.counts.tolist()
    g, m = instance.costs.shape
    merged_idx, first = _merge_groups(instance.costs)
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
        if not _certified_floats([1.0 - sk for sk in s], c, n0, quote, probs)[0]:
            probs, path, iterations = _search(instance.gamma, instance.signals, np.array(c),
                                              np.array(n0), np.array(ntask), np.array(probs))
            probs = probs.tolist()

    out = []
    for i in range(g):
        if counts[i][0] > 0:
            row = [0.0 if abs(p) < EPS_ZERO else 1.0 if abs(p - 1.0) < EPS_ZERO else p
                   for p in probs[merged_idx[i]]]
            p0 = 1.0 - _row_sum(row)
            out.append([0.0 if abs(p0) < EPS_ZERO else p0, *row])
        else:
            out.append([1.0] + [0.0] * m)
    return out, path, iterations


def allocate(instance: ProblemInstance, *, check: bool = True) -> AllocationResult:
    """Equilibrium assignment probabilities for one allocation round.

    Groups with identical cost vectors are merged, then the potential
    Phi (see the module docstring) is minimised:

    1. Each task goes to its cheapest group(s), everyone idling, and
       that support is solved in closed form (path "warm").
    2. Otherwise, with at most _SMALL_CELLS merged cells (g x M), each
       pivot solves the equilibrium equations on a (support, busy)
       pattern, from the warm start's, and flips the pattern's largest
       KKT violation until a solution passes the test (path "pivot").
       The pivots give up when a solve is singular or more KKT
       violations remain than pivots of _MAX_PIVOTS.  In every solve a
       busy group on one task is a constant load, and only the coupled
       cells are unknowns.
    3. With more cells, or once the pivots give up, an interior-point
       method runs on Phi; once its mean complementarity is below
       _MU_POLISH per idle robot, each new pattern its iterates show is
       solved once, any cell that closes a cycle held at the iterate,
       and the first solution that passes the test ends the round (path
       "interior").  Where none does (complementarity reaches
       _MU_FLOOR, or _MAX_INTERIOR iterations run out), a crossover
       from the last iterate finishes the round: an active-set method
       that moves one constraint per step until its point passes the
       test.

    Rounds of at most _SMALL_CELLS cells run step 1, its KKT test and
    the row assembly in plain floats, bit-identical to the array code;
    the merge and steps 2 and 3 are shared.

    Groups without idle robots get degenerate idle rows.  With `check`
    the returned strategy is certified by the independent oracle,
    verify_equilibrium: a fixed set of numpy calls on (g, M+1) arrays,
    which costs about as much as a whole warm round of a few cells and
    under half of a warm array round.  A caller that trusts the solver
    in a hot loop, as the simulation does, passes check=False.  The
    result's `path` says which step ended the round and `iterations`
    counts its pivots plus interior iterations plus crossover steps.
    Raises AllocationError only if the crossover reaches
    _MAX_CROSSOVER steps.
    """
    if instance.costs.size <= _SMALL_CELLS:
        rows, path, iterations = _allocate_small(instance)
        probs = np.array(rows)
    else:
        probs, path, iterations = _allocate_arrays(instance)
    strategy = MixedStrategy(probs)
    report = verify_equilibrium(instance, strategy) if check else None
    return AllocationResult(strategy, report, path, iterations)


def _allocate_arrays(instance: ProblemInstance) -> tuple[np.ndarray, str, int]:
    """allocate's round in array code; returns the (g, M+1) rows, the
    path and the iteration count."""
    gamma, s = instance.gamma, instance.signals
    merged_idx, first = _merge_groups(instance.costs)
    c = instance.costs[first]
    n0 = np.bincount(merged_idx, instance.idle_counts)
    ntask = instance.task_totals.astype(float)
    probs_m = _warm_start(gamma, s, c, n0, ntask)
    path, iterations = "warm", 0
    if not _certified(1.0 - s - c, gamma, n0, ntask, probs_m):
        probs_m, path, iterations = _search(gamma, s, c, n0, ntask, probs_m)

    # snap float dust within EPS_ZERO of 0 or 1 onto the bound
    rows = probs_m[merged_idx]
    rows[np.abs(rows) < EPS_ZERO] = 0.0
    rows[np.abs(rows - 1.0) < EPS_ZERO] = 1.0
    p0 = 1.0 - rows.sum(axis=1)
    p0[np.abs(p0) < EPS_ZERO] = 0.0
    probs = np.column_stack([p0, rows])
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
