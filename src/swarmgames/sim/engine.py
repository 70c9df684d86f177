"""Fixed-step simulation loop shared by both scenarios.

One step advances the world through a fixed pipeline: due events fire,
signal-state dynamics integrate one explicit-Euler step, task signals
are recomputed, idle robots sample fresh assignments from an
equilibrium allocation round, behavior state machines produce reference
velocities, the safety filter clips them, and positions integrate.
Each idle robot draws its action with `draw_action` straight from its
group's row of the round's strategy, the point the solver certified.
Robots already on a task never re-sample (assignments change only
idle -> task via sampling or task -> idle on completion or removal).

Determinism: every random draw comes from a named stream seeded as
"{seed}/{purpose}" or "{seed}/{purpose}/{robot id}", and all per-robot
loops run in robot-id order, so a (scenario, seed) pair fully fixes the
run down to the last bit.

Spatial queries sort by x (sort and sweep, as in the I-COLLIDE broad
phase): a pair whose x gap alone exceeds the cutoff is never tested,
so a pass costs about n log n plus the pairs that overlap in x instead
of n^2.  One pass runs per step, on the post-move positions, and it
gives the step's `min_dist` and the next step's neighbours.

- Neighbours are the pairs with dx*dx + dy*dy <= cutoff^2.  Each
  robot's neighbours are in ascending robot id, the order an all-pairs
  loop gives, because the filter enumerates candidate vertices in
  neighbour order and ties between equally near candidates go to the
  first one.
- The next step's filter reuses them, since robots do not move between
  one step's end and the next step's filter.  They are reused only
  when the positions the filter sees equal the swept ones, value by
  value, and the cutoff is the same.  A run's first step, a removal
  event, or a caller that moves robots between steps gets a fresh
  pass.
- `min_dist` is the square root of the smallest dx*dx + dy*dy, the
  same square the neighbour test takes.  A skipped pair's square
  exceeds the cutoff's, so when a neighbour pair exists the minimum
  over the neighbour pairs is exact.  For the case with none, the
  sweep's scans go on past the cutoff while dx*dx is below the best
  square so far; the numpy pass calls the sweep only then.

A step picks its pass once, from the robot count, and that pass serves
both a reuse miss and the closing pass.  Below `_NUMPY_PAIRS` robots
(every built-in default) it is `neighbor_sweep`, a Python sweep, and
each robot calls `filter_velocity`.  At or above it the pass is
`neighbor_pairs` in numpy.  That sorts by x, takes each point's
candidates from a `searchsorted` window widened by a margin, and keeps
the pairs that pass the exact test as directed pairs sorted by (robot,
neighbour).  The filter then runs `cbf.pass_through` on those arrays:
one batched test of every robot's rows at its speed-clipped reference.
Only the robots it flags call `filter_velocity`; the rest keep their
clipped reference.  Both paths give the same bits; numpy's fixed cost
per call outweighs the Python loops below about 36 robots at colony
density.

An AllocationError ends a run as ALLOCATION_FAILED (`run`), with the
steps completed before it kept in the metrics.

Total deadlock ends a run: when every live robot is flagged deadlocked
in one step, `world.failure` becomes DEADLOCKED.  A robot deadlocks
when its CBF rows admit no velocity, and those rows depend only on
positions; a deadlocked robot stands still, so once all of them do,
every later step repeats this one.  Only a pending robot_removal event
can change the rows, so the rule waits while one is due.

Scenario hooks.  `build_world` makes one dynamics object per run,
`ColonyDynamics` or `MonitoringDynamics`, and `WorldState` and
`RobotState` hold only what both scenarios share.  The colony object
owns its energy store, cargo counts, sources and claims, energy-flow
books and walk streams, and its robots are `ColonyRobot`s that add the
walk, depot and cargo state; the monitoring object owns the node
information levels `R`.  Besides `columns`, `domain_center` and
`domain_radius`, each object has these hooks, called in this order:

- `init_world(world, seed)`, once from `build_world`: place the robots
  (a `RobotState` or a scenario subclass of it) and build the
  scenario's own named random streams;
- every step: `apply_event(world, event)` for each due event,
  `integrate(world, dt)`, `signals(world)`, `build_instance(world)`
  when a robot is idle, `behave(world, robot, dt)` for each robot,
  `post_move(world, robot, speed, dt)` after each robot moves,
  `check_conservation(world)`, `check_failure(world)` and
  `metrics_row(world, counts, min_dist)`;
- `cargo_done_time(world)`, once from `run`.

`build_instance` builds its `ProblemInstance` through the trusted
constructor, and `step` builds each robot's `VelocityQP`, neither of
which checks its inputs: every value they use comes from a
`ScenarioConfig`, whose numbers are checked finite and in range once at
load, or from state the scenario keeps inside those ranges.
"""

from __future__ import annotations

import dataclasses
import math
import random
from itertools import chain

import numpy as np

from ..allocation import AllocationError, allocate, draw_action
from ..cbf import VelocityQP, filter_velocity, pass_through
from ..scenarios import ScenarioConfig

__all__ = [
    "IDLE_AT_BASE",
    "DEADLOCKED",
    "ALLOCATION_FAILED",
    "RobotState",
    "WorldState",
    "RunMetrics",
    "toward",
    "neighbor_sweep",
    "neighbor_pairs",
    "build_world",
    "step",
    "run",
]

IDLE_AT_BASE = "IdleAtBase"
DEADLOCKED = "Deadlocked"
ALLOCATION_FAILED = "AllocationError"

# robots at or above which a step's spatial pass and filter run in numpy
_NUMPY_PAIRS = 40


@dataclasses.dataclass(slots=True)
class RobotState:
    """One robot, as the engine sees it: what every scenario shares.

    A scenario whose behaviors need more per-robot state subclasses
    this (the colony's `ColonyRobot`).
    """

    id: int
    x: float
    y: float
    assigned_task: int = 0          # 0 = idle, k = task k
    behavior: str = IDLE_AT_BASE
    deadlock: bool = False          # the last step's filter found no velocity


@dataclasses.dataclass
class RunMetrics:
    """Per-step records plus run summary.

    `rows` matches `columns` one tuple per completed step.  Deadlock
    flags stay in memory (they are not a CSV column): `deadlock_flags`
    has one bool per step, and `deadlock_robot_steps` counts individual
    robot flags against `robot_steps` total.  `cargo_incomplete` is set
    while a run's cargo goal is unmet; the colony keeps it.
    `failure_detail` is the message of the AllocationError that ended a
    run as ALLOCATION_FAILED.
    """

    columns: tuple
    rows: list = dataclasses.field(default_factory=list)
    deadlock_flags: list = dataclasses.field(default_factory=list)
    deadlock_robot_steps: int = 0
    robot_steps: int = 0
    max_conservation_residual: float = 0.0
    failure: str | None = None
    failure_detail: str | None = None
    final_energy: float | None = None
    all_cargo_delivered_time: float | None = None
    cargo_incomplete: bool = False

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


@dataclasses.dataclass
class WorldState:
    """Mutable state of one run that both scenarios share; `dyn` owns the rest."""

    clock: float
    step_index: int
    robots: list
    signals: tuple
    rng_assign: dict
    rng_events: random.Random
    pending_events: list            # [(step index, seq, Event)], sorted
    metrics: RunMetrics
    dyn: object
    failure: str | None = None
    swept: tuple | None = None      # (positions, cutoff_sq, neighbours) of the last closing pass


def toward(robot: RobotState, tx: float, ty: float, dt: float, v_max: float) -> tuple:
    """Velocity straight at (tx, ty), capped at v_max and at arriving in one step."""
    dx = tx - robot.x
    dy = ty - robot.y
    dist = math.hypot(dx, dy)
    if dist < 1e-12:
        return (0.0, 0.0)
    speed = min(v_max, dist / dt)
    return (dx / dist * speed, dy / dist * speed)


# ---------------------------------------------------------------------------
# spatial queries: x-sorted sweeps


def neighbor_sweep(points: list, cutoff_sq: float) -> tuple[list, float]:
    """Neighbour lists within the cutoff and the smallest pair distance.

    A pair is a neighbour pair when dx*dx + dy*dy <= cutoff_sq, and each
    list is in ascending index order, the order an all-pairs loop would
    give.  The distance is the square root of the smallest dx*dx + dy*dy
    over all pairs, inf below two points.  A point's scan stops once
    dx*dx exceeds cutoff_sq and reaches the best square so far: no
    later point in x order can then be a neighbour or a closer pair.
    """
    n = len(points)
    order = sorted(range(n), key=points.__getitem__)
    lists = [[] for _ in range(n)]
    best = math.inf
    for a in range(n):
        i = order[a]
        xi, yi = points[i]
        for b in range(a + 1, n):
            j = order[b]
            xj, yj = points[j]
            dx = xi - xj
            dxx = dx * dx
            if dxx > cutoff_sq and dxx >= best:
                break
            dy = yi - yj
            dd = dxx + dy * dy
            if dd <= cutoff_sq:
                lists[i].append(j)
                lists[j].append(i)
            if dd < best:
                best = dd
    for nbrs in lists:
        nbrs.sort()
    return lists, math.sqrt(best)


def neighbor_pairs(points: list, cutoff_sq: float) -> tuple:
    """`neighbor_sweep` in numpy: the neighbour pairs as arrays, and `min_dist`.

    Returns (xy, src, dst, min_dist): the points as an (n, 2) array, and
    every ordered pair (src[k], dst[k]) with dx*dx + dy*dy <= cutoff_sq,
    sorted by (src, dst), so that dst[src == i] is `neighbor_sweep`'s
    list i.  min_dist equals `neighbor_sweep`'s.
    """
    n = len(points)
    xy = np.fromiter(chain.from_iterable(points), float, 2 * n).reshape(n, 2)
    x, y = xy[:, 0], xy[:, 1]
    order = np.argsort(x, kind="stable")
    sx = x[order]
    # a pair the exact test admits has its rounded dx at most
    # sqrt(cutoff_sq), or dx*dx below the normal range (|dx| < 1.5e-154);
    # the relative term covers dx's own rounding, and sx + reach cannot
    # round below a float that it exceeds
    reach = math.sqrt(cutoff_sq) * (1.0 + 1e-9) + 1e-150
    a = np.arange(n)
    ahead = np.searchsorted(sx, sx + reach, side="right") - a - 1
    # the candidates (a, b) in sorted order, b = a + 1, ..., a + ahead[a]
    first = np.repeat(a, ahead)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(ahead) - ahead, ahead)
    i = order[first]
    j = order[second]
    dx = x[i] - x[j]
    dy = y[i] - y[j]
    dd = dx * dx + dy * dy
    near = dd <= cutoff_sq
    i, j, dd = i[near], j[near], dd[near]
    src = np.concatenate((i, j))
    dst = np.concatenate((j, i))
    by = np.argsort(src * n + dst, kind="stable")
    src, dst = src[by], dst[by]
    # a pair left out has dx*dx + dy*dy > cutoff_sq, farther than any
    # neighbour pair; with none, the sweep's scan finds the closest
    if len(dd):
        return xy, src, dst, math.sqrt(dd.min())
    return xy, src, dst, neighbor_sweep(points, cutoff_sq)[1]


# ---------------------------------------------------------------------------
# orchestration


def build_world(config: ScenarioConfig, seed: int | None = None) -> WorldState:
    """Fresh world for one run; `seed` overrides the config's."""
    # imported here to keep engine <-> scenario-dynamics imports acyclic
    from .colony import ColonyDynamics
    from .monitoring import MonitoringDynamics

    if seed is None:
        seed = config.seed
    dyn = ColonyDynamics(config) if config.kind == "colony" else MonitoringDynamics(config)
    pending = sorted(
        ((round(e.time / config.dt), seq, e) for seq, e in enumerate(config.events)),
        key=lambda item: (item[0], item[1]))
    metrics = RunMetrics(columns=dyn.columns)
    world = WorldState(
        clock=0.0,
        step_index=0,
        robots=[],
        signals=(),
        rng_assign={i: random.Random(f"{seed}/assign/{i}") for i in range(config.n_robots)},
        rng_events=random.Random(f"{seed}/events"),
        pending_events=pending,
        metrics=metrics,
        dyn=dyn,
    )
    dyn.init_world(world, seed)
    return world


def step(world: WorldState, config: ScenarioConfig) -> WorldState:
    """Advance the world by one step of config.dt, in place, and return it."""
    dyn = world.dyn
    dt = config.dt
    while world.pending_events and world.pending_events[0][0] <= world.step_index:
        _, _, event = world.pending_events.pop(0)
        dyn.apply_event(world, event)

    dyn.integrate(world, dt)
    world.signals = dyn.signals(world)

    idle = [r for r in world.robots if r.assigned_task == 0]
    if idle:
        instance, row_of = dyn.build_instance(world)
        rows = allocate(instance, check=False).strategy.probs.tolist()
        for robot in idle:
            action = draw_action(rows[row_of[robot.id]], world.rng_assign[robot.id].random())
            if action:
                robot.assigned_task = action

    v_refs = [dyn.behave(world, robot, dt) for robot in world.robots]

    n = len(world.robots)
    small = n < _NUMPY_PAIRS        # every built-in default
    spatial_pass = neighbor_sweep if small else neighbor_pairs
    positions = [(r.x, r.y) for r in world.robots]
    # 4r is enough at colony speeds; the second term keeps a closing
    # pair from crossing the whole cutoff in one step at higher v_max
    cutoff = max(4.0 * config.r, 2.0 * config.v_max * dt + 2.0 * config.r)
    cutoff_sq = cutoff * cutoff
    # the last step's closing pass holds for these positions unless a
    # removal or an outside change moved them since
    swept = world.swept
    if swept is None or swept[1] != cutoff_sq or swept[0] != positions:
        *found, _ = spatial_pass(positions, cutoff_sq)
        swept = (positions, cutoff_sq, found)

    cx, cy = dyn.domain_center
    limits = (config.v_max, config.r, dyn.domain_radius, config.alpha, config.alpha_c)
    if small:
        neighbors, = swept[2]
        relative = [(x - cx, y - cy) for x, y in positions]
        filtered = [filter_velocity(VelocityQP(v_refs[i], relative[i],
                                               [relative[j] for j in neighbors[i]], *limits))
                    for i in range(n)]
    else:
        xy, src, dst = swept[2]
        rel = xy - (cx, cy)
        clipped, flagged = pass_through(v_refs, rel, src, dst, *limits)
        filtered = [(v, False) for v in clipped]
        ids = np.flatnonzero(flagged)
        # a flagged robot's neighbours, ascending, are dst[lo:hi]
        spans = zip(ids.tolist(), np.searchsorted(src, ids).tolist(),
                    np.searchsorted(src, ids + 1).tolist())
        relative = rel.tolist()
        for i, lo, hi in spans:
            filtered[i] = filter_velocity(VelocityQP(
                v_refs[i], relative[i], [relative[j] for j in dst[lo:hi].tolist()], *limits))
    for robot, ((vx, vy), deadlock) in zip(world.robots, filtered):
        robot.deadlock = deadlock
        robot.x += vx * dt
        robot.y += vy * dt
        dyn.post_move(world, robot, math.hypot(vx, vy), dt)

    world.clock += dt
    world.step_index += 1
    dyn.check_conservation(world)
    dyn.check_failure(world)

    deadlocked = sum(1 for r in world.robots if r.deadlock)
    # total deadlock is permanent until a removal (module docstring)
    if (world.failure is None and n and deadlocked == n
            and not any(e.kind == "robot_removal" for _, _, e in world.pending_events)):
        world.failure = DEADLOCKED

    metrics = world.metrics
    metrics.robot_steps += n
    metrics.deadlock_robot_steps += deadlocked
    metrics.deadlock_flags.append(deadlocked > 0)

    counts = [0] * (config.n_tasks + 1)
    for robot in world.robots:
        counts[robot.assigned_task] += 1
    # one pass over the post-move positions: min_dist is the separation
    # actually executed this step, and the neighbours serve the next
    # step's filter
    positions = [(r.x, r.y) for r in world.robots]
    *found, min_dist = spatial_pass(positions, cutoff_sq)
    world.swept = (positions, cutoff_sq, found)
    metrics.rows.append(dyn.metrics_row(world, counts, min_dist))
    return world


def run(config: ScenarioConfig, seed: int | None = None) -> RunMetrics:
    """Simulate one full run and return its metrics.

    An AllocationError raised in a step ends the run: its failure is
    ALLOCATION_FAILED, and the metrics hold the steps completed before.
    """
    world = build_world(config, seed)
    n_steps = round(config.t_final / config.dt)
    metrics = world.metrics
    try:
        for _ in range(n_steps):
            step(world, config)
            if world.failure:
                break
    except AllocationError as exc:
        world.failure, metrics.failure_detail = ALLOCATION_FAILED, str(exc)
    metrics.failure = world.failure
    metrics.all_cargo_delivered_time = world.dyn.cargo_done_time(world)
    return metrics
