"""Foraging-colony dynamics: shared energy store, depot cargo, harvest walks.

Task 1 is energy harvesting (random-walk search over the annulus, carry
sources home), task 2 is cargo hauling (travel to the depot, wait for a
unit, carry it home).  The colony's energy store leaks at a constant
rate and is topped up by delivered sources; every robot's motion runs a
small personal deficit that the store repays when the robot finishes a
task at the colony.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np

from ..allocation import ProblemInstance
from ..scenarios import ScenarioConfig, ScenarioError
from .engine import IDLE_AT_BASE, RobotState, toward

RANDOM_WALK = "RandomWalkTarget"
APPROACH_ITEM = "ApproachItem"
RETURN_HOME = "ReturnHome"
TRAVEL_TO_DEPOT = "TravelToDepot"
WAIT_AT_DEPOT = "WaitAtDepot"

ENERGY_DEPLETED = "EnergyDepleted"

CARGO = "cargo"

# motion drain sits an order of magnitude below the colony leakage rate
MOTION_DRAIN_FACTOR = 0.1


@dataclasses.dataclass(slots=True)
class ColonyRobot(RobotState):
    """A colony robot: the engine's shared state plus its behavior arguments."""

    target: tuple | None = None     # random-walk waypoint
    node: int = -1                  # source claimed while in ApproachItem
    wait: float = 0.0               # time left at the depot
    payload: object = None          # source id or "cargo"; only in ReturnHome
    energy_used: float = 0.0        # running motion deficit, <= 0
    memory: tuple | None = None     # last successful source position


def colony_energy_step(E_c: float, dt: float, E_drain: float) -> float:
    """Colony store after one step of constant leakage."""
    return E_c - E_drain * dt


def robot_energy_step(E_robot: float, speed: float, dt: float, v_max: float,
                      E_drain: float) -> float:
    """Robot motion deficit after one step: drains with speed."""
    return E_robot - MOTION_DRAIN_FACTOR * E_drain * (speed / v_max) * dt


def _project_annulus(x: float, y: float, inner: float, outer: float) -> tuple:
    dist = math.hypot(x, y)
    if dist > outer:
        scale = outer / dist
        return (x * scale, y * scale)
    if dist < inner:
        if dist <= 1e-12:
            return (inner, 0.0)
        scale = inner / dist
        return (x * scale, y * scale)
    return (x, y)


def random_walk_step(robot: ColonyRobot, h: float, domain: tuple,
                     rng: random.Random, arrive_radius: float) -> ColonyRobot:
    """Keep a walking robot supplied with a target inside the annulus.

    Draws a fresh heading when the robot has no target or has reached
    the current one; targets landing outside the domain are projected
    radially onto its boundary.  Source detection is the caller's job
    (it needs the sources); this op only manages the leg geometry.
    """
    inner, outer = domain
    if robot.target is not None:
        dx = robot.target[0] - robot.x
        dy = robot.target[1] - robot.y
        if dx * dx + dy * dy <= arrive_radius * arrive_radius:
            robot.target = None
    if robot.target is None:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        tx = robot.x + h * math.cos(theta)
        ty = robot.y + h * math.sin(theta)
        robot.target = _project_annulus(tx, ty, inner, outer)
    return robot


class ColonyDynamics:
    """Colony energy and cargo books plus the engine's hooks for a colony run."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.p = config.colony
        self.columns = ("t", "E_colony", "E_system", "cargo",
                        "n_idle", "n_task1", "n_task2", "min_dist")
        self.domain_center = (0.0, 0.0)
        self.domain_radius = self.p.R_o
        # the instance's constant parts, shared read-only by every step
        self.gamma = np.array(config.gamma)
        self.costs = np.zeros((1, len(config.gamma)))
        self.gamma.flags.writeable = self.costs.flags.writeable = False
        self.E_c = self.p.E_start
        self.depot_stock = 0
        self.delivered_cargo = 0
        self.injected_cargo = 0
        self.cargo_goal = sum(e.amount for e in config.events if e.kind == "cargo_delivery")
        self.cargo_done_at = None
        self.sources = {}
        self.claims = {}
        self.rng_walk = {}
        # energy flows of the current step, zeroed by check_conservation
        self.flow_drain = 0.0
        self.flow_motion = 0.0
        self.flow_delivery = 0.0
        self.flow_removal = 0.0
        # robots start with no motion deficit, so the system holds E_c
        self.prev_E_sys = self.E_c

    # -- setup ---------------------------------------------------------

    def init_world(self, world, seed):
        p = self.p
        n = self.config.n_robots
        rng_place = random.Random(f"{seed}/placement")
        rng_sources = random.Random(f"{seed}/sources")
        self.rng_walk = {i: random.Random(f"{seed}/walk/{i}") for i in range(n)}
        points = []
        # each grid cell lists the placed points in the 3 x 3 cells around
        # it: a point closer than min_separation is among them, as the
        # pitch is at least that (larger only where cell indices would
        # pass 2**20)
        pitch = max(p.min_separation, p.R_i / 2 ** 20)
        near = {}
        sep = p.min_separation * p.min_separation
        attempts = 0
        while len(points) < n:
            attempts += 1
            if attempts > 100_000:
                raise ScenarioError(
                    f"seed {seed}: cannot place n_robots={n} colony.min_separation="
                    f"{p.min_separation:g} apart inside colony.R_i={p.R_i:g}")
            radius = p.R_i * math.sqrt(rng_place.random())
            theta = rng_place.uniform(0.0, 2.0 * math.pi)
            x, y = radius * math.cos(theta), radius * math.sin(theta)
            cx, cy = math.floor(x / pitch), math.floor(y / pitch)
            if all((x - qx) ** 2 + (y - qy) ** 2 >= sep for qx, qy in near.get((cx, cy), ())):
                points.append((x, y))
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        near.setdefault((cx + dx, cy + dy), []).append((x, y))
        world.robots = [ColonyRobot(id=i, x=x, y=y)
                        for i, (x, y) in enumerate(points)]
        span = p.R_o * p.R_o - p.R_i * p.R_i
        for sid in range(p.n_sources):
            radius = math.sqrt(rng_sources.random() * span + p.R_i * p.R_i)
            theta = rng_sources.uniform(0.0, 2.0 * math.pi)
            self.sources[sid] = (radius * math.cos(theta), radius * math.sin(theta))
        # a run that stops before its first step still reports the store
        world.metrics.final_energy = self.E_c
        world.metrics.cargo_incomplete = self.cargo_goal > 0

    # -- events and continuous dynamics ---------------------------------

    def apply_event(self, world, event):
        if event.kind == "cargo_delivery":
            # single-depot model: units land at the depot whatever the
            # event's nominal drop point
            self.depot_stock += event.amount
            self.injected_cargo += event.amount
            return
        ids = sorted(r.id for r in world.robots)
        chosen = set(world.rng_events.sample(ids, min(event.amount, len(ids))))
        removed = [r for r in world.robots if r.id in chosen]
        world.robots = [r for r in world.robots if r.id not in chosen]
        for robot in removed:
            if robot.payload == CARGO:
                self.depot_stock += 1
            released = [sid for sid, rid in self.claims.items() if rid == robot.id]
            for sid in released:
                del self.claims[sid]
            # its motion deficit leaves the system along with the robot
            self.flow_removal += -robot.energy_used

    def integrate(self, world, dt):
        self.E_c = colony_energy_step(self.E_c, dt, self.p.E_drain)
        self.flow_drain += self.p.E_drain * dt

    def signals(self, world):
        s1 = self.E_c / self.p.E_max
        s2 = 1.0 - self.depot_stock / self.p.c_max
        return (min(1.0, max(0.0, s1)), min(1.0, max(0.0, s2)))

    # -- allocation ------------------------------------------------------

    def build_instance(self, world):
        counts = [0, 0, 0]
        for robot in world.robots:
            counts[robot.assigned_task] += 1
        instance = ProblemInstance._trusted(self.gamma, np.array(world.signals), self.costs,
                                            np.array([counts], dtype=np.int64))
        return instance, {robot.id: 0 for robot in world.robots}

    # -- behaviors -------------------------------------------------------

    def behave(self, world, robot, dt):
        if robot.assigned_task == 0:
            robot.behavior = IDLE_AT_BASE
            if robot.x * robot.x + robot.y * robot.y > self.p.R_i * self.p.R_i:
                return toward(robot, 0.0, 0.0, dt, self.config.v_max)
            return (0.0, 0.0)
        if robot.assigned_task == 1:
            return self._harvest(robot, dt)
        return self._haul(robot, dt)

    def _harvest(self, robot, dt):
        p = self.p
        if robot.behavior == IDLE_AT_BASE:
            robot.behavior = RANDOM_WALK
            robot.target = None
            if robot.memory is not None:
                # revisit the last find, blurred proportionally to how far
                # away it is
                mx, my = robot.memory
                sigma = p.return_noise * math.hypot(mx - robot.x, my - robot.y)
                rng = self.rng_walk[robot.id]
                robot.target = _project_annulus(
                    mx + rng.gauss(0.0, sigma), my + rng.gauss(0.0, sigma),
                    p.R_i, p.R_o)
        if robot.behavior == RANDOM_WALK:
            sid = self._sense(robot)
            if sid is None:
                random_walk_step(robot, p.h, (p.R_i, p.R_o),
                                 self.rng_walk[robot.id], p.arrive_radius)
                return toward(robot, *robot.target, dt, self.config.v_max)
            self.claims[sid] = robot.id
            robot.behavior = APPROACH_ITEM
            robot.node = sid
        if robot.behavior == APPROACH_ITEM:
            sid = robot.node
            pos = self.sources.get(sid)
            if pos is None or self.claims.get(sid) != robot.id:
                robot.behavior = RANDOM_WALK
                robot.target = None
                robot.node = -1
                random_walk_step(robot, p.h, (p.R_i, p.R_o),
                                 self.rng_walk[robot.id], p.arrive_radius)
                return toward(robot, *robot.target, dt, self.config.v_max)
            dx, dy = pos[0] - robot.x, pos[1] - robot.y
            if dx * dx + dy * dy <= p.arrive_radius * p.arrive_radius:
                del self.sources[sid]
                del self.claims[sid]
                robot.payload = sid
                robot.memory = pos
                robot.node = -1
                robot.target = None
                robot.behavior = RETURN_HOME
            else:
                return toward(robot, *pos, dt, self.config.v_max)
        # ReturnHome
        if robot.x * robot.x + robot.y * robot.y <= self.p.R_i * self.p.R_i:
            self.E_c += p.E_source
            self.flow_delivery += p.E_source
            self._finish_at_base(robot)
            return (0.0, 0.0)
        return toward(robot, 0.0, 0.0, dt, self.config.v_max)

    def _haul(self, robot, dt):
        p = self.p
        if robot.behavior == IDLE_AT_BASE:
            robot.behavior = TRAVEL_TO_DEPOT
        if robot.behavior == TRAVEL_TO_DEPOT:
            dx = p.depot[0] - robot.x
            dy = p.depot[1] - robot.y
            if dx * dx + dy * dy <= p.arrive_radius * p.arrive_radius:
                robot.behavior = WAIT_AT_DEPOT
                robot.wait = p.depot_wait
                return (0.0, 0.0)
            return toward(robot, *p.depot, dt, self.config.v_max)
        if robot.behavior == WAIT_AT_DEPOT:
            robot.wait -= dt
            if robot.wait > 1e-12:
                return (0.0, 0.0)
            robot.wait = 0.0
            if self.depot_stock >= 1:
                self.depot_stock -= 1
                robot.payload = CARGO
            robot.behavior = RETURN_HOME
        # ReturnHome, possibly empty-handed if the depot had nothing left
        if robot.x * robot.x + robot.y * robot.y <= p.R_i * p.R_i:
            if robot.payload == CARGO:
                self.delivered_cargo += 1
            self._finish_at_base(robot)
            return (0.0, 0.0)
        return toward(robot, 0.0, 0.0, dt, self.config.v_max)

    def _finish_at_base(self, robot):
        """Completion at the colony: recharge from the store and go idle."""
        self.E_c += robot.energy_used  # energy_used <= 0: the store repays it
        robot.energy_used = 0.0
        robot.payload = None
        robot.assigned_task = 0
        robot.behavior = IDLE_AT_BASE
        robot.target = None

    def _sense(self, robot):
        """Nearest unclaimed source within sensing range, if any."""
        best = None
        best_dd = self.p.h * self.p.h
        for sid, (sx, sy) in self.sources.items():
            if sid in self.claims:
                continue
            dx, dy = sx - robot.x, sy - robot.y
            dd = dx * dx + dy * dy
            if dd < best_dd or (best is None and dd == best_dd):
                best = sid
                best_dd = dd
        return best

    # -- accounting ------------------------------------------------------

    def post_move(self, world, robot, speed, dt):
        before = robot.energy_used
        robot.energy_used = robot_energy_step(before, speed, dt, self.config.v_max,
                                              self.p.E_drain)
        self.flow_motion += before - robot.energy_used

    def check_conservation(self, world):
        # left to right from 0.0: Python 3.12's sum() compensates float sums
        used = 0.0
        for r in world.robots:
            used += r.energy_used
        e_sys = self.E_c + used
        predicted = (self.prev_E_sys - self.flow_drain - self.flow_motion
                     + self.flow_delivery + self.flow_removal)
        residual = abs(e_sys - predicted)
        metrics = world.metrics
        if residual > metrics.max_conservation_residual:
            metrics.max_conservation_residual = residual
        self.prev_E_sys = e_sys
        if residual > 1e-9:
            raise RuntimeError(f"energy bookkeeping diverged by {residual:.3e} J")
        in_transit = sum(1 for r in world.robots if r.payload == CARGO)
        if self.depot_stock + in_transit + self.delivered_cargo != self.injected_cargo:
            raise RuntimeError("cargo bookkeeping diverged")
        self.flow_drain = 0.0
        self.flow_motion = 0.0
        self.flow_delivery = 0.0
        self.flow_removal = 0.0

    def check_failure(self, world):
        world.metrics.final_energy = self.E_c
        if self.E_c <= 0.0:
            world.failure = ENERGY_DEPLETED

    def cargo_done_time(self, world):
        return self.cargo_done_at

    def metrics_row(self, world, counts, min_dist):
        if (self.cargo_done_at is None and self.cargo_goal > 0
                and self.delivered_cargo >= self.cargo_goal):
            self.cargo_done_at = world.clock
            world.metrics.cargo_incomplete = False
        return (world.clock, self.E_c, self.prev_E_sys, self.depot_stock,
                counts[0], counts[1], counts[2], min_dist)
