"""Persistent-monitoring dynamics: drain information off fixed nodes.

Each node accumulates information at a constant rate and loses it while
robots sit within service range.  A robot holds its node until the node
is fully drained, then returns to a parking slot on a small ring around
the idle point.  Allocation sees one singleton group per robot because
travel costs differ with position.
"""

from __future__ import annotations

import math

import numpy as np

from ..allocation import ProblemInstance
from ..scenarios import ScenarioConfig
from .engine import IDLE_AT_BASE, RobotState, toward

TRAVEL_TO_NODE = "TravelToNode"
SERVICE_NODE = "ServiceNode"


def node_information_step(R_k: float, robots_in_range: int, dt: float,
                          A: float, B: float, R_max: float) -> float:
    """Node information: accumulates at A, drains at B per servicing robot."""
    value = R_k + (A - B * robots_in_range) * dt
    if value < 0.0:
        return 0.0
    if value > R_max:
        return R_max
    return value


class MonitoringDynamics:
    """Node information levels plus the engine's hooks for a monitoring run."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.p = config.monitoring
        m = len(config.gamma)
        self.columns = (("t",)
                        + tuple(f"R_{k + 1}" for k in range(m))
                        + ("n_idle",)
                        + tuple(f"n_task{k + 1}" for k in range(m))
                        + ("min_dist",))
        self.domain_center = self.p.idle_point
        self.domain_radius = self.p.domain_radius
        cx, cy = self.p.idle_point
        n = config.n_robots
        self.slots = [
            (cx + self.p.idle_ring * math.cos(2.0 * math.pi * i / n),
             cy + self.p.idle_ring * math.sin(2.0 * math.pi * i / n))
            for i in range(n)
        ]
        self.R = [0.0] * m      # information held at each node
        # shared read-only by every step's instance
        self.gamma = np.array(config.gamma)
        self.gamma.flags.writeable = False
        # row a: the counts row of a robot whose action is a
        self.count_rows = np.eye(m + 1, dtype=np.int64)

    # -- setup ---------------------------------------------------------

    def init_world(self, world, seed):
        world.robots = [RobotState(id=i, x=x, y=y)
                        for i, (x, y) in enumerate(self.slots)]

    # -- events and continuous dynamics ---------------------------------

    def apply_event(self, world, event):
        # config validation leaves only robot_removal possible here
        ids = sorted(r.id for r in world.robots)
        chosen = set(world.rng_events.sample(ids, min(event.amount, len(ids))))
        world.robots = [r for r in world.robots if r.id not in chosen]

    def integrate(self, world, dt):
        p = self.p
        rr = p.service_radius * p.service_radius
        for k, (nx, ny) in enumerate(p.nodes):
            in_range = 0
            for robot in world.robots:
                dx, dy = robot.x - nx, robot.y - ny
                if dx * dx + dy * dy <= rr:
                    in_range += 1
            self.R[k] = node_information_step(self.R[k], in_range, dt,
                                               p.A, p.B, p.R_max)

    def signals(self, world):
        return tuple(1.0 - value / self.p.R_max for value in self.R)

    # -- allocation ------------------------------------------------------

    def build_instance(self, world):
        """One singleton group per robot: costs depend on its position."""
        robots = world.robots
        nodes, D = self.p.nodes, self.p.D
        costs = [[math.hypot(nx - robot.x, ny - robot.y) / D for nx, ny in nodes]
                 for robot in robots]
        counts = self.count_rows[[robot.assigned_task for robot in robots]]
        row_of = {robot.id: row for row, robot in enumerate(robots)}
        instance = ProblemInstance._trusted(self.gamma, np.array(world.signals),
                                            np.array(costs), counts)
        return instance, row_of

    # -- behaviors -------------------------------------------------------

    def behave(self, world, robot, dt):
        if robot.assigned_task and self.R[robot.assigned_task - 1] <= 0.0:
            # node drained (by this robot or a teammate): job done
            robot.assigned_task = 0
        if robot.assigned_task == 0:
            robot.behavior = IDLE_AT_BASE
            slot = self.slots[robot.id]
            return toward(robot, *slot, dt, self.config.v_max)
        k = robot.assigned_task - 1
        nx, ny = self.p.nodes[k]
        dx, dy = nx - robot.x, ny - robot.y
        in_range = dx * dx + dy * dy <= self.p.service_radius * self.p.service_radius
        robot.behavior = SERVICE_NODE if in_range else TRAVEL_TO_NODE
        return toward(robot, nx, ny, dt, self.config.v_max)

    # -- accounting ------------------------------------------------------

    def post_move(self, world, robot, speed, dt):
        pass

    def check_conservation(self, world):
        pass

    def check_failure(self, world):
        pass

    def cargo_done_time(self, world):
        return None

    def metrics_row(self, world, counts, min_dist):
        return (world.clock, *self.R, counts[0], *counts[1:], min_dist)
