"""Simulation engine: step ops, event timing, invariants, determinism."""

import dataclasses
import math
import random

import pytest

from swarmgames.scenarios import Event, ScenarioError, colony_default, monitoring_default
from swarmgames.sim import DEADLOCKED, build_world, run, step
from swarmgames.sim.colony import (
    RETURN_HOME,
    ColonyRobot,
    colony_energy_step,
    random_walk_step,
    robot_energy_step,
)
from swarmgames.sim.engine import IDLE_AT_BASE
from swarmgames.sim.monitoring import node_information_step

COLONY_BEHAVIORS = {
    "IdleAtBase", "RandomWalkTarget", "ApproachItem", "ReturnHome",
    "TravelToDepot", "WaitAtDepot",
}


# -- pure per-step ops -------------------------------------------------


def test_colony_energy_leak_only():
    assert colony_energy_step(50.0, 0.1, 0.1) == pytest.approx(49.99, abs=1e-15)


def arrive_home(task, payload, energy_used):
    """A colony whose robot 0 steps inside the colony disk on its way
    home from task 1 or 2 with payload and a motion deficit: returns the
    dynamics, the robot and the store before the step."""
    cfg = colony_default()
    world = build_world(cfg, seed=0)
    robot = world.robots[0]
    robot.x, robot.y = 0.0, 0.0
    robot.assigned_task, robot.behavior = task, RETURN_HOME
    robot.payload, robot.energy_used = payload, energy_used
    dyn = world.dyn
    before = dyn.E_c
    assert dyn.behave(world, robot, cfg.dt) == (0.0, 0.0)
    return dyn, robot, before


def test_colony_energy_delivery_adds_source_energy():
    dyn, _, before = arrive_home(1, 0, 0.0)
    assert dyn.E_c == before + dyn.p.E_source


def test_colony_energy_charge_withdraws():
    dyn, _, before = arrive_home(2, "cargo", -2.5)
    assert dyn.E_c == before - 2.5


def test_robot_energy_full_speed_drain():
    # one second at v_max costs a tenth of the colony leak rate
    assert robot_energy_step(0.0, 1.0, 1.0, 1.0, 0.1) == pytest.approx(-0.01, abs=1e-16)


def test_robot_energy_stationary_robot_keeps_level():
    assert robot_energy_step(-0.5, 0.0, 0.1, 1.0, 0.1) == -0.5


def test_robot_energy_charging_resets():
    _, robot, _ = arrive_home(2, "cargo", -0.73)
    assert robot.energy_used == 0.0 and robot.behavior == IDLE_AT_BASE


def test_node_information_accumulates():
    assert node_information_step(0.5, 0, 0.1, 0.75, 2.0, 1.0) == pytest.approx(0.575, abs=1e-15)


def test_node_information_drains_per_robot():
    assert node_information_step(1.0, 1, 0.1, 0.75, 2.0, 1.0) == pytest.approx(0.875, abs=1e-15)


def test_node_information_clamps_both_ends():
    assert node_information_step(0.05, 2, 0.1, 0.75, 2.0, 1.0) == 0.0
    assert node_information_step(0.99, 0, 0.1, 0.75, 2.0, 1.0) == 1.0


def test_random_walk_draws_target_at_leg_distance():
    robot = ColonyRobot(id=0, x=10.0, y=0.0)
    mirror = random.Random("walk-test")
    theta = mirror.uniform(0.0, 2.0 * math.pi)
    random_walk_step(robot, 5.0, (5.0, 30.0), random.Random("walk-test"), 0.5)
    assert robot.target == pytest.approx(
        (10.0 + 5.0 * math.cos(theta), 5.0 * math.sin(theta)), abs=1e-12)


def test_random_walk_keeps_distant_target():
    robot = ColonyRobot(id=0, x=10.0, y=0.0, target=(20.0, 0.0))
    random_walk_step(robot, 5.0, (5.0, 30.0), random.Random(1), 0.5)
    assert robot.target == (20.0, 0.0)


def test_random_walk_redraws_on_arrival():
    robot = ColonyRobot(id=0, x=10.0, y=0.0, target=(10.2, 0.0))
    random_walk_step(robot, 5.0, (5.0, 30.0), random.Random(2), 0.5)
    assert robot.target != (10.2, 0.0)
    dist = math.hypot(robot.target[0] - 10.0, robot.target[1])
    assert dist == pytest.approx(5.0, abs=1e-12)


def test_random_walk_projects_target_into_annulus():
    rng = random.Random(3)
    for x in (29.5, 5.5, 6.0):
        robot = ColonyRobot(id=0, x=x, y=0.0)
        for _ in range(40):
            robot.target = None
            random_walk_step(robot, 5.0, (5.0, 30.0), rng, 0.5)
            norm = math.hypot(*robot.target)
            assert 5.0 - 1e-9 <= norm <= 30.0 + 1e-9


# -- world construction ------------------------------------------------


def test_build_world_places_robots_in_colony_with_separation():
    cfg = colony_default()
    world = build_world(cfg, seed=11)
    assert len(world.robots) == 12
    for robot in world.robots:
        assert math.hypot(robot.x, robot.y) <= cfg.colony.R_i + 1e-9
    for i, a in enumerate(world.robots):
        for b in world.robots[i + 1:]:
            assert math.hypot(a.x - b.x, a.y - b.y) >= cfg.colony.min_separation - 1e-9


def all_pairs_placement(cfg, seed):
    """The colony's rejection draws with each candidate tested against
    every placed point; None where 100 000 draws do not place them all."""
    p, rng = cfg.colony, random.Random(f"{seed}/placement")
    points = []
    for _ in range(100_000):
        radius = p.R_i * math.sqrt(rng.random())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x, y = radius * math.cos(theta), radius * math.sin(theta)
        if all((x - qx) ** 2 + (y - qy) ** 2 >= p.min_separation ** 2 for qx, qy in points):
            points.append((x, y))
            if len(points) == cfg.n_robots:
                return points
    return None


@pytest.mark.parametrize("n_robots, min_separation, seeds", [
    (12, 1.0, range(4)), (48, 1.0, range(4)), (64, 1.0, [0, 3]), (96, 0.6, [0, 1]),
    (20, 1e-320, [0]),
])
def test_grid_placement_matches_the_all_pairs_test(n_robots, min_separation, seeds):
    # The grid only skips points too far away to reject a candidate, so
    # every draw is accepted or rejected as the all-pairs test does; at
    # 64 robots seed 0 cannot be placed and seed 3 can.  A separation of
    # 1e-320 as the pitch would overflow the cell indices.
    base = colony_default()
    cfg = dataclasses.replace(base, n_robots=n_robots,
                              colony=dataclasses.replace(base.colony,
                                                         min_separation=min_separation))
    for seed in seeds:
        want = all_pairs_placement(cfg, seed)
        if want is None:
            with pytest.raises(ScenarioError, match=f"seed {seed}: cannot place"):
                build_world(cfg, seed)
        else:
            assert [(r.x, r.y) for r in build_world(cfg, seed).robots] == want


def test_build_world_scatters_sources_over_annulus():
    cfg = colony_default()
    world = build_world(cfg, seed=11)
    assert len(world.dyn.sources) == cfg.colony.n_sources
    for x, y in world.dyn.sources.values():
        norm = math.hypot(x, y)
        assert cfg.colony.R_i - 1e-9 <= norm <= cfg.colony.R_o + 1e-9


def test_build_world_is_seed_deterministic():
    a = build_world(colony_default(), seed=5)
    b = build_world(colony_default(), seed=5)
    c = build_world(colony_default(), seed=6)
    assert [(r.x, r.y) for r in a.robots] == [(r.x, r.y) for r in b.robots]
    assert a.dyn.sources == b.dyn.sources
    assert a.dyn.sources != c.dyn.sources


def test_monitoring_world_starts_on_idle_ring():
    cfg = monitoring_default()
    world = build_world(cfg, seed=0)
    assert len(world.robots) == 4
    cx, cy = cfg.monitoring.idle_point
    for robot in world.robots:
        assert math.hypot(robot.x - cx, robot.y - cy) == pytest.approx(
            cfg.monitoring.idle_ring, abs=1e-12)
    assert world.dyn.R == [0.0] * 5


# -- event timing ------------------------------------------------------


def test_colony_events_fire_on_schedule():
    cfg = colony_default()
    world = build_world(cfg, seed=4)
    rows = []
    for _ in range(2310):
        step(world, cfg)
        rows.append(world.metrics.rows[-1])
    # cargo lands during the step that starts at t = 120.0
    assert rows[1199][3] == 0
    assert rows[1200][3] == 10
    # removal at t = 172.5 drops the robot count from 12 to 6
    count = lambda row: row[4] + row[5] + row[6]
    assert count(rows[1724]) == 12
    assert count(rows[1725]) == 6
    assert len(world.robots) == 6
    # second cargo wave at t = 225.0
    assert rows[2250][3] - rows[2249][3] == 10


def test_removal_keeps_cargo_accounted():
    cfg = colony_default()
    world = build_world(cfg, seed=4)
    for _ in range(2400):
        step(world, cfg)
    in_transit = sum(1 for r in world.robots if r.payload == "cargo")
    dyn = world.dyn
    assert dyn.depot_stock + in_transit + dyn.delivered_cargo == dyn.injected_cargo
    assert dyn.injected_cargo == 20


# -- run-level invariants ----------------------------------------------


def test_colony_signals_stay_in_unit_interval():
    cfg = colony_default()
    world = build_world(cfg, seed=9)
    for _ in range(1500):
        step(world, cfg)
        assert all(0.0 <= s <= 1.0 for s in world.signals)


def test_hysteresis_only_idle_transitions():
    cfg = colony_default()
    world = build_world(cfg, seed=8)
    before = {r.id: r.assigned_task for r in world.robots}
    for _ in range(2000):
        step(world, cfg)
        for robot in world.robots:
            old = before[robot.id]
            new = robot.assigned_task
            assert old == new or old == 0 or new == 0, (old, new)
        before = {r.id: r.assigned_task for r in world.robots}


def test_colony_behavior_state_machine_invariants():
    cfg = colony_default()
    world = build_world(cfg, seed=7)
    for _ in range(1500):
        step(world, cfg)
        for robot in world.robots:
            assert robot.behavior in COLONY_BEHAVIORS
            if robot.payload is not None:
                assert robot.behavior == RETURN_HOME
            if robot.assigned_task == 0:
                assert robot.behavior == IDLE_AT_BASE
            else:
                assert robot.behavior != IDLE_AT_BASE
            assert robot.energy_used <= 0.0


def test_colony_conservation_residual_tiny():
    cfg = dataclasses.replace(colony_default(), t_final=240.0)
    metrics = run(cfg, seed=3)
    assert metrics.failure is None
    assert metrics.max_conservation_residual <= 1e-9


def test_cargo_incomplete_until_the_goal_is_delivered():
    one_unit = (Event(time=5.0, kind="cargo_delivery", amount=1, location=(20.0, 0.0)),)
    cfg = dataclasses.replace(colony_default(), events=one_unit)
    early = run(dataclasses.replace(cfg, t_final=10.0), seed=0)
    assert early.cargo_incomplete and early.all_cargo_delivered_time is None
    done = run(dataclasses.replace(cfg, t_final=150.0), seed=0)
    assert not done.cargo_incomplete and done.all_cargo_delivered_time is not None
    no_goal = dataclasses.replace(colony_default(), t_final=10.0, events=())
    assert not run(no_goal, seed=0).cargo_incomplete
    assert not run(dataclasses.replace(monitoring_default(), t_final=10.0)).cargo_incomplete


def test_colony_run_is_deterministic():
    cfg = dataclasses.replace(colony_default(), t_final=180.0)
    a = run(cfg, seed=12)
    b = run(cfg, seed=12)
    assert a.rows == b.rows
    assert a.deadlock_flags == b.deadlock_flags


def test_monitoring_run_is_deterministic():
    cfg = dataclasses.replace(monitoring_default(), t_final=60.0)
    a = run(cfg, seed=12)
    b = run(cfg, seed=12)
    assert a.rows == b.rows


def test_monitoring_information_bounds_and_release():
    cfg = dataclasses.replace(monitoring_default(), t_final=60.0)
    world = build_world(cfg, seed=2)
    drained = False
    for _ in range(600):
        step(world, cfg)
        for value in world.dyn.R:
            assert -1e-12 <= value <= cfg.monitoring.R_max + 1e-12
        for robot in world.robots:
            if robot.assigned_task == 0:
                assert robot.behavior == IDLE_AT_BASE
        if any(v == 0.0 for v in world.dyn.R):
            drained = True
    assert drained, "no node was ever fully serviced"


def test_monitoring_costs_follow_positions():
    cfg = monitoring_default()
    world = build_world(cfg, seed=0)
    world.signals = world.dyn.signals(world)
    instance, row_of = world.dyn.build_instance(world)
    assert sorted(row_of) == [0, 1, 2, 3]
    for robot in world.robots:
        row = row_of[robot.id]
        for k, (nx, ny) in enumerate(cfg.monitoring.nodes):
            expected = math.hypot(nx - robot.x, ny - robot.y) / cfg.monitoring.D
            assert instance.costs[row, k] == pytest.approx(expected, abs=1e-12)
        assert instance.costs[row].max() <= 1.0 + 1e-9


def test_min_distance_column_respects_radius():
    cfg = dataclasses.replace(colony_default(), t_final=120.0)
    metrics = run(cfg, seed=1)
    floor = cfg.r - 1e-6
    for row, flagged in zip(metrics.rows, metrics.deadlock_flags):
        if not flagged:
            assert row[-1] >= floor


def _jammed_monitoring(**changes):
    # twelve idle-ring slots 0.155 m apart: every robot deadlocks at once
    return dataclasses.replace(monitoring_default(), n_robots=12, t_final=5.0, **changes)


def test_total_deadlock_fails_the_run():
    metrics = run(_jammed_monitoring(), seed=0)
    assert metrics.failure == DEADLOCKED
    assert len(metrics.rows) == 1
    assert metrics.deadlock_robot_steps == metrics.robot_steps == 12


def test_total_deadlock_waits_for_a_pending_removal():
    removal = Event(time=1.0, kind="robot_removal", amount=11)
    metrics = run(_jammed_monitoring(events=(removal,)), seed=0)
    # the lone survivor is free to move once the removal fires at step 10
    assert metrics.failure is None
    assert len(metrics.rows) == 50
    assert metrics.deadlock_flags[:10] == [True] * 10
    assert not any(metrics.deadlock_flags[10:])
