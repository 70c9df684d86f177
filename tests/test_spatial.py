"""Sweep-based spatial queries against brute-force all-pairs references.

The sweeps must agree with an all-pairs loop exactly: the same
neighbour indices in the same order, and the same `min_dist` float.
The strategies lean on the cases a sort-and-sweep can get wrong:
repeated x values, coincident points and pairs exactly at the cutoff.
The step reuses one step's closing sweep as the next step's neighbour
lists, so those are also checked against a fresh sweep after the
robots change between steps.
"""

import dataclasses
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmgames.scenarios import Event, colony_default
from swarmgames.sim import build_world, engine, step
from swarmgames.sim.engine import min_pair_distance, neighbor_sweep

# lattice values repeat x often and give exact squared distances;
# the free floats exercise rounding
coords = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
    st.integers(-8, 8).map(lambda k: k * 0.25),
    st.floats(-5.0, 5.0, allow_nan=False),
)
points = st.tuples(coords, coords)


@st.composite
def clouds(draw):
    pts = draw(st.lists(points, max_size=50))
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=10))   # coincident copies
        pts = draw(st.permutations(pts))
    return pts


def brute_neighbors(pts, cutoff_sq):
    lists = [[] for _ in pts]
    for i, (xi, yi) in enumerate(pts):
        for j, (xj, yj) in enumerate(pts):
            if i != j:
                dx = xi - xj
                dy = yi - yj
                if dx * dx + dy * dy <= cutoff_sq:
                    lists[i].append(j)
    return lists


def brute_min_dist(pts):
    if len(pts) < 2:
        return math.inf
    return math.sqrt(min((pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
                         for i in range(len(pts)) for j in range(i + 1, len(pts))))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_neighbor_indices_match_all_pairs(data):
    pts = data.draw(clouds())
    if len(pts) >= 2 and data.draw(st.booleans()):
        # a cutoff that one drawn pair sits on exactly
        i, j = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2,
                                  unique=True))
        dx = pts[i][0] - pts[j][0]
        dy = pts[i][1] - pts[j][1]
        cutoff_sq = dx * dx + dy * dy
    else:
        cutoff_sq = data.draw(st.floats(0.0, 20.0))
    assert neighbor_sweep(pts, cutoff_sq)[0] == brute_neighbors(pts, cutoff_sq)


@settings(max_examples=300, deadline=None)
@given(clouds())
def test_min_pair_distance_matches_all_pairs(pts):
    assert min_pair_distance(pts) == brute_min_dist(pts)


def test_sweeps_on_hand_cases():
    # (0,0)-(1,0) and (0,0)-(0,1) sit exactly on a unit cutoff
    pts = [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    assert neighbor_sweep(pts, 1.0) == ([[1, 3], [0, 2, 3], [1, 3], [0, 1, 2]], 0.0)
    assert min_pair_distance(pts) == 0.0
    assert neighbor_sweep([], 1.0) == ([], math.inf)
    assert min_pair_distance([(3.0, 4.0)]) == math.inf
    assert min_pair_distance([(0.0, 0.0), (3.0, 4.0)]) == 5.0


# With glibc's pow, dx**2 + dy**2 and dx*dx + dy*dy round apart for this
# offset, and so do their square roots: min_dist must use the `** 2` form.
POW_PAIR = [(0.0, 0.0), (0.36850489092832744, 0.2510298843863561)]


@settings(max_examples=300, deadline=None)
@given(clouds(), st.floats(0.0, 20.0))
@example(POW_PAIR, 1.0)
@example(POW_PAIR + [(3.0, 3.0)], 0.1)                  # no pair within the cutoff
@example([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)], 1.0)     # closest pair exactly at it
def test_neighbor_sweep_matches_all_pairs(pts, cutoff_sq):
    lists, min_dist = neighbor_sweep(pts, cutoff_sq)
    assert lists == brute_neighbors(pts, cutoff_sq)
    assert min_dist == brute_min_dist(pts)


def _crowded_colony():
    # robots packed at 0.6 m in a 1.5 m colony disk: most have neighbours
    base = colony_default()
    return dataclasses.replace(
        base, n_robots=10, t_final=10.0, events=(),
        colony=dataclasses.replace(base.colony, R_i=1.5, min_separation=0.6))


changes = st.one_of(
    st.none(),
    st.just("remove"),
    st.tuples(st.integers(0, 9), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.lists(changes, min_size=1, max_size=8))
def test_reused_neighbor_lists_match_a_fresh_sweep(seed, between_steps):
    config = _crowded_colony()
    world = build_world(config, seed)
    seen = []

    def recording_filter(qp):
        seen.append((qp.position, qp.neighbor_positions))
        return filter_velocity(qp)

    filter_velocity = engine.filter_velocity
    engine.filter_velocity = recording_filter
    try:
        step(world, config)
        for change in between_steps:
            if change == "remove":
                world.dyn.apply_event(world, Event(time=0.0, kind="robot_removal", amount=1))
            elif change is not None:
                k, dx, dy = change
                robot = world.robots[k % len(world.robots)]
                robot.x += dx
                robot.y += dy
            positions = [(r.x, r.y) for r in world.robots]
            del seen[:]
            step(world, config)
            fresh, _ = neighbor_sweep(positions, world.swept[1])
            assert seen == [(p, [positions[j] for j in nbrs])
                            for p, nbrs in zip(positions, fresh)]
    finally:
        engine.filter_velocity = filter_velocity
