"""Sweep-based spatial queries against brute-force all-pairs references.

The sweeps must agree with an all-pairs loop exactly: the same
neighbour indices in the same order, and the same `min_dist` float.
The strategies lean on the cases a sort-and-sweep can get wrong:
repeated x values, coincident points and pairs exactly at the cutoff.
The step reuses one step's closing sweep as the next step's neighbour
lists, so those are also checked against a fresh sweep after the
robots change between steps.  `neighbor_pairs`, the numpy pass that
large swarms run, is held to the same references, on clouds shifted far
from the origin too, where the rounding of its candidate window shows.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmgames.scenarios import Event, colony_default, monitoring_default
from swarmgames.sim import build_world, engine, run, step
from swarmgames.sim.engine import neighbor_pairs, neighbor_sweep

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
    # the square the neighbour test takes: dx*dx + dy*dy, not dx**2 + dy**2
    best = math.inf
    for i, (xi, yi) in enumerate(pts):
        for xj, yj in pts[i + 1:]:
            dx = xi - xj
            dy = yi - yj
            best = min(best, dx * dx + dy * dy)
    return math.sqrt(best)


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
@given(clouds(), st.sampled_from([0.0, 0.01, 1.0, 100.0]))
def test_min_pair_distance_matches_all_pairs(pts, cutoff_sq):
    # the smallest pair distance holds whatever the cutoff: at 0 or 0.01
    # most clouds have no neighbour pair, at 100 every pair is one
    assert neighbor_sweep(pts, cutoff_sq)[1] == brute_min_dist(pts)
    assert neighbor_pairs(pts, cutoff_sq)[3] == brute_min_dist(pts)


def test_sweeps_on_hand_cases():
    # (0,0)-(1,0) and (0,0)-(0,1) sit exactly on a unit cutoff
    pts = [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    assert neighbor_sweep(pts, 1.0) == ([[1, 3], [0, 2, 3], [1, 3], [0, 1, 2]], 0.0)
    assert neighbor_sweep(pts, 0.0)[1] == 0.0
    assert neighbor_sweep([], 1.0) == ([], math.inf)
    assert neighbor_sweep([(3.0, 4.0)], 1.0)[1] == math.inf
    assert neighbor_sweep([(0.0, 0.0), (3.0, 4.0)], 1.0)[1] == 5.0


# With glibc's pow, dx**2 + dy**2 and dx*dx + dy*dy round apart for this
# offset, and so do their square roots: this pair pins min_dist to the
# product form, the square the neighbour test takes.
POW_PAIR = [(0.0, 0.0), (0.36850489092832744, 0.2510298843863561)]


@settings(max_examples=300, deadline=None)
@given(clouds(), st.floats(0.0, 20.0))
@example(POW_PAIR, 1.0)
@example(POW_PAIR + [(3.0, 3.0)], 0.1)                  # no pair within the cutoff
@example([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)], 1.0)     # closest pair exactly at it
@example(POW_PAIR, 0.0)                                  # cutoff 0
# no pair within the cutoff, and the closest pair sits far apart in x
@example([(0.0, 0.0), (0.5, 5.0), (3.0, 0.0), (6.5, 5.0)], 1.0)
# isolated points at the left end of the x order, ahead of a close pair
@example([(-4.0, 2.0), (-3.0, -2.0), (2.0, 0.0), (2.1, 0.0)], 0.25)
def test_neighbor_sweep_matches_all_pairs(pts, cutoff_sq):
    lists, min_dist = neighbor_sweep(pts, cutoff_sq)
    assert lists == brute_neighbors(pts, cutoff_sq)
    assert min_dist == brute_min_dist(pts)


def pair_lists(pts, cutoff_sq):
    """`neighbor_pairs` as neighbour lists, after checking its arrays' order."""
    xy, src, dst, min_dist = neighbor_pairs(pts, cutoff_sq)
    assert xy.tolist() == [list(p) for p in pts]
    keys = list(zip(src.tolist(), dst.tolist()))
    assert keys == sorted(set(keys))
    lists = [[] for _ in pts]
    for i, j in keys:
        lists[i].append(j)
    return lists, min_dist


@settings(max_examples=300, deadline=None)
@given(clouds(), st.floats(0.0, 20.0), st.sampled_from([0.0, 1e6, -1e6]), st.data())
@example(POW_PAIR, 1.0, 0.0, None)
@example(POW_PAIR + [(3.0, 3.0)], 0.1, 0.0, None)
@example([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)], 1.0, 0.0, None)
@example([(2.0, float(k)) for k in range(12)], 4.0, 1e6, None)     # all at one x
@example([(0.0, 0.0), (1e-200, 0.0)], 0.0, 0.0, None)              # dx*dx underflows to 0
def test_neighbor_pairs_match_all_pairs(pts, cutoff_sq, offset, data):
    pts = [(x + offset, y - offset) for x, y in pts]
    if data is not None and len(pts) >= 2 and data.draw(st.booleans()):
        # a cutoff that one drawn pair sits on exactly, offset included
        i, j = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2,
                                  unique=True))
        dx = pts[i][0] - pts[j][0]
        dy = pts[i][1] - pts[j][1]
        cutoff_sq = dx * dx + dy * dy
    assert pair_lists(pts, cutoff_sq) == (brute_neighbors(pts, cutoff_sq), brute_min_dist(pts))


def test_neighbor_pairs_on_hand_cases():
    assert pair_lists([], 1.0) == ([], math.inf)
    assert pair_lists([(3.0, 4.0)], 1.0) == ([[]], math.inf)
    assert pair_lists([(0.0, 0.0), (3.0, 4.0)], 1.0) == ([[], []], 5.0)
    assert pair_lists([(0.0, 0.0), (3.0, 4.0)], 25.0) == ([[1], [0]], 5.0)
    # (0,0)-(1,0) and (0,0)-(0,1) sit exactly on a unit cutoff
    pts = [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    assert pair_lists(pts, 1.0) == ([[1, 3], [0, 2, 3], [1, 3], [0, 1, 2]], 0.0)


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


def _apply(world, change):
    """Change the world between two steps, as a removal or an outside caller would."""
    if change == "remove":
        world.dyn.apply_event(world, Event(time=0.0, kind="robot_removal", amount=1))
    elif change is not None:
        k, dx, dy = change
        robot = world.robots[k % len(world.robots)]
        robot.x += dx
        robot.y += dy


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
            _apply(world, change)
            positions = [(r.x, r.y) for r in world.robots]
            del seen[:]
            step(world, config)
            fresh, _ = neighbor_sweep(positions, world.swept[1])
            assert seen == [(p, [positions[j] for j in nbrs])
                            for p, nbrs in zip(positions, fresh)]
    finally:
        engine.filter_velocity = filter_velocity


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.lists(changes, min_size=1, max_size=8))
def test_numpy_path_follows_changes_between_steps(seed, between_steps):
    # the numpy path reuses its pair arrays under the same rule as the lists
    config = _crowded_colony()
    traces = []
    gate = engine._NUMPY_PAIRS
    try:
        for numpy_pairs in (math.inf, 0):
            engine._NUMPY_PAIRS = numpy_pairs
            world = build_world(config, seed)
            step(world, config)
            trace = []
            for change in between_steps:
                _apply(world, change)
                step(world, config)
                trace.append(([(r.x, r.y, r.deadlock) for r in world.robots],
                               world.metrics.rows[-1]))
            traces.append(trace)
    finally:
        engine._NUMPY_PAIRS = gate
    assert traces[0] == traces[1]


def _colony(n_robots, t_final):
    base = colony_default()
    if n_robots == base.n_robots:
        return dataclasses.replace(base, t_final=t_final)
    return dataclasses.replace(base, n_robots=n_robots, t_final=t_final,
                               colony=dataclasses.replace(base.colony, min_separation=0.6))


GATED_RUNS = [
    ("colony12", lambda: _colony(12, 60.0), (0, 1)),
    ("crowd96", lambda: _colony(96, 20.0), (0, 1)),
    # through the 172.5 s removal, which forces a fresh pass
    ("crowd96-removal", lambda: _colony(96, 180.0), (0,)),
    ("monitoring", lambda: dataclasses.replace(monitoring_default(), t_final=200.0), (0,)),
    # 11 robots on the idle ring deadlock together at step 1
    ("monitoring11", lambda: dataclasses.replace(monitoring_default(), n_robots=11), (0,)),
]


@pytest.mark.parametrize("make_config,seeds", [case[1:] for case in GATED_RUNS],
                         ids=[case[0] for case in GATED_RUNS])
def test_python_and_numpy_paths_give_the_same_run(monkeypatch, tmp_path, make_config, seeds):
    config = make_config()
    for seed in seeds:
        runs = []
        for gate in (math.inf, 0):
            monkeypatch.setattr(engine, "_NUMPY_PAIRS", gate)
            metrics = run(config, seed)
            out = tmp_path / f"{seed}-{gate}.csv"
            metrics.write_csv(out)
            runs.append((out.read_bytes(), metrics.deadlock_flags, metrics.failure))
        assert runs[0] == runs[1]
