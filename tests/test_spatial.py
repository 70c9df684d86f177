"""Sweep-based spatial queries against brute-force all-pairs references.

The sweeps must agree with an all-pairs loop exactly: the same
neighbour indices in the same order, and the same `min_dist` float.
The strategies lean on the cases a sort-and-sweep can get wrong:
repeated x values, coincident points and pairs exactly at the cutoff.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from swarmgames.sim.engine import min_pair_distance, neighbor_indices

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
    assert neighbor_indices(pts, cutoff_sq) == brute_neighbors(pts, cutoff_sq)


@settings(max_examples=300, deadline=None)
@given(clouds())
def test_min_pair_distance_matches_all_pairs(pts):
    assert min_pair_distance(pts) == brute_min_dist(pts)


def test_sweeps_on_hand_cases():
    # (0,0)-(1,0) and (0,0)-(0,1) sit exactly on a unit cutoff
    pts = [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 0.0)]
    assert neighbor_indices(pts, 1.0) == [[1, 3], [0, 2, 3], [1, 3], [0, 1, 2]]
    assert min_pair_distance(pts) == 0.0
    assert neighbor_indices([], 1.0) == []
    assert min_pair_distance([(3.0, 4.0)]) == math.inf
    assert min_pair_distance([(0.0, 0.0), (3.0, 4.0)]) == 5.0
