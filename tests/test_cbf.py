"""Tests for the velocity safety filter."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmgames import cbf
from swarmgames.cbf import N_FACETS, VelocityQP, filter_velocity
from swarmgames.sim.engine import neighbor_pairs

COLONY = dict(v_max=1.0, r=0.25, R_o=30.0)
MONITORING = dict(v_max=4.0, r=0.04, R_o=2.0 * math.sqrt(2.0), alpha_c=10.0)


def rows_of(qp):
    px, py = qp.position
    rows = [(2 * px, 2 * py, qp.alpha * (qp.R_o ** 2 - (px * px + py * py)))]
    for nx, ny in qp.neighbor_positions:
        dx, dy = px - nx, py - ny
        dist = math.hypot(dx, dy)
        rows.append((-dx, -dy,
                     0.5 * qp.alpha_c * (dist * dist - qp.r ** 2)
                     - 0.5 * qp.v_max * dist))
    return rows


def assert_safe(qp, v):
    assert math.hypot(*v) <= qp.v_max + 1e-9
    for ax, ay, b in rows_of(qp):
        assert ax * v[0] + ay * v[1] <= b + 1e-9


def test_unconstrained_reference_passes_through():
    qp = VelocityQP((0.3, -0.4), (1.0, 2.0), [], **COLONY)
    v, deadlock = filter_velocity(qp)
    assert v == (0.3, -0.4)
    assert not deadlock


def test_fast_reference_is_scaled_to_speed_limit():
    qp = VelocityQP((3.0, 4.0), (0.0, 0.0), [], **COLONY)
    v, deadlock = filter_velocity(qp)
    assert not deadlock
    assert v[0] == pytest.approx(0.6, abs=1e-12)
    assert v[1] == pytest.approx(0.8, abs=1e-12)


def test_containment_row_caps_outward_speed():
    # At p = (29.8, 0) the containment row reads 59.6 vx <= 11.96.
    qp = VelocityQP((1.0, 0.0), (29.8, 0.0), [], **COLONY)
    v, deadlock = filter_velocity(qp)
    assert not deadlock
    assert v[0] == pytest.approx(11.96 / 59.6, abs=1e-9)
    assert v[1] == pytest.approx(0.0, abs=1e-12)
    assert_safe(qp, v)


def test_containment_projection_keeps_tangential_component():
    qp = VelocityQP((1.0, 0.3), (29.8, 0.0), [], **COLONY)
    v, deadlock = filter_velocity(qp)
    assert not deadlock
    assert v[0] == pytest.approx(11.96 / 59.6, abs=1e-9)
    assert v[1] == pytest.approx(0.3, abs=1e-9)


def test_neighbor_row_forces_retreat_with_facets():
    # The neighbor sits inside the standoff radius dead ahead; the row
    # demands vx <= -0.3125 while the reference is full tilt sideways,
    # so the optimum lands on the speed polygon.
    qp = VelocityQP((0.0, 1.0), (0.0, 0.0), [(0.5, 0.0)], **COLONY)
    v, deadlock = filter_velocity(qp)
    assert not deadlock
    assert v[0] <= -0.3125 + 1e-9
    assert v[1] > 0.8
    assert math.hypot(*v) <= qp.v_max + 1e-9


def test_opposed_neighbors_are_a_deadlock():
    qp = VelocityQP((1.0, 0.0), (0.0, 0.0),
                    [(0.26, 0.0), (-0.26, 0.0)], **COLONY)
    v, deadlock = filter_velocity(qp)
    assert deadlock
    assert v == (0.0, 0.0)


def test_head_on_rollout_is_symmetric_and_separating():
    dt = 0.1
    a = [-2.0, 0.0]
    b = [2.0, 0.0]
    min_dist = math.inf
    for _ in range(400):
        va, da = filter_velocity(VelocityQP((1.0, 0.0), tuple(a), [tuple(b)], **COLONY))
        vb, db = filter_velocity(VelocityQP((-1.0, 0.0), tuple(b), [tuple(a)], **COLONY))
        assert not da and not db
        # the setup is mirror symmetric through the origin, exactly
        assert vb[0] == -va[0] and vb[1] == -va[1]
        a[0] += va[0] * dt
        a[1] += va[1] * dt
        b[0] += vb[0] * dt
        b[1] += vb[1] * dt
        min_dist = min(min_dist, math.hypot(a[0] - b[0], a[1] - b[1]))
    assert min_dist >= COLONY["r"] - 1e-6
    # they settle near the analytic standoff distance
    standoff = (1.0 + math.sqrt(1.0 + 4 * 0.25 ** 2)) / 2.0
    assert abs(math.hypot(a[0] - b[0], a[1] - b[1]) - standoff) < 0.1


def test_head_on_rollout_monitoring_scale():
    dt = 0.1
    a = [1.0, 2.0]
    b = [3.0, 2.0]
    center = (2.0, 2.0)
    min_dist = math.inf
    for _ in range(300):
        qa = VelocityQP((4.0, 0.0), (a[0] - center[0], a[1] - center[1]),
                        [(b[0] - center[0], b[1] - center[1])], **MONITORING)
        qb = VelocityQP((-4.0, 0.0), (b[0] - center[0], b[1] - center[1]),
                        [(a[0] - center[0], a[1] - center[1])], **MONITORING)
        va, da = filter_velocity(qa)
        vb, db = filter_velocity(qb)
        assert not da and not db
        a[0] += va[0] * dt
        a[1] += va[1] * dt
        b[0] += vb[0] * dt
        b[1] += vb[1] * dt
        min_dist = min(min_dist, math.hypot(a[0] - b[0], a[1] - b[1]))
    assert min_dist >= MONITORING["r"] - 1e-6


def test_four_robot_pileup_never_penetrates():
    dt = 0.1
    pts = [[3.0, 0.0], [0.0, 3.0], [-3.0, 0.0], [0.0, -3.0]]
    for _ in range(400):
        vels = []
        for i, p in enumerate(pts):
            speed = math.hypot(*p)
            v_ref = (-p[0] / speed, -p[1] / speed) if speed > 1e-9 else (0.0, 0.0)
            neighbors = [tuple(q) for j, q in enumerate(pts) if j != i]
            v, _ = filter_velocity(VelocityQP(v_ref, tuple(p), neighbors, **COLONY))
            vels.append(v)
        for p, v in zip(pts, vels):
            p[0] += v[0] * dt
            p[1] += v[1] * dt
        for i in range(4):
            for j in range(i + 1, 4):
                d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                assert d >= COLONY["r"] - 1e-6


def test_boundary_rollout_never_leaves_domain():
    dt = 0.1
    p = [29.0, 0.0]
    for _ in range(500):
        v, deadlock = filter_velocity(VelocityQP((1.0, 0.1), tuple(p), [], **COLONY))
        assert not deadlock
        p[0] += v[0] * dt
        p[1] += v[1] * dt
        assert math.hypot(*p) <= 30.0 + 1.0 * dt


def test_random_stress_satisfies_rows():
    rng = random.Random(20240818)
    deadlocks = 0
    for _ in range(3000):
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0, 29.9)
        px, py = radius * math.cos(angle), radius * math.sin(angle)
        neighbors = []
        for _ in range(rng.randrange(0, 4)):
            na = rng.uniform(0, 2 * math.pi)
            nd = rng.uniform(0.26, 3.0)
            neighbors.append((px + nd * math.cos(na), py + nd * math.sin(na)))
        v_ref = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        qp = VelocityQP(v_ref, (px, py), neighbors, **COLONY)
        v, deadlock = filter_velocity(qp)
        if deadlock:
            deadlocks += 1
            assert v == (0.0, 0.0)
            continue
        assert_safe(qp, v)
    assert deadlocks < 300  # jams exist but must be rare at these densities


def test_facet_count_is_sixteen():
    assert N_FACETS == 16


def reference_filter(qp):
    """filter_velocity as it was before the row-free pass-through: build
    every row, then test the speed-clipped reference against each."""
    vx, vy = qp.v_ref
    speed = math.hypot(vx, vy)
    if speed > qp.v_max:
        scale = qp.v_max / speed
        cx, cy = vx * scale, vy * scale
    else:
        cx, cy = vx, vy
    rows = cbf._affine_rows(qp)
    for ax, ay, b in rows:
        if ax * cx + ay * cy - b > cbf._TOL:
            break
    else:
        return (cx, cy), False
    best = cbf._best_candidate(rows, vx, vy)
    if best is not None and math.hypot(*best) <= qp.v_max + 1e-12:
        return best, False
    if best is None:
        return (0.0, 0.0), True
    bound = qp.v_max * cbf._FACET_SCALE
    rows.extend((fx, fy, bound) for fx, fy in cbf._FACETS)
    best = cbf._best_candidate(rows, vx, vy)
    if best is None:
        return (0.0, 0.0), True
    return best, False


@st.composite
def velocity_qps(draw):
    """Problems near the row boundaries: positions up to just past the
    domain edge, neighbours from overlapping to well clear."""
    params = draw(st.sampled_from([COLONY, MONITORING]))
    v_max, r, R_o = params["v_max"], params["r"], params["R_o"]
    speed = st.floats(-2.0 * v_max, 2.0 * v_max)
    angle = st.floats(0.0, 2.0 * math.pi)
    a, radius = draw(angle), draw(st.floats(0.0, 1.05 * R_o))
    px, py = radius * math.cos(a), radius * math.sin(a)
    neighbors = []
    for _ in range(draw(st.integers(0, 5))):
        na, nd = draw(angle), draw(st.floats(0.5 * r, 8.0 * r))
        neighbors.append((px + nd * math.cos(na), py + nd * math.sin(na)))
    qp = VelocityQP((draw(speed), draw(speed)), (px, py), neighbors, **params)
    rows = [row for row in cbf._affine_rows(qp) if row[0] ** 2 + row[1] ** 2 > 1e-12]
    if rows and draw(st.booleans()):
        # a reference within a few _TOL of one row's boundary, either side
        ax, ay, b = draw(st.sampled_from(rows))
        gap = draw(st.sampled_from([-2e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]))
        scale = (b + gap) / (ax * ax + ay * ay)
        qp.v_ref = (ax * scale, ay * scale)
    return qp


@settings(max_examples=600, deadline=None)
@given(velocity_qps())
def test_filter_matches_row_building_reference(qp):
    assert filter_velocity(qp) == reference_filter(qp)


@st.composite
def swarms(draw):
    """A cluster of robots somewhere from the centre to past the domain
    edge, with references that are zero, too fast, or within a few _TOL
    of one of the robot's rows, and a cutoff that can sit exactly on a
    drawn pair."""
    params = draw(st.sampled_from([COLONY, MONITORING]))
    v_max, r, R_o = params["v_max"], params["r"], params["R_o"]
    a, radius = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.0, 1.05 * R_o))
    offset = st.floats(-6.0 * r, 6.0 * r)
    pts = [(radius * math.cos(a) + draw(offset), radius * math.sin(a) + draw(offset))
           for _ in range(draw(st.integers(0, 8)))]
    cutoff_sq = (4.0 * r) ** 2
    if len(pts) >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2,
                             unique=True))
        cutoff_sq = (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
    xy, src, dst, _ = neighbor_pairs(pts, cutoff_sq)
    neighbors = [[pts[j] for j in dst[src == i].tolist()] for i in range(len(pts))]
    speed = st.floats(-3.0 * v_max, 3.0 * v_max)
    v_refs = []
    for i, p in enumerate(pts):
        kind = draw(st.sampled_from(["zero", "free", "row"]))
        v_ref = (0.0, 0.0) if kind == "zero" else (draw(speed), draw(speed))
        rows = [row for row in cbf._affine_rows(VelocityQP(v_ref, p, neighbors[i], **params))
                if row[0] ** 2 + row[1] ** 2 > 1e-12]
        if kind == "row" and rows:
            ax, ay, b = draw(st.sampled_from(rows))
            gap = draw(st.sampled_from([-2e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]))
            scale = (b + gap) / (ax * ax + ay * ay)
            v_ref = (ax * scale, ay * scale)
        v_refs.append(v_ref)
    return params, pts, neighbors, v_refs, (xy, src, dst)


@settings(max_examples=500, deadline=None)
@given(swarms())
def test_pass_through_flags_exactly_the_robots_that_build_rows(swarm):
    params, pts, neighbors, v_refs, (xy, src, dst) = swarm
    clipped, flagged = cbf.pass_through(v_refs, xy, src, dst, **params)
    assert len(clipped) == len(flagged) == len(pts)
    for i, p in enumerate(pts):
        # filter_velocity builds the rows exactly when its inline test fails
        with mock.patch.object(cbf, "_affine_rows", wraps=cbf._affine_rows) as rows:
            result = filter_velocity(VelocityQP(v_refs[i], p, neighbors[i], **params))
        assert bool(flagged[i]) == rows.called
        if not flagged[i]:
            assert result == (clipped[i], False)
