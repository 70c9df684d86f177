"""Tests for the equilibrium solver and its oracle.

Expected values were worked out by hand from the utility definition
(or, where noted, cross-checked by Monte Carlo or by a general-purpose
minimiser of the game's potential) before being frozen here, so the
solver is tested against numbers it did not produce.
"""

import bisect
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from swarmgames import allocation
from swarmgames.allocation import (
    EPS_EQ,
    EPS_SUM,
    EPS_ZERO,
    MixedStrategy,
    ProblemInstance,
    allocate,
    draw_action,
    verify_equilibrium,
)


def homogeneous(gamma, signals, idle, assigned=None, costs=None):
    """One-group instance: `idle` robots free, `assigned` committed per task."""
    m = len(gamma)
    assigned = [0] * m if assigned is None else list(assigned)
    costs = [0.0] * m if costs is None else list(costs)
    return ProblemInstance(gamma, signals, [costs], [[idle, *assigned]])


# The paper's closed forms for one group of identical robots, kept here as
# reference formulas for allocate.


def signal_range(gamma, n_idle, n_assigned):
    """Signal interval where joining the task is a genuinely mixed choice.

    Below the lower endpoint joining is strictly dominant; above the
    upper endpoint idling is.  With an empty idle pool the interval is
    degenerate.
    """
    return (1.0 - (n_idle + n_assigned) / gamma, 1.0 - n_assigned / gamma)


def solve_homogeneous_idle(instance):
    """Single-group equilibrium when idling stays in the support.

    Every supported task must pay exactly the idle utility, which pins
    p_k = (gamma_k / n_0) (1 - s_k - c_k - n_k/gamma_k), clamped to
    [0, 1] and snapped onto a bound within EPS_ZERO.  The idle entry
    p_0 = 1 - sum p_k may come out negative; that flags infeasibility,
    and the group then mixes over tasks only.
    """
    n0 = int(instance.counts[0, 0])
    raw = (instance.gamma / n0) * (
        1.0 - instance.signals - instance.costs[0]
        - instance.task_totals / instance.gamma
    )
    p = np.clip(raw, 0.0, 1.0)
    p = np.where(np.abs(p) < EPS_ZERO, 0.0, p)
    p = np.where(np.abs(p - 1.0) < EPS_ZERO, 1.0, p)
    p0 = 1.0 - p.sum()
    if abs(p0) < EPS_ZERO:
        p0 = 0.0
    return MixedStrategy(np.concatenate(([p0], p)).reshape(1, -1))


# Reference helpers: the game's definitions one entry at a time, for
# hand-computed checks and as the loop oracle's building blocks.


def expected_task_count(instance, strategy, k):
    """E[N_k] = |n_k| + sum_i n_0^i p_k^i for action k in 1..M."""
    if not 1 <= k <= instance.n_tasks:
        raise ValueError(f"task action {k} outside 1..{instance.n_tasks}")
    probs = strategy.probs
    if probs.shape != (instance.n_groups, instance.n_tasks + 1):
        raise ValueError("strategy dimensions do not match instance")
    committed = int(instance.counts[:, k].sum())
    return float(committed + instance.counts[:, 0] @ probs[:, k])


def expected_utility(instance, strategy, i, a):
    """Expected utility of action a for a group-i robot; idling pays 0."""
    if a == 0:
        return 0.0
    expected = expected_task_count(instance, strategy, a)
    k = a - 1
    gamma = instance.gamma[k]
    return float((gamma - expected) / gamma - instance.signals[k] - instance.costs[i, k])


def sample_assignment(strategy, i, u):
    """Inverse-CDF draw over actions (0, 1, ..., M) for group i: the first
    action whose cumulative probability exceeds u."""
    return draw_action(strategy.probs[i].tolist(), u)


def supports(strategy, tol=EPS_ZERO):
    """Each group's actions with probability above tol."""
    return [tuple(int(a) for a in np.flatnonzero(row > tol)) for row in strategy.probs]


# ---------------------------------------------------------------------------
# instance validation


def test_instance_rejects_bad_fields():
    good = dict(gamma=[10.0], signals=[0.5], costs=[[0.0]], counts=[[5, 0]])
    ProblemInstance(**good)
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "gamma": [0.0]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "gamma": [-3.0]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "gamma": [[10.0]]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "signals": [1.2]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "signals": [-0.1]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "signals": [float("nan")]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "costs": [[-0.5]]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "counts": [[5, 1.5]]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "counts": [[-1, 0]]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "counts": [[5, float("inf")]]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "counts": [[5, 0, 0]]})
    with pytest.raises(ValueError):
        ProblemInstance(**{**good, "costs": np.zeros((0, 1)), "counts": np.zeros((0, 2))})


def test_instance_derived_shapes():
    inst = ProblemInstance(
        gamma=[10.0, 8.0],
        signals=[0.2, 0.3],
        costs=[[0.0, 0.1], [0.2, 0.0]],
        counts=[[3, 1, 0], [2, 0, 4]],
    )
    assert inst.n_tasks == 2
    assert inst.n_groups == 2
    assert inst.idle_counts.tolist() == [3, 2]
    assert inst.task_totals.tolist() == [1, 4]


# ---------------------------------------------------------------------------
# game primitives


def test_expected_task_count_hand_value():
    # One committed robot plus one idle robot joining with p = 0.5.
    inst = homogeneous([10.0], [0.2], idle=1, assigned=[1])
    strat = MixedStrategy([[0.5, 0.5]])
    assert expected_task_count(inst, strat, 1) == pytest.approx(1.5, abs=1e-15)


def test_expected_task_count_monte_carlo():
    # Cross-check the formula by simulating the binomial head count.
    inst = ProblemInstance(
        gamma=[10.0],
        signals=[0.2],
        costs=[[0.0], [0.0]],
        counts=[[3, 2], [2, 0]],
    )
    strat = MixedStrategy([[0.6, 0.4], [0.3, 0.7]])
    exact = expected_task_count(inst, strat, 1)
    assert exact == pytest.approx(2 + 3 * 0.4 + 2 * 0.7, abs=1e-15)
    rng = random.Random(314159)
    draws = 200_000
    total = 0
    for _ in range(draws):
        heads = 2
        for _ in range(3):
            heads += rng.random() < 0.4
        for _ in range(2):
            heads += rng.random() < 0.7
        total += heads
    # var = 3 * 0.4 * 0.6 + 2 * 0.7 * 0.3 = 1.14 per draw
    sigma = (1.14 / draws) ** 0.5
    assert abs(total / draws - exact) < 4 * sigma


def test_expected_utility_hand_value():
    inst = homogeneous([10.0], [0.2], idle=1, assigned=[1])
    strat = MixedStrategy([[0.5, 0.5]])
    assert expected_utility(inst, strat, 0, 1) == pytest.approx(0.65, abs=1e-15)
    assert expected_utility(inst, strat, 0, 0) == 0.0


def test_expected_task_count_rejects_bad_action():
    inst = homogeneous([10.0], [0.2], idle=1)
    strat = MixedStrategy([[0.5, 0.5]])
    with pytest.raises(ValueError):
        expected_task_count(inst, strat, 0)
    with pytest.raises(ValueError):
        expected_task_count(inst, strat, 2)


def test_signal_range_hand_value():
    lo, hi = signal_range(10.0, 5, 2)
    assert lo == pytest.approx(0.3, abs=1e-15)
    assert hi == pytest.approx(0.8, abs=1e-15)
    # Empty idle pool degenerates the interval.
    lo, hi = signal_range(10.0, 0, 2)
    assert lo == hi == pytest.approx(0.8, abs=1e-15)


# ---------------------------------------------------------------------------
# closed-form homogeneous solvers


def test_homogeneous_idle_hand_value():
    inst = homogeneous([10.0], [0.5], idle=5, assigned=[2])
    strat = solve_homogeneous_idle(inst)
    assert strat.probs[0, 1] == pytest.approx(0.6, abs=1e-12)
    assert strat.probs[0, 0] == pytest.approx(0.4, abs=1e-12)
    report = verify_equilibrium(inst, strat)
    assert report.valid


def test_homogeneous_idle_near_satisfied_signals():
    inst = homogeneous([12.0, 7.2], [0.99, 0.99], idle=12)
    strat = solve_homogeneous_idle(inst)
    assert strat.probs[0, 1] == pytest.approx(0.01, abs=1e-12)
    assert strat.probs[0, 2] == pytest.approx(0.006, abs=1e-12)
    assert strat.probs[0, 0] == pytest.approx(0.984, abs=1e-12)
    assert verify_equilibrium(inst, strat).valid


def test_homogeneous_idle_fully_satisfied_signals():
    inst = homogeneous([12.0, 7.2], [1.0, 1.0], idle=12)
    strat = solve_homogeneous_idle(inst)
    assert strat.probs[0].tolist() == [1.0, 0.0, 0.0]


def test_homogeneous_idle_reports_infeasibility():
    # Two hungry tasks saturate four robots; idle mass would go negative.
    inst = homogeneous([10.0, 10.0], [0.0, 0.0], idle=4)
    strat = solve_homogeneous_idle(inst)
    assert strat.probs[0, 0] < 0.0


def test_homogeneous_idle_exact_boundaries():
    # At the interval endpoints the probability is exactly 0 or 1.
    gamma, idle, assigned = 10.0, 5, 2
    lo, hi = signal_range(gamma, idle, assigned)
    at_lo = solve_homogeneous_idle(homogeneous([gamma], [lo], idle, [assigned]))
    assert at_lo.probs[0, 1] == 1.0
    assert at_lo.probs[0, 0] == 0.0
    at_hi = solve_homogeneous_idle(homogeneous([gamma], [hi], idle, [assigned]))
    assert at_hi.probs[0, 1] == 0.0
    assert at_hi.probs[0, 0] == 1.0


def test_homogeneous_noidle_hand_values():
    inst = homogeneous([10.0, 10.0], [0.2, 0.4], idle=5)
    strat = allocate(inst).strategy
    assert strat.probs[0, 1] == pytest.approx(0.7, abs=1e-9)
    assert strat.probs[0, 2] == pytest.approx(0.3, abs=1e-9)
    assert strat.probs[0, 0] == 0.0
    assert expected_utility(inst, strat, 0, 1) == pytest.approx(0.45, abs=1e-9)
    assert expected_utility(inst, strat, 0, 2) == pytest.approx(0.45, abs=1e-9)
    assert verify_equilibrium(inst, strat).valid


def test_homogeneous_noidle_symmetric_tasks():
    inst = homogeneous([8.0, 8.0], [0.3, 0.3], idle=6)
    strat = allocate(inst).strategy
    assert strat.probs[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert strat.probs[0, 2] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# heterogeneous groups


def test_hetero_idle_cost_ties_pool_robots():
    inst = ProblemInstance(
        gamma=[10.0],
        signals=[0.5],
        costs=[[0.1], [0.1]],
        counts=[[5, 1], [3, 1]],
    )
    strat = allocate(inst).strategy
    # gamma (1 - s - c - 2/gamma) / (5 + 3) = 10 * 0.2 / 8
    assert strat.probs[0, 1] == pytest.approx(0.25, abs=1e-12)
    assert strat.probs[1, 1] == pytest.approx(0.25, abs=1e-12)
    assert verify_equilibrium(inst, strat).valid


def test_hetero_idle_requires_idle_robots():
    # Without idle robots nobody decides: every row is the idle row.
    inst = ProblemInstance(
        gamma=[10.0],
        signals=[0.5],
        costs=[[0.1], [0.3]],
        counts=[[0, 1], [0, 1]],
    )
    result = allocate(inst)
    assert result.strategy.probs.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert result.report.valid


def test_hetero_noidle_pools_identical_cost_groups():
    inst = ProblemInstance(
        gamma=[10.0, 10.0],
        signals=[0.2, 0.4],
        costs=[[0.0, 0.0], [0.0, 0.0]],
        counts=[[2, 0, 0], [3, 0, 0]],
    )
    strat = allocate(inst).strategy
    # the five pooled robots split as one group of five would
    for i in range(2):
        assert strat.probs[i, 1] == pytest.approx(0.7, abs=1e-9)
        assert strat.probs[i, 2] == pytest.approx(0.3, abs=1e-9)
    assert verify_equilibrium(inst, strat).valid


def test_hetero_noidle_empty_support_rows_stay_idle():
    inst = ProblemInstance(
        gamma=[10.0],
        signals=[0.2],
        costs=[[0.0], [0.9]],
        counts=[[4, 0], [7, 0]],
    )
    strat = allocate(inst).strategy
    assert strat.probs[0].tolist() == [0.0, 1.0]
    assert strat.probs[1].tolist() == [1.0, 0.0]


# ---------------------------------------------------------------------------
# the full pipeline


def test_allocate_two_task_split():
    inst = homogeneous([10.0, 10.0], [0.2, 0.4], idle=5)
    result = allocate(inst)
    assert result.strategy.probs[0, 1] == pytest.approx(0.7, abs=1e-9)
    assert result.strategy.probs[0, 2] == pytest.approx(0.3, abs=1e-9)
    assert result.strategy.probs[0, 0] == 0.0
    assert supports(result.strategy) == [(1, 2)]
    assert result.report.valid


def test_allocate_idle_feasible_single_task():
    result = allocate(homogeneous([10.0], [0.5], idle=5, assigned=[2]))
    assert result.strategy.probs[0].tolist() == pytest.approx([0.4, 0.6], abs=1e-12)
    assert supports(result.strategy) == [(0, 1)]
    assert result.report.valid


def test_allocate_near_satisfied_signals():
    result = allocate(homogeneous([12.0, 7.2], [0.99, 0.99], idle=12))
    assert result.strategy.probs[0, 0] == pytest.approx(0.984, abs=1e-12)
    assert result.strategy.probs[0, 1] == pytest.approx(0.01, abs=1e-12)
    assert result.strategy.probs[0, 2] == pytest.approx(0.006, abs=1e-12)
    assert result.report.valid


def test_allocate_no_idle_robots_is_degenerate():
    result = allocate(homogeneous([10.0], [0.2], idle=0, assigned=[3]))
    assert result.strategy.probs[0].tolist() == [1.0, 0.0]
    assert supports(result.strategy) == [(0,)]
    assert result.report.valid


def test_allocate_saturated_cheap_group_hands_overflow_upward():
    # Group 0 is cheaper but tiny; once it commits every robot, group 1
    # absorbs the remaining demand and keeps some idle mass.
    inst = ProblemInstance(
        gamma=[20.0],
        signals=[0.0],
        costs=[[0.0], [0.5]],
        counts=[[2, 0], [10, 0]],
    )
    result = allocate(inst)
    assert result.strategy.probs[0].tolist() == pytest.approx([0.0, 1.0], abs=1e-9)
    assert result.strategy.probs[1, 1] == pytest.approx(0.8, abs=1e-9)
    assert result.strategy.probs[1, 0] == pytest.approx(0.2, abs=1e-9)
    assert result.report.valid


def test_allocate_diagonal_specialization():
    inst = ProblemInstance(
        gamma=[10.0, 10.0],
        signals=[0.3, 0.3],
        costs=[[0.1, 0.5], [0.6, 0.2]],
        counts=[[4, 0, 0], [4, 0, 0]],
    )
    result = allocate(inst)
    assert result.strategy.probs[0].tolist() == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)
    assert result.strategy.probs[1].tolist() == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)
    assert result.report.valid
    assert expected_utility(inst, result.strategy, 0, 1) == pytest.approx(0.2, abs=1e-9)
    assert expected_utility(inst, result.strategy, 1, 2) == pytest.approx(0.1, abs=1e-9)


def test_allocate_hetero_idle_feasible():
    inst = ProblemInstance(
        gamma=[10.0],
        signals=[0.5],
        costs=[[0.1], [0.3]],
        counts=[[5, 1], [3, 1]],
    )
    result = allocate(inst)
    assert result.strategy.probs[0].tolist() == pytest.approx([0.6, 0.4], abs=1e-12)
    assert result.strategy.probs[1].tolist() == [1.0, 0.0]
    assert result.report.valid


def unique_merge_probs(inst):
    """allocate's round up to the row assembly, in array code at every
    size and with the merge by np.unique on a void view of the cost rows
    it once had: the merged groups' (h, M) task probabilities, each
    group's merged index, the path and the iteration count.  A miss of
    at most _SMALL_CELLS merged cells runs the crossover from the warm
    start, its rows divided by np.maximum(mass, 1.0); a larger one runs
    _interior, then the crossover."""
    costs, counts = inst.costs, inst.counts
    keys = np.ascontiguousarray(costs).view(np.dtype((np.void, costs.itemsize * costs.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    merged_idx = np.argsort(order)[inverse]
    merged = np.zeros((order.size, counts.shape[1]), dtype=counts.dtype)
    np.add.at(merged, merged_idx, counts)
    c, n0 = costs[first[order]], merged[:, 0].astype(float)
    gamma, s, ntask = inst.gamma, inst.signals, inst.task_totals.astype(float)
    probs_m = allocation._warm_start(gamma, s, c, n0, ntask)
    path, iterations = "warm", 0
    if not allocation._certified(1.0 - s - c, gamma, n0, ntask, probs_m):
        if c.size <= allocation._SMALL_CELLS:
            mass = probs_m.sum(axis=1)
            probs_m, iterations = allocation._crossover(
                gamma, s, c, n0, ntask, probs_m > 0.0, mass > 1.0 + EPS_ZERO,
                probs_m / np.maximum(mass, 1.0)[:, None])
            path = "crossover"
        else:
            sup, busy, p, steps = allocation._interior(gamma, s, c, n0, ntask)
            probs_m, crossed = allocation._crossover(gamma, s, c, n0, ntask, sup, busy, p)
            path, iterations = "interior", steps + crossed
    return probs_m, merged_idx, path, iterations


def unique_merge_round(inst):
    """allocate's array round as it was with the unique merge, and with
    a row assembly that fills only the rows of groups with idle robots:
    the reference for _merge_groups and the row assembly.  Returns the
    (g, M+1) rows, the path and the iteration count."""
    probs_m, merged_idx, path, iterations = unique_merge_probs(inst)
    probs = np.zeros((inst.n_groups, inst.n_tasks + 1))
    probs[:, 0] = 1.0
    deciding = inst.idle_counts > 0
    rows = probs_m[merged_idx[deciding]]
    probs[deciding, 0] = 1.0 - rows.sum(axis=1)
    probs[deciding, 1:] = rows
    return probs, path, iterations


def test_merge_groups_pools_bit_identical_rows_in_first_appearance_order():
    costs = np.array([[0.5, 0.25], [0.0, 0.1], [0.5, 0.25], [-0.0, 0.1], [0.0, 0.1],
                      [0.5, 0.25 + 1e-17], [0.5, np.nextafter(0.25, 1.0)]])
    merged_idx, first = allocation._merge_groups(costs)
    # 0.25 + 1e-17 rounds to 0.25; the next float up and -0.0 stay apart
    assert merged_idx == [0, 1, 0, 2, 1, 0, 3]
    assert first == [0, 1, 3, 6]


@pytest.mark.parametrize("g,m,distinct", [(2, 33, 2), (5, 16, 3)])
def test_merge_groups_matches_the_unique_merge(g, m, distinct):
    # array rounds (above _SMALL_CELLS cells) whose cost rows are drawn
    # from a few distinct ones, so most of them pool groups
    rng = np.random.default_rng(20261019 + g)
    paths, pooled = set(), 0
    for _ in range(40):
        base = np.round(rng.uniform(0.0, 1.0, (distinct, m)), 1)
        costs = base[rng.integers(0, distinct, g)]
        counts = rng.integers(0, 6, (g, m + 1))
        inst = ProblemInstance(np.round(rng.uniform(1.0, 20.0, m)),
                               np.round(rng.uniform(0.0, 1.0, m), 1), costs, counts)
        assert inst.costs.size > allocation._SMALL_CELLS
        result = allocate(inst, check=False)
        assert np.array_equal(result.strategy.probs, unique_merge_round(inst)[0])
        paths.add(result.path)
        pooled += len(allocation._merge_groups(inst.costs)[1]) < g
    assert pooled >= 20 and paths - {"warm"}


def idle_free_draws(g, m, count):
    """Array rounds where about a third of the groups have no idle robots,
    some of them pooled with groups that do (so their merged row is not
    idle); costs rounded so supports tie and some rounds miss the warm
    start."""
    rng = np.random.default_rng(20261020 + g)
    for _ in range(count):
        base = np.round(rng.uniform(0.0, 1.0, (g // 3, m)), 1)
        costs = base[rng.integers(0, g // 3, g)]
        counts = rng.integers(0, 3, (g, m + 1))
        counts[:, 0] = rng.integers(1, 5, g)
        counts[rng.uniform(size=g) < 0.35, 0] = 0
        yield ProblemInstance(np.round(rng.uniform(10.0, 60.0, m)),
                              np.round(rng.uniform(0.0, 1.0, m), 1), costs, counts)


@pytest.mark.parametrize("g,m", [(9, 8), (24, 4), (40, 3)])
def test_array_round_gives_groups_without_idle_robots_exact_idle_rows(g, m):
    paths, pooled_with_deciding = set(), 0
    for inst in idle_free_draws(g, m, 40):
        assert inst.costs.size > allocation._SMALL_CELLS
        result = allocate(inst)
        probs = result.strategy.probs
        assert result.report.valid
        assert probs.tobytes() == unique_merge_round(inst)[0].tobytes()
        no_idle = inst.idle_counts == 0
        assert (probs[no_idle, 0] == 1.0).all() and (probs[no_idle, 1:] == 0.0).all()
        merged_idx = np.array(allocation._merge_groups(inst.costs)[0])
        pooled_with_deciding += np.isin(merged_idx[no_idle], merged_idx[~no_idle]).sum()
        paths.add(result.path)
    assert pooled_with_deciding >= 20 and paths - {"warm"}


@pytest.mark.parametrize("g,m,draw", [(9, 8, 162), (9, 8, 217), (24, 4, 228)])
def test_array_round_keeps_the_dust_it_certified(g, m, draw):
    # draws whose round leaves float dust: a task probability within
    # EPS_ZERO of 0 (162) or of 1 (228), an idle mass within EPS_ZERO of
    # 0 (217).  The rows are the certified point as it is.
    *_, inst = idle_free_draws(g, m, draw + 1)
    probs_m, merged_idx, _, _ = unique_merge_probs(inst)
    deciding = inst.idle_counts > 0
    raw = probs_m[merged_idx[deciding]]
    dust = np.abs(np.column_stack([raw, raw - 1.0, 1.0 - raw.sum(axis=1)]))
    assert ((dust > 0.0) & (dust < EPS_ZERO)).any()
    result = allocate(inst)
    rows = np.column_stack([1.0 - raw.sum(axis=1), raw])
    assert result.strategy.probs[deciding].tobytes() == rows.tobytes()
    assert result.report.valid


def test_allocate_splits_identical_cost_groups_evenly():
    pooled = allocate(homogeneous([10.0, 10.0], [0.2, 0.4], idle=5)).strategy
    split = allocate(ProblemInstance(
        gamma=[10.0, 10.0],
        signals=[0.2, 0.4],
        costs=[[0.0, 0.0], [0.0, 0.0]],
        counts=[[2, 0, 0], [3, 0, 0]],
    ))
    for i in range(2):
        assert split.strategy.probs[i].tolist() == pytest.approx(
            pooled.probs[0].tolist(), abs=1e-9)
    assert split.report.valid


def test_allocate_matches_idle_feasible_closed_form():
    rng = random.Random(424242)
    for _ in range(200):
        m = rng.randrange(1, 5)
        gamma = [rng.uniform(1.0, 20.0) for _ in range(m)]
        signals = [rng.random() for _ in range(m)]
        idle = rng.randrange(1, 12)
        assigned = [rng.randrange(0, 8) for _ in range(m)]
        inst = homogeneous(gamma, signals, idle, assigned)
        closed = solve_homogeneous_idle(inst)
        if closed.probs[0, 0] < 0.0:
            continue
        got = allocate(inst).strategy
        assert np.allclose(got.probs, closed.probs, atol=1e-9)


def test_allocate_keeps_committed_robots_in_head_counts():
    # Committed robots push the task toward saturation even though they
    # make no new choice.
    inst = ProblemInstance(
        gamma=[10.0],
        signals=[0.2],
        costs=[[0.0], [0.0]],
        counts=[[4, 0], [0, 6]],
    )
    result = allocate(inst)
    # q* = gamma (1 - s) - committed = 8 - 6 = 2, shared by 4 robots.
    assert result.strategy.probs[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert result.strategy.probs[1].tolist() == [1.0, 0.0]
    assert result.report.valid


def test_allocate_prices_out_pin_behind_saturated_group():
    # A saturated group mixing two tasks links their load levels, so a
    # newcomer pinning one task re-prices the other.  Here group 2 joins
    # task 1 behind fully-committed group 0, which pushes group 3 off
    # task 4 entirely.  Values from the pin/link equations by hand:
    # l1 = 1 - c[2,1], l4 = l1 + c[0,1] - c[0,4], masses from gamma.
    inst = ProblemInstance(
        gamma=[4.0] * 5,
        signals=[0.325, 0.625, 1.0, 0.4, 0.925],
        costs=[
            [0.49386455533308427, 0.6797901183152661, 0.6656388582298035,
             0.46162280707361353, 0.3],
            [0.6469367255500196, 0.4516171632420333, 0.31713876010355085,
             0.5012514772755449, 0.669146495790275],
            [0.5055937104039171, 0.4292968218818577, 0.4599359804125619,
             0.5474567507319053, 0.571799124450306],
            [0.8276800743414214, 0.5409283650268196, 0.14303416417830447,
             0.49468666064690686, 0.8096033106387635],
        ],
        counts=[[1, 0, 0, 0, 0, 0]] * 4,
    )
    result = allocate(inst)
    probs = result.strategy.probs
    assert probs[0].tolist() == pytest.approx(
        [0.0, 0.49340784857778575, 0.0, 0.0, 0.5065921514222143, 0.0], abs=1e-12)
    assert probs[2].tolist() == pytest.approx(
        [1.0 - 0.18421730980654583, 0.18421730980654583, 0.0, 0.0, 0.0, 0.0],
        abs=1e-12)
    assert probs[1].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert probs[3].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert result.report.valid


def _pooled_draw(rng, g, m):
    """Pooled groups: 2-6 idle and 0-3 committed robots each, drawn in this order."""
    gamma = [rng.uniform(2.0, 20.0) for _ in range(m)]
    signals = [rng.random() for _ in range(m)]
    costs = [[rng.uniform(0.0, 0.5) for _ in range(m)] for _ in range(g)]
    counts = [[rng.randint(2, 6)] + [rng.randint(0, 3) for _ in range(m)] for _ in range(g)]
    return ProblemInstance(gamma, signals, costs, counts)


@st.composite
def instances(draw, max_tasks=16, max_cells=64 * 16, min_cells=1):
    """Any shape up to 64 groups x max_tasks tasks with min_cells to
    max_cells cells, in three count families.

    Singleton groups with nothing committed are what monitoring builds;
    pooled groups always have idle robots; random counts include groups
    without any.  Rounded draws make exact cost and task ties.
    """
    family = draw(st.sampled_from(["singleton", "pooled", "random"]))
    m = draw(st.integers(-(-min_cells // 64), min(max_tasks, max_cells)))
    g = draw(st.integers(-(-min_cells // m), min(64, max_cells // m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = rng.uniform(1.0, 20.0, m)
    signals = rng.uniform(0.0, 1.0, m)
    costs = rng.uniform(0.0, 1.0, (g, m))
    if draw(st.booleans()):
        gamma, signals, costs = np.round(gamma), np.round(signals, 1), np.round(costs, 1)
    counts = np.zeros((g, m + 1), dtype=np.int64)
    if family == "singleton":
        counts[:, 0] = 1
    elif family == "pooled":
        counts[:, 0] = rng.integers(2, 7, g)
        counts[:, 1:] = rng.integers(0, 4, (g, m))
    else:
        counts[:] = rng.integers(0, 11, (g, m + 1))
    return ProblemInstance(gamma, signals, costs, counts)


def potential_minimiser_loads(inst):
    """Task loads minimising the game's potential, by SLSQP over x = n0 p.

    Phi(x) = sum_k L_k^2 / (2 gamma_k) + sum_ik x_ik (s_k + c_ik - 1)
    over x >= 0 with sum_k x_ik <= n0_i; Phi is strictly convex in the
    loads L, so they are unique even where the masses are not.
    """
    g, m = inst.n_groups, inst.n_tasks
    n0 = inst.idle_counts.astype(float)
    w = (1.0 - inst.signals - inst.costs).ravel()
    rows = np.kron(np.eye(g), np.ones(m))

    def loads(z):
        return inst.task_totals + z.reshape(g, m).sum(axis=0)

    res = minimize(
        lambda z: 0.5 * np.sum(loads(z) ** 2 / inst.gamma) - w @ z,
        np.zeros(g * m),
        jac=lambda z: np.tile(loads(z) / inst.gamma, g) - w,
        method="SLSQP",
        bounds=[(0.0, n) for n in np.repeat(n0, m)],
        constraints=[{"type": "ineq", "fun": lambda z: n0 - rows @ z, "jac": lambda z: -rows}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    return loads(res.x)


# the monitoring scenario, campaign seed 508003: the step support iteration
# cycled on; its warm start fails the KKT test
MONITORING_CYCLE = ProblemInstance(
    gamma=[4.0] * 5,
    signals=[0.5499999999999999, 1.0, 0.17500000000000004, 1.0, 0.025000000000000133],
    costs=[
        [0.6517286556986409, 0.6951022679847653, 0.5271647268262855,
         0.30434401707723224, 0.4282313433323172],
        [0.8870694569346763, 0.8828562255208329, 0.5441914159972652,
         0.0700803249412795, 0.5551667758397997],
        [0.47035582468363174, 0.6932695550385304, 0.702547851943101,
         0.49212747318957095, 0.2717991244503061],
        [0.5476078237979062, 0.09999999999999998, 0.5236209131088881,
         0.8528333391217111, 0.8620936010218696],
    ],
    counts=[[1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0]],
)


@settings(max_examples=150, deadline=None)
@given(instances())
# pooled groups on which support iteration cycled
@example(_pooled_draw(random.Random("1088/4/5"), 4, 5))
@example(MONITORING_CYCLE)
# two singleton groups, each indifferent between two tied tasks: the
# masses on those tasks are not unique, only their loads are
@example(ProblemInstance(
    gamma=[4.0, 4.0, 4.0],
    signals=[0.0, 0.0, 0.0],
    costs=[[0.3, 0.3, 0.3], [0.3, 0.3, 0.4]],
    counts=[[1, 0, 0, 0], [1, 0, 0, 0]],
))
# a tiny gamma: the task mass of 3e-13 (float round) or up to 9e-13 per
# cell (a 20 x 5 array round) holds the equilibrium, and rounding it to 0
# would leave each task beating idling
@example(ProblemInstance([1e-12], [0.5], [[0.2]], [[1, 0]]))
@example(ProblemInstance([1e-12] * 5, [0.1, 0.3, 0.5, 0.7, 0.9],
                         np.arange(100.0).reshape(20, 5) / 100.0, [[1, 0, 0, 0, 0, 0]] * 20))
def test_allocate_random_instances_verify(inst):
    result = allocate(inst)
    assert result.report.valid, result.report
    sums = result.strategy.probs.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9), sums
    if inst.n_groups * inst.n_tasks <= 24:
        loads = inst.task_totals + inst.idle_counts @ result.strategy.probs[:, 1:]
        assert np.allclose(loads, potential_minimiser_loads(inst), rtol=0.0, atol=1e-5)


def test_allocate_dominance_ordering():
    # A costlier group only holds probability on a task once every
    # cheaper group has exhausted its idle mass.
    rng = random.Random(777)
    checked = 0
    for _ in range(300):
        m = rng.randrange(1, 4)
        inst = ProblemInstance(
            gamma=[rng.uniform(1.0, 20.0) for _ in range(m)],
            signals=[rng.uniform(0.0, 0.6) for _ in range(m)],
            costs=[[rng.random() for _ in range(m)] for _ in range(2)],
            counts=[[rng.randrange(0, 7) for _ in range(m + 1)] for _ in range(2)],
        )
        probs = allocate(inst).strategy.probs
        for k in range(1, m + 1):
            for u in range(2):
                for v in range(2):
                    if u == v or inst.counts[u, 0] == 0:
                        continue
                    if inst.costs[u, k - 1] < inst.costs[v, k - 1] and probs[v, k] > 1e-9:
                        assert probs[u, 0] <= 1e-9
                        checked += 1
    assert checked > 10  # the scenario actually occurred


@settings(max_examples=40, deadline=None)
@given(instances())
def test_allocate_check_flag_only_adds_the_report(inst):
    checked = allocate(inst, check=True)
    unchecked = allocate(inst, check=False)
    assert checked.strategy.probs.tobytes() == unchecked.strategy.probs.tobytes()
    assert unchecked.report is None
    assert checked.report is not None


@st.composite
def small_rounds(draw):
    """Rounds allocate runs in plain floats, some groups without idle robots."""
    inst = draw(instances(max_tasks=allocation._SMALL_CELLS, max_cells=allocation._SMALL_CELLS))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        counts = inst.counts.copy()
        counts[rng.uniform(size=inst.n_groups) < 0.25, 0] = 0
        inst = ProblemInstance(inst.gamma, inst.signals, inst.costs, counts)
    return inst


@settings(max_examples=200, deadline=None)
@given(st.one_of(instances(), small_rounds()))
@example(MONITORING_CYCLE)
def test_warm_rounds_are_those_the_closed_form_fits(inst):
    # The paper's regime: every task to its cheapest group(s) at their
    # zero-utility level leaves no better action, so that closed form is
    # the equilibrium exactly when it overfills no merged group with idle
    # robots.
    c, n0, ntask = merged_round(inst)
    warm = allocation._warm_start(inst.gamma, inst.signals, c, n0, ntask)
    fits = bool(np.all(warm[n0 > 0].sum(axis=1) <= 1.0 + EPS_ZERO))
    assert (allocate(inst, check=False).path == "warm") == fits


@settings(max_examples=400, deadline=None)
@given(small_rounds())
@example(MONITORING_CYCLE)
@example(_pooled_draw(random.Random("1088/4/5"), 4, 5))
def test_float_round_matches_array_round(inst):
    # Singleton draws often miss the warm start, so the hand-off from the
    # float warm start to the crossover is covered along with the hits.  A
    # hit must match _allocate_arrays.  A miss must match the array
    # reference, which starts the crossover at the warm start as the
    # float round does (_allocate_arrays runs larger rounds only, and
    # sends their misses through the interior method), from the same start
    # bit for bit.  A spurious miss would still reach the same equilibrium,
    # so the paths and step counts must also agree, and neither side may
    # reach the interior method.
    merged_idx, first = allocation._merge_groups(inst.costs)
    calls, starts = [], []
    interior, crossover = allocation._interior, allocation._crossover

    def recording(*args):
        starts.append(b"".join(a.tobytes() for a in args[5:]))  # sup, busy, p
        return crossover(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocation, "_interior", lambda *a: calls.append(1) or interior(*a))
        mp.setattr(allocation, "_crossover", recording)
        rows, path, iterations = allocation._allocate_small(inst, merged_idx, first)
        if path == "warm":
            arrays, array_path, array_iterations = allocation._allocate_arrays(
                inst, merged_idx, first)
        else:
            arrays, array_path, array_iterations = unique_merge_round(inst)
    floats = np.array(rows)
    assert floats.tobytes() == arrays.tobytes()
    assert (verify_equilibrium(inst, MixedStrategy(floats))
            == verify_equilibrium(inst, MixedStrategy(arrays)))
    assert calls == []
    assert (path, iterations) == (array_path, array_iterations)
    assert len(starts) in (0, 2) and len(set(starts)) <= 1


# Reference: Gauss-Seidel best-response sweeps on the potential, each
# group's step an exact water-filling solution.  An algorithm independent
# of allocate's search (only the final polish is shared), so the loads
# they reach check allocate's.


def water_fill(a, gamma, cap):
    """Minimise sum_k (x_k - a_k)^2 / (2 gamma_k) over x >= 0, sum_k x_k <= cap.

    The minimiser is x_k = max(0, a_k - gamma_k mu).  The level mu is 0
    unless the cap binds; then the breakpoints a_k / gamma_k are taken
    in descending order while each lies above the level the ones before
    it set.  Returns (x, mu).
    """
    if sum(ak for ak in a if ak > 0.0) <= cap:
        return [ak if ak > 0.0 else 0.0 for ak in a], 0.0
    breakpoints = sorted(((ak / gk, ak, gk) for ak, gk in zip(a, gamma) if ak > 0.0),
                         reverse=True)
    mass, weight = -cap, 0.0
    for t, ak, gk in breakpoints:
        if weight > 0.0 and t <= mass / weight:
            break
        mass += ak
        weight += gk
    mu = mass / weight
    return [max(ak - gk * mu, 0.0) for ak, gk in zip(a, gamma)], mu


def project(probs, n0, rows):
    """Nearest masses x >= 0 with sum_k x_ik <= n0_i to x = n0 * probs."""
    ones = [1.0] * probs.shape[1]
    x = np.zeros(probs.shape)
    for i in rows:
        x[i] = water_fill((probs[i] * n0[i]).tolist(), ones, n0[i])[0]
    return x


def potential(w, gamma, ntask, x):
    load = ntask + x.sum(axis=0)
    return 0.5 * float(load @ (load / gamma)) - float(np.sum(w * x))


def extrapolate(w, gamma, ntask, n0, start, x):
    """Exact line search of Phi along one sweep's displacement, past its
    end, until a mass would turn negative or a group would overfill."""
    d = x - start
    shift = d.sum(axis=0)
    curvature = float(shift @ (shift / gamma))
    slope = float(np.sum(((ntask + start.sum(axis=0)) / gamma - w) * d))
    if slope >= 0.0:
        return x
    t = -slope / curvature if curvature > 0.0 else np.inf
    shrink = d < 0.0
    if shrink.any():
        t = min(t, float(np.min(start[shrink] / -d[shrink])))
    growth = d.sum(axis=1)
    grow = growth > EPS_ZERO * n0
    if grow.any():
        t = min(t, float(np.min((n0[grow] - start[grow].sum(axis=1)) / growth[grow])))
    if t <= 1.0:
        return x
    return np.maximum(start + t * d, 0.0)


def best_response_sweeps(gamma, s, c, n0, ntask, probs, max_sweeps=10_000):
    """(g, M) task probabilities of the merged groups at a minimiser of
    Phi, by best-response sweeps from `probs`.  Once a (support, busy)
    pattern recurs it is polished with allocation._solve_modes at the
    sweep iterate, p = x / n0, which holds each cell that closes a cycle
    there; where ties leave that polish short of the KKT test, the sweep
    iterate is returned as soon as it passes."""
    w = 1.0 - s - c
    busy = np.zeros(n0.shape[0], dtype=bool)
    rows = np.flatnonzero(n0 > 0).tolist()
    val, gam, cap = (gamma * w).tolist(), gamma.tolist(), n0.tolist()
    x = project(probs, n0, rows)
    seen, polished = set(), set()
    for _ in range(max_sweeps):
        start = x
        xs = start.tolist()
        load = (ntask + start.sum(axis=0)).tolist()
        for i in rows:
            xi = xs[i]
            xs[i], mu = water_fill([v - l + xk for v, l, xk in zip(val[i], load, xi)],
                                   gam, cap[i])
            load = [l + nk - xk for l, nk, xk in zip(load, xs[i], xi)]
            busy[i] = mu > 0.0
        x = np.array(xs)
        sup = x > EPS_ZERO * n0[:, None]
        pattern = sup.tobytes() + busy.tobytes()
        if pattern in seen:
            point = x / np.where(n0 > 0, n0, 1.0)[:, None]
            if pattern not in polished:
                polished.add(pattern)
                probs = allocation._solve_modes(gamma, s, c, n0, ntask, sup, busy, point)[0]
                if allocation._certified(w, gamma, n0, ntask, probs):
                    return probs
                projected = project(probs, n0, rows)
                if potential(w, gamma, ntask, projected) < potential(w, gamma, ntask, x):
                    x = projected
                    continue
            if allocation._certified(w, gamma, n0, ntask, point):
                return point
        seen.add(pattern)
        x = extrapolate(w, gamma, ntask, n0, start, x)
    raise AssertionError(f"the reference sweeps did not converge in {max_sweeps}")


def merged_round(inst):
    """The merged groups' cost rows and idle counts, and the task totals,
    as allocate builds them."""
    merged_idx, first = allocation._merge_groups(inst.costs)
    return (inst.costs[first], np.bincount(merged_idx, inst.idle_counts),
            inst.task_totals.astype(float))


def sweep_loads(inst):
    """Task loads the best-response sweeps reach on the merged instance,
    started from the closed-form warm start."""
    c, n0, ntask = merged_round(inst)
    warm = allocation._warm_start(inst.gamma, inst.signals, c, n0, ntask)
    return ntask + n0 @ best_response_sweeps(inst.gamma, inst.signals, c, n0, ntask, warm)


@settings(max_examples=100, deadline=None)
@given(instances(min_cells=allocation._SMALL_CELLS + 1))
def test_interior_rounds_match_the_sweeps(inst):
    result = allocate(inst)
    assert result.report.valid, result.report
    loads = inst.task_totals + inst.idle_counts @ result.strategy.probs[:, 1:]
    # Where ties leave the masses free, either side may return a point
    # whose utilities are only within _CERT_TOL of their best, so the
    # prices L_k / gamma_k may differ by up to twice that.
    assert np.all(np.abs(loads - sweep_loads(inst)) <= 2 * allocation._CERT_TOL * inst.gamma)


def solve_modes_dense(gamma, s, c, n0, ntask, sup, busy, held, p):
    """Reference for allocation._solve_modes: the equilibrium equations
    on the whole support, one unknown per supported cell, busy groups on
    a single task included, in one dense solve.

    Per supported task with idle-mode groups: its expected head count at
    the first such group's zero-utility level, and equal probabilities
    for the others.  Per busy group: equal utility on every supported
    task, and a row summing to 1.  The `held` cells are no unknowns:
    they stay at p, their loads and row masses go on the right-hand side,
    and their own equations (equal probabilities, or equal utility) are
    dropped.
    """
    g, m = c.shape
    cells = [(k, i) for k, i in zip(*np.nonzero(sup.T)) if (i, k) not in held]  # task by task
    column = {cell: pos for pos, cell in enumerate(cells)}
    rows, rhs = [], []

    def load(k, scale, row):
        """Add task k's load, times scale, to row; return its held part."""
        fixed = 0.0
        for i in range(g):
            if (k, i) in column:
                row[column[k, i]] += scale * n0[i]
            elif (i, k) in held:
                fixed += scale * n0[i] * p[i, k]
        return fixed

    for k in range(m):
        idles = [i for i in range(g) if sup[i, k] and not busy[i] and (i, k) not in held]
        if not idles:
            continue
        row = np.zeros(len(cells))
        fixed = load(k, 1.0, row)
        rows.append(row)
        rhs.append(gamma[k] * (1.0 - s[k] - c[idles[0], k]) - ntask[k] - fixed)
        for i in idles[1:]:
            row = np.zeros(len(cells))
            row[column[k, idles[0]]], row[column[k, i]] = 1.0, -1.0
            rows.append(row)
            rhs.append(0.0)
    for i in np.flatnonzero(busy):
        tasks = [k for k in np.flatnonzero(sup[i]) if (k, i) in column]
        if not tasks:
            continue
        j = tasks[0]
        for k in tasks[1:]:
            row = np.zeros(len(cells))
            fixed = load(j, 1.0 / gamma[j], row) + load(k, -1.0 / gamma[k], row)
            rows.append(row)
            rhs.append(s[k] + c[i, k] - s[j] - c[i, j] + ntask[k] / gamma[k] - ntask[j] / gamma[j]
                       - fixed)
        row = np.zeros(len(cells))
        for k in tasks:
            row[column[k, i]] = 1.0
        rows.append(row)
        rhs.append(1.0 - sum(p[i, k] for k in np.flatnonzero(sup[i]) if (i, k) in held))
    probs = np.zeros((g, m))
    for i, k in held:
        probs[i, k] = p[i, k]
    if cells:
        ks, gs = zip(*cells)
        probs[gs, ks] = dense_solve(np.array(rows), np.array(rhs))
    return probs


def dense_solve(a, b):
    """LAPACK solve of A x = b, with its own singular verdict: a 2-norm
    condition number above 1e12 raises LinAlgError."""
    if not np.linalg.cond(a) <= 1e12:
        raise np.linalg.LinAlgError("ill-conditioned dense system")
    return np.linalg.solve(a, b)


def assert_patterns_match_the_dense_reference(inst):
    """Run allocate on inst and check every pattern it solves against
    solve_modes_dense with the cells _solve_modes held at the call's
    current point: solutions within 1e-12.  Returns allocate's result."""
    systems = []
    solve = allocation._solve_modes

    def recording(*args):
        systems.append([np.array(a) for a in args])  # the callers reuse sup, busy and the point
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocation, "_solve_modes", recording)
        result = allocate(inst)
    for system in systems:
        probs, held = solve(*system)
        reference = solve_modes_dense(*system[:7], held, system[7])
        assert np.max(np.abs(probs - reference), initial=0.0) <= 1e-12
    return result


@settings(max_examples=150, deadline=None)
@given(st.one_of(instances(), small_rounds()))
@example(MONITORING_CYCLE)
def test_solve_modes_matches_the_dense_reference(inst):
    assert_patterns_match_the_dense_reference(inst)


def wide_round(seed, g, m, pooled, rounded):
    """A seeded round past the caps of `instances` (g <= 64, M <= 16).

    Singleton groups with nothing committed, or pooled groups of 2-6 idle
    robots with 0-3 committed per task.  A pooled task's gamma is its
    committed count plus U(1, 3) times the idle robots per task, so that
    the tasks are not full before anyone joins and groups turn busy.
    Rounded draws make exact cost and task ties.
    """
    rng = np.random.default_rng([seed, g, m])
    counts = np.zeros((g, m + 1), dtype=np.int64)
    if pooled:
        counts[:, 0] = rng.integers(2, 7, g)
        counts[:, 1:] = rng.integers(0, 4, (g, m))
        gamma = counts[:, 1:].sum(axis=0) + rng.uniform(1.0, 3.0, m) * counts[:, 0].sum() / m
    else:
        counts[:, 0] = 1
        gamma = rng.uniform(1.0, 20.0, m)
    signals, costs = rng.uniform(0.0, 1.0, m), rng.uniform(0.0, 1.0, (g, m))
    if rounded:
        gamma, signals, costs = np.round(gamma), np.round(signals, 1), np.round(costs, 1)
    return ProblemInstance(gamma, signals, costs, counts)


@pytest.mark.parametrize("g, m, pooled, rounded", [
    *((g, m, pooled, rounded) for g, m, pooled in [(256, 5, False), (1024, 5, False),
                                                   (64, 32, False), (256, 16, True)]
      for rounded in (False, True)),
    (512, 16, False, True), (256, 32, False, True),
])
def test_rounds_beyond_the_instance_caps_certify(g, m, pooled, rounded):
    for seed in range(3):
        result = assert_patterns_match_the_dense_reference(wide_round(seed, g, m, pooled, rounded))
        assert result.report.valid, result.report


def test_a_support_cycle_holds_one_busy_cell():
    # Mass moved around a cycle of busy groups and tasks keeps every row
    # sum and load, so the equations leave it free (the dense reference
    # is singular): two busy groups on the same two tasks, and a busy
    # group on two tasks pinned by idle-mode groups (the cycle runs
    # through the pins).  A solve at a feasible point holds one busy cell
    # of the cycle there and solves the rest.
    gamma, s = np.array([4.0, 5.0, 6.0]), np.array([0.1, 0.2, 0.3])
    c = np.array([[0.1, 0.2, 0.3], [0.3, 0.1, 0.2], [0.2, 0.3, 0.1]])
    n0, ntask = np.array([1.0, 2.0, 3.0]), np.zeros(3)
    shared = [[1, 1, 0], [1, 1, 0], [0, 0, 1]], [1, 1, 0]
    pinned = [[1, 1, 0], [1, 0, 0], [0, 1, 0]], [1, 0, 0]
    for sup, busy in (shared, pinned):
        sup, busy = np.array(sup, dtype=bool), np.array(busy, dtype=bool)
        p = sup / np.where(busy, sup.sum(axis=1), 2.0)[:, None]  # busy rows at 1, idle ones at 1/2
        with pytest.raises(np.linalg.LinAlgError):
            solve_modes_dense(gamma, s, c, n0, ntask, sup, busy, (), p)
        probs, held = allocation._solve_modes(gamma, s, c, n0, ntask, sup, busy, p)
        assert len(held) == 1 and all(busy[i] for i, _ in held)
        reference = solve_modes_dense(gamma, s, c, n0, ntask, sup, busy, held, p)
        assert np.max(np.abs(probs - reference)) <= 1e-12


@st.composite
def held_cases(draw):
    """A rounded round from `instances` or `small_rounds`, a random
    (support, busy) pattern on its groups with idle robots and a random
    feasible point on that support: busy rows sum to 1, idle-mode rows to
    at most 1."""
    inst = draw(st.one_of(instances(max_cells=256), small_rounds()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, m = inst.n_groups, inst.n_tasks
    n0 = inst.idle_counts.astype(float)
    sup = (rng.uniform(size=(g, m)) < rng.uniform(0.1, 0.6)) & (n0 > 0)[:, None]
    busy = (rng.uniform(size=g) < 0.5) & sup.any(axis=1)
    p = np.where(sup, rng.uniform(0.1, 1.0, (g, m)), 0.0)
    p /= np.where(sup.any(axis=1), p.sum(axis=1), 1.0)[:, None]
    p[~busy] *= rng.uniform(0.0, 1.0, (g, 1))[~busy]
    round_ = (np.round(inst.gamma), np.round(inst.signals, 1), np.round(inst.costs, 1), n0,
              inst.task_totals.astype(float))
    return round_, sup, busy, p


@settings(max_examples=150, deadline=None)
@given(held_cases())
def test_held_cells_solve_like_the_dense_reference(case):
    # A call at a current point holds each cell that closes a cycle there
    # and solves the rest; the held set breaks every cycle, so the dense
    # reference with those cells on its right-hand side is regular.
    (gamma, s, c, n0, ntask), sup, busy, p = case
    probs, held = allocation._solve_modes(gamma, s, c, n0, ntask, sup, busy, p)
    reference = solve_modes_dense(gamma, s, c, n0, ntask, sup, busy, held, p)
    assert np.max(np.abs(probs - reference), initial=0.0) <= 1e-12
    util = 1.0 - s - c - (ntask + n0 @ probs) / gamma
    for (i, k), r in held.items():
        assert probs[i, k] == p[i, k]
        # a busy row's value is its utility on any cell it does not hold
        free = [j for j in np.flatnonzero(sup[i]) if (i, j) not in held]
        value = util[i, free[0]] if busy[i] else 0.0
        assert abs(r - (util[i, k] - value)) <= 1e-12
        # moving mass into the cell around its cycle keeps every busy row
        # sum and every load
        bumped = p.copy()
        bumped[i, k] += 1.0
        d = allocation._solve_modes(gamma, s, c, n0, ntask, sup, busy, bumped)[0] - probs
        assert d[i, k] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(d[busy].sum(axis=1)), initial=0.0) <= 1e-12
        assert np.max(np.abs(n0 @ d)) <= 1e-12


@st.composite
def kkt_cases(draw):
    """A small round's (g, M) task probabilities for the KKT tests: allocate's
    own, or those with a negative cell, an overfull row or relative noise."""
    inst = draw(small_rounds())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = allocate(inst, check=False).strategy.probs[:, 1:].copy()
    fault = draw(st.sampled_from(["none", "negative", "overfull", "noise"]))
    i, k = rng.integers(inst.n_groups), rng.integers(inst.n_tasks)
    if fault == "negative":
        probs[i, k] = -float(rng.choice([1e-3, 1e-11, 1e-13]))
    elif fault == "overfull":
        probs[i] += (1.0 + float(rng.choice([1e-3, 1e-11])) - probs[i].sum()) / inst.n_tasks
    elif fault == "noise":
        probs *= 1.0 + float(rng.choice([1e-6, 1e-9, 1e-12])) * rng.standard_normal(probs.shape)
    return inst, probs


@settings(max_examples=300, deadline=None)
@given(kkt_cases())
def test_float_kkt_test_matches_the_array_test(case):
    inst, probs = case
    n0, ntask = inst.idle_counts.astype(float), inst.task_totals.astype(float)
    w = 1.0 - inst.signals - inst.costs
    util = w - (ntask + n0 @ probs) / inst.gamma
    passed = allocation._certified_floats(util.tolist(), n0.tolist(), probs.tolist())
    assert passed == allocation._certified(w, inst.gamma, n0, ntask, probs)


def rounded(inst):
    """inst with exact cost and task ties: gamma (drawn from [1, 20])
    rounded to an integer, signals and costs rounded to 0.1."""
    return ProblemInstance(np.round(inst.gamma), np.round(inst.signals, 1),
                           np.round(inst.costs, 1), inst.counts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_rounds(), small_rounds().map(rounded)))
@example(MONITORING_CYCLE)
def test_small_misses_match_the_sweeps(inst):
    # every small miss ends in the crossover from the warm start
    result = allocate(inst)
    assert result.report.valid, result.report
    assert result.path in ("warm", "crossover")
    if result.path == "warm":
        return
    loads = inst.task_totals + inst.idle_counts @ result.strategy.probs[:, 1:]
    assert np.all(np.abs(loads - sweep_loads(inst)) <= 2 * allocation._CERT_TOL * inst.gamma)


def singleton_round(rng, g, m):
    """g singleton groups with nothing committed, the shape monitoring builds."""
    counts = np.zeros((g, m + 1), dtype=np.int64)
    counts[:, 0] = 1
    return ProblemInstance(rng.uniform(2.0, 20.0, m), rng.uniform(0.0, 1.0, m),
                           rng.uniform(0.0, 1.0, (g, m)), counts)


def test_large_singleton_rounds_certify():
    # g = 64 singleton draws, where the sweep count grew with g.  In 23 of
    # them the crossover's first solve fails the KKT test, so it steps on.
    rng = np.random.default_rng(1)
    iterations = 0
    for _ in range(40):
        result = allocate(singleton_round(rng, 64, int(rng.integers(4, 17))))
        assert result.report.valid
        assert result.path == "interior"
        iterations += result.iterations
    # 419 when the crossover takes over once mu < 1e-6 per robot; 423 when
    # each new pattern was polished once from there; 484 when a pattern had
    # to repeat and mu be below 1e-10 first
    assert iterations <= 440


def rounded_singleton_round(seed, g, m):
    """g singleton groups with exact ties: integer gammas, signals and
    costs rounded to 0.1."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((g, m + 1), dtype=np.int64)
    counts[:, 0] = 1
    return ProblemInstance(np.round(rng.uniform(1.0, 20.0, m)),
                           np.round(rng.uniform(0.0, 1.0, m), 1),
                           np.round(rng.uniform(0.0, 1.0, (g, m)), 1), counts)


def test_a_held_busy_cell_that_fails_the_kkt_test_sends_the_crossover_on():
    # After 7 interior iterations this round's pattern closes a cycle of
    # busy groups and tasks, so the crossover's first solve holds a cell at
    # the start point and fails the KKT test.  The crossover goes on and
    # certifies two steps later.
    held = []
    solve = allocation._solve_modes

    def recording(*args):
        out = solve(*args)
        if any(args[6][i] for i, _ in out[1]):  # a busy cell held
            held.append(out[0])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocation, "_solve_modes", recording)
        steps = recording_crossover(mp)
        inst = rounded_singleton_round(3983624044, 14, 15)
        result = allocate(inst)
    assert len(held) == 1
    c, n0, ntask = merged_round(inst)
    assert not allocation._certified(1.0 - inst.signals - c, inst.gamma, n0, ntask, held[0])
    assert result.report.valid
    assert steps == [3]
    assert (result.path, result.iterations) == ("interior", 10)


def rounded_tie_rounds(draws):
    """The rounded-tie set: exact cost and task ties on rounds of more
    than _SMALL_CELLS merged cells.

    From default_rng(11), per draw: a family (singleton, pooled or random
    counts, as in `instances`), M = integers(2, 17), g =
    integers(ceil(65 / M), 65) and a child generator, from which gamma ~
    U(1, 20) rounded to integers, signals ~ U(0, 1) and costs ~ U(0, 1)
    of shape (g, M) rounded to 0.1, then the counts.  Yields each draw's
    instance, or None where at most _SMALL_CELLS merged cells are left.
    """
    rng = np.random.default_rng(11)
    for _ in range(draws):
        family = int(rng.integers(0, 3))
        m = int(rng.integers(2, 17))
        g = int(rng.integers(-(-65 // m), 65))
        child = np.random.default_rng(int(rng.integers(0, 2**32 - 1)))
        gamma = np.round(child.uniform(1.0, 20.0, m))
        signals = np.round(child.uniform(0.0, 1.0, m), 1)
        costs = np.round(child.uniform(0.0, 1.0, (g, m)), 1)
        counts = np.zeros((g, m + 1), dtype=np.int64)
        if family == 0:
            counts[:, 0] = 1
        elif family == 1:
            counts[:, 0] = child.integers(2, 7, g)
            counts[:, 1:] = child.integers(0, 4, (g, m))
        else:
            counts[:] = child.integers(0, 11, (g, m + 1))
        inst = ProblemInstance(gamma, signals, costs, counts)
        merged = len(allocation._merge_groups(costs)[1])
        yield inst if merged * m > allocation._SMALL_CELLS else None


def recording_crossover(mp):
    """Patch allocation._crossover to record its step counts; returns the list."""
    steps = []
    crossover = allocation._crossover

    def recording(*args):
        probs, taken = crossover(*args)
        steps.append(taken)
        return probs, taken

    mp.setattr(allocation, "_crossover", recording)
    return steps


def test_rounded_tie_rounds_certify():
    # Ties leave the masses free, so the crossover holds cells on many of
    # these rounds, and where its first solve fails the KKT test it steps
    # on until one passes.  Draw 290 is one: 8 interior iterations, then
    # 13 crossover steps.
    with pytest.MonkeyPatch.context() as mp:
        steps = recording_crossover(mp)
        for n, inst in enumerate(rounded_tie_rounds(300)):
            if inst is None:
                continue
            steps.clear()
            result = allocate(inst)  # raises AllocationError at the step cap
            assert result.report.valid, n
            if n == 290:
                assert steps == [13]
                assert result.iterations == 21


def gate_round(index):
    """Draw `index` of the g = 64 gate set: from default_rng(7), per draw
    M = integers(4, 17), then a singleton round."""
    rng = np.random.default_rng(7)
    for _ in range(index + 1):
        inst = singleton_round(rng, 64, int(rng.integers(4, 17)))
    return inst


@pytest.mark.parametrize("index, iterations, crossed", [pytest.param(207, 11, 3, id="207"),
                                                        pytest.param(511, 12, 4, id="511")])
def test_tied_gate_rounds_certify_in_a_few_crossover_steps(index, iterations, crossed):
    # Gate draws whose interior iterates reach a pattern with a cycle: the
    # crossover holds its cell at the start point, and a few steps from
    # there certify.
    inst = gate_round(index)
    with pytest.MonkeyPatch.context() as mp:
        steps = recording_crossover(mp)
        result = allocate(inst)
    assert result.report.valid
    assert steps == [crossed]
    assert (result.path, result.iterations) == ("interior", iterations)


@settings(max_examples=100, deadline=None)
@given(small_rounds(), st.booleans())
@example(MONITORING_CYCLE, False)
@example(MONITORING_CYCLE, True)
def test_crossover_finishes_from_a_far_start(inst, busy):
    # The interior iterates start the crossover on a support that holds
    # the equilibrium's, so allocate seldom needs its releases.  From
    # everyone idling, every supported cell must be released in turn; from
    # every group busy on all tasks, every idling group must be.
    c, n0, ntask = merged_round(inst)
    live = n0 > 0
    sup = np.zeros(c.shape, dtype=bool)
    sup[live] = busy
    probs, _ = allocation._crossover(inst.gamma, inst.signals, c, n0, ntask, sup, live & busy,
                                     sup / inst.n_tasks)
    assert allocation._certified(1.0 - inst.signals - c, inst.gamma, n0, ntask, probs)
    loads = ntask + n0 @ probs
    assert np.all(np.abs(loads - sweep_loads(inst)) <= 2 * allocation._CERT_TOL * inst.gamma)


@settings(max_examples=100, deadline=None)
@given(instances(min_cells=allocation._SMALL_CELLS + 1))
@example(gate_round(207))
@example(gate_round(511))
def test_interior_hands_the_crossover_a_start_on_its_face(inst):
    # At mu's level the idle slack and the cells off the support still
    # hold mass, so a busy row's support mass is off 1 (by 9e-7 to 3e-3
    # per gate round, the worst row).  The hand-over projects the iterate
    # onto the face the crossover requires: nothing off the support, busy
    # rows (each with a supported cell) at 1, the others at most 1.
    c, n0, ntask = merged_round(inst)
    assume(c.size > allocation._SMALL_CELLS)
    sup, busy, p, _ = allocation._interior(inst.gamma, inst.signals, c, n0, ntask)
    assert not sup[n0 == 0].any() and sup[busy].any(axis=1).all()
    assert np.all(p[~sup] == 0.0) and np.all(p >= 0.0)
    mass = p.sum(axis=1)
    assert np.all(np.abs(mass[busy] - 1.0) <= 1e-14)
    assert np.all(mass[~busy] <= 1.0 + 1e-14)


def test_allocate_reports_its_path():
    # a pooled round ends at the warm start: gamma_k = |n_k| + x_k with
    # x_k < min(n0) / M keeps idling in every group's support
    rng = np.random.default_rng(3)
    n0 = rng.integers(4, 9, 64)
    committed = rng.integers(0, 3, (64, 16))
    gamma = committed.sum(axis=0) + rng.uniform(0.5, 1.0, 16) * n0.min() / 16
    pooled = allocate(ProblemInstance(gamma, rng.uniform(0.0, 1.0, 16),
                                      rng.uniform(0.0, 0.5, (64, 16)),
                                      np.column_stack([n0, committed])))
    assert (pooled.path, pooled.iterations) == ("warm", 0)
    # the singleton rounds of the allocation benchmark: the six of at most
    # _SMALL_CELLS cells miss the warm start and the crossover from it
    # finishes each, in up to 20 steps; the largest, drawn last, runs the
    # interior method first
    rng = np.random.default_rng(2501)
    shapes = [(8, 4)] * 3 + [(8, 8)] * 3 + [(16, 8)] * 2 + [(32, 8), (32, 16), (64, 16)]
    rounds = [singleton_round(rng, g, m) for g, m in shapes]
    small = [allocate(inst) for inst in rounds[:6]]
    assert [(r.path, r.iterations) for r in small] == [
        ("crossover", 8), ("crossover", 18), ("crossover", 4),
        ("crossover", 17), ("crossover", 20), ("crossover", 11)]
    assert all(r.report.valid for r in small)
    interior = allocate(rounds[-1])
    assert (interior.path, interior.iterations) == ("interior", 10)
    assert interior.report.valid
    # a monitoring miss: the warm start overfills groups 0 and 3, which
    # start busy, and the second solve certifies once group 1 joins the third task
    cycle = allocate(MONITORING_CYCLE)
    assert (cycle.path, cycle.iterations) == ("crossover", 2)


def test_a_round_that_merges_to_few_cells_runs_in_floats():
    # MONITORING_CYCLE with each group repeated 20 times (400 cells) and
    # the robots on the first copies only: its 20 merged cells are sized
    # for the float round, which misses the warm start as
    # MONITORING_CYCLE does and never runs the interior method
    copies = 20
    counts = np.zeros((4 * copies, 6), dtype=np.int64)
    counts[::copies] = MONITORING_CYCLE.counts
    inst = ProblemInstance(MONITORING_CYCLE.gamma, MONITORING_CYCLE.signals,
                           np.repeat(MONITORING_CYCLE.costs, copies, axis=0), counts)
    small, interior = [], []
    allocate_small, run_interior = allocation._allocate_small, allocation._interior
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocation, "_allocate_small", lambda *a: small.append(1) or allocate_small(*a))
        mp.setattr(allocation, "_interior", lambda *a: interior.append(1) or run_interior(*a))
        result = allocate(inst)
    assert (small, interior) == ([1], [])
    assert (result.path, result.iterations) == ("crossover", 2)
    assert result.report.valid
    # each first copy gets its group's row; the copies without robots idle
    expected = np.zeros((4 * copies, 6))
    expected[:, 0] = 1.0
    expected[::copies] = allocate(MONITORING_CYCLE).strategy.probs
    assert result.strategy.probs.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# oracle behavior on bad strategies


def loop_oracle(inst, strategy):
    """The oracle computed the plain way, one expected_utility call per
    (group, action) and one row at a time, as a reference for the
    vectorised verify_equilibrium.  Returns (spread, dominance, valid).
    """
    probs = strategy.probs
    if probs.shape != (inst.n_groups, inst.n_tasks + 1):
        raise ValueError("strategy dimensions do not match instance")
    for i, row in enumerate(probs):
        if not all(-EPS_ZERO <= p <= 1.0 + EPS_ZERO for p in row):
            raise ValueError(f"row {i} has probabilities outside [0, 1]")
        if abs(row.sum() - 1.0) > EPS_SUM:
            raise ValueError(f"row {i} does not sum to 1")
        if inst.counts[i, 0] == 0 and abs(row[0] - 1.0) > EPS_ZERO:
            raise ValueError(f"group {i} has no idle robots but row is not idle")
    worst_spread = worst_dominance = 0.0
    for i, row in enumerate(probs):
        if inst.counts[i, 0] == 0:
            continue
        utilities = [expected_utility(inst, strategy, i, a) for a in range(len(row))]
        inside = [u for u, p in zip(utilities, row) if p > EPS_ZERO]
        outside = [u for u, p in zip(utilities, row) if not p > EPS_ZERO]
        worst_spread = max(worst_spread, max(inside) - min(inside))
        if outside:
            worst_dominance = max(worst_dominance, max(outside) - max(inside))
    return worst_spread, worst_dominance, worst_spread <= EPS_EQ and worst_dominance <= EPS_EQ


@st.composite
def oracle_cases(draw):
    """An instance and a strategy for it: the allocate output, that output
    with mass-free entries raised to exactly EPS_ZERO, a random
    non-equilibrium strategy, or a malformed one.
    """
    inst = draw(instances())
    kind = draw(st.sampled_from(["allocate", "dust", "random", "malformed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # groups without idle robots make no choice
        counts = inst.counts.copy()
        counts[rng.uniform(size=inst.n_groups) < 0.25, 0] = 0
        inst = ProblemInstance(inst.gamma, inst.signals, inst.costs, counts)
    g, m1 = inst.n_groups, inst.n_tasks + 1
    deciding = inst.idle_counts > 0
    if kind in ("allocate", "dust"):
        probs = allocate(inst, check=False).strategy.probs.copy()
    else:
        probs = rng.uniform(0.0, 1.0, (g, m1)) * (rng.uniform(size=(g, m1)) < 0.5)
        probs[:, 0] += rng.uniform(size=g) < 0.5
        probs[probs.sum(axis=1) == 0.0, 0] = 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        probs[~deciding] = np.eye(1, m1)
    if kind in ("dust", "random"):
        # entries at the support threshold itself belong outside the support
        dust = (rng.uniform(size=(g, m1)) < 0.2) & (probs == 0.0) & deciding[:, None]
        probs[dust] = EPS_ZERO
    if kind == "malformed":
        fault = draw(st.sampled_from(["sum", "negative", "nan", "busy"]))
        if fault == "busy" and deciding.all():
            fault = "sum"
        rows = np.flatnonzero(~deciding) if fault == "busy" else np.arange(g)
        i = int(rng.choice(rows))
        if fault == "sum":
            probs[i] *= 1.01
        elif fault == "negative":
            probs[i, 1] += probs[i, 0] + 1e-3
            probs[i, 0] = -1e-3
        elif fault == "nan":
            probs[i, int(rng.integers(m1))] = np.nan
        else:
            probs[i, :2] = 0.5
    return inst, MixedStrategy(probs), kind == "malformed"


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_verify_matches_loop_oracle(case):
    inst, strategy, malformed = case
    if malformed:
        with pytest.raises(ValueError):
            loop_oracle(inst, strategy)
        with pytest.raises(ValueError):
            verify_equilibrium(inst, strategy)
        return
    spread, dominance, valid = loop_oracle(inst, strategy)
    report = verify_equilibrium(inst, strategy)
    assert report.max_support_residual == pytest.approx(spread, rel=1e-12, abs=1e-12)
    assert report.max_dominance_violation == pytest.approx(dominance, rel=1e-12, abs=1e-12)
    assert report.valid == valid


def test_verify_flags_perturbed_strategy():
    inst = homogeneous([10.0, 10.0], [0.2, 0.4], idle=5)
    report = verify_equilibrium(inst, MixedStrategy([[0.0, 0.75, 0.25]]))
    assert not report.valid
    assert report.max_support_residual == pytest.approx(0.05, abs=1e-12)


def test_verify_flags_dominated_idling():
    inst = homogeneous([10.0], [0.0], idle=5)
    report = verify_equilibrium(inst, MixedStrategy([[1.0, 0.0]]))
    assert not report.valid
    assert report.max_dominance_violation == pytest.approx(1.0, abs=1e-12)


def test_verify_rejects_malformed_rows():
    inst = homogeneous([10.0], [0.5], idle=5)
    with pytest.raises(ValueError, match=r"row sums off by 1\.000e-01 \(> 1e-09\)"):
        verify_equilibrium(inst, MixedStrategy([[0.5, 0.4]]))
    with pytest.raises(ValueError, match=r"probabilities outside \[0, 1\]"):
        verify_equilibrium(inst, MixedStrategy([[-0.1, 1.1]]))
    with pytest.raises(ValueError, match=r"probabilities outside \[0, 1\]"):
        verify_equilibrium(inst, MixedStrategy([[1.0 + 2 * EPS_ZERO, 0.0]]))
    with pytest.raises(ValueError, match=r"probabilities outside \[0, 1\]"):
        verify_equilibrium(inst, MixedStrategy([[np.nan, 1.0]]))
    with pytest.raises(ValueError, match=r"probabilities outside \[0, 1\]"):
        verify_equilibrium(inst, MixedStrategy([[0.0, np.inf]]))
    two = ProblemInstance([10.0], [0.5], [[0.1], [0.2]], [[3, 0], [0, 2]])
    with pytest.raises(ValueError, match="group 1 has no idle robots but row is not idle"):
        verify_equilibrium(two, MixedStrategy([[1.0, 0.0], [0.0, 1.0]]))
    # the row sum is tested before the rows without idle robots
    with pytest.raises(ValueError, match="row sums off by"):
        verify_equilibrium(two, MixedStrategy([[0.5, 0.4], [0.0, 1.0]]))


def test_verify_accepts_degenerate_instance():
    inst = homogeneous([10.0], [0.5], idle=0, assigned=[2])
    report = verify_equilibrium(inst, MixedStrategy([[1.0, 0.0]]))
    assert report.valid
    assert report.max_support_residual == 0.0


# ---------------------------------------------------------------------------
# sampling


def test_sample_assignment_thresholds():
    strat = MixedStrategy([[0.2, 0.5, 0.3]])
    assert sample_assignment(strat, 0, 0.0) == 0
    assert sample_assignment(strat, 0, 0.1999) == 0
    assert sample_assignment(strat, 0, 0.2) == 1
    assert sample_assignment(strat, 0, 0.6) == 1
    assert sample_assignment(strat, 0, 0.7) == 2
    assert sample_assignment(strat, 0, 0.9999) == 2


def test_sample_assignment_skips_zero_probability_actions():
    strat = MixedStrategy([[0.0, 0.5, 0.5]])
    assert sample_assignment(strat, 0, 0.0) == 1
    strat = MixedStrategy([[0.5, 0.0, 0.5]])
    assert sample_assignment(strat, 0, 0.5) == 2


def test_sample_assignment_rounding_dust_falls_to_last_positive():
    strat = MixedStrategy([[0.2, 0.8, 0.0]])
    assert sample_assignment(strat, 0, 1.0) == 1


def test_sample_assignment_frequencies():
    strat = MixedStrategy([[0.2, 0.5, 0.3]])
    rng = random.Random(5)
    draws = 100_000
    counts = [0, 0, 0]
    for _ in range(draws):
        counts[sample_assignment(strat, 0, rng.random())] += 1
    for a, p in enumerate([0.2, 0.5, 0.3]):
        sigma = (p * (1 - p) / draws) ** 0.5
        assert abs(counts[a] / draws - p) < 4 * sigma


def inverse_cdf_draw(row, u):
    """The draw by bisection of an inverse-CDF table: the edges are the
    running maximum of the cumulative probabilities, so they ascend even
    where float dust makes a probability negative or NaN stalls the sum;
    a u past every edge draws the last action with positive probability."""
    edges, acc, top, last_positive = [], 0.0, -float("inf"), 0
    for a, p in enumerate(row):
        if p > 0.0:
            last_positive = a
        acc += p
        if acc > top:
            top = acc
        edges.append(top)
    a = bisect.bisect_right(edges, u)
    return a if a < len(edges) else last_positive


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e-9, 1.0), st.sampled_from([0.0, 0.5, float("nan")])),
                min_size=1, max_size=6),
       st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.5])))
def test_sample_assignment_matches_an_inverse_cdf_table(row, u):
    # the scan's first running sum above u is the first edge of the
    # running-max table above u, on float dust and NaN too
    assert sample_assignment(MixedStrategy([row]), 0, u) == inverse_cdf_draw(row, u)
