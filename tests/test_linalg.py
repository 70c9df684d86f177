"""Tests for the dense linear solver."""

import random

import numpy as np
import pytest

from swarmgames.linalg import SingularSystem, solve_linear


def test_identity():
    b = np.array([3.0, -1.0, 2.5])
    x = solve_linear(np.eye(3), b)
    assert np.allclose(x, b, atol=1e-14)


def test_two_by_two_known_solution():
    # 10x - 10y = -4, x + y = 1  ->  x = 0.3, y = 0.7
    a = np.array([[10.0, -10.0], [1.0, 1.0]])
    b = np.array([-4.0, 1.0])
    x = solve_linear(a, b)
    assert x == pytest.approx([0.3, 0.7], abs=1e-12)


def test_requires_pivoting():
    # Leading zero forces a row swap before elimination can start.
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([2.0, 5.0])
    x = solve_linear(a, b)
    assert x == pytest.approx([5.0, 2.0], abs=1e-14)


def test_row_permutation_invariance():
    rng = random.Random(7)
    a = np.array([[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)])
    a += 4.0 * np.eye(4)
    b = np.array([rng.uniform(-1, 1) for _ in range(4)])
    x = solve_linear(a, b)
    perm = [2, 0, 3, 1]
    x_perm = solve_linear(a[perm], b[perm])
    assert np.allclose(x, x_perm, atol=1e-12)


def test_singular_zero_matrix():
    with pytest.raises(SingularSystem):
        solve_linear(np.zeros((2, 2)), np.ones(2))


def test_singular_dependent_rows():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem):
        solve_linear(a, np.array([1.0, 2.0]))


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        solve_linear(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        solve_linear(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2))


def test_empty_system():
    x = solve_linear(np.zeros((0, 0)), np.zeros(0))
    assert x.shape == (0,)


def test_random_systems_match_numpy():
    rng = random.Random(20240817)
    for trial in range(200):
        n = rng.randrange(1, 65)
        a = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        b = np.array([rng.gauss(0, 1) for _ in range(n)])
        try:
            x = solve_linear(a, b)
        except SingularSystem:
            # Gaussian matrices are almost surely well conditioned; a
            # singular report here would be a pivoting bug.
            assert np.linalg.cond(a) > 1e10
            continue
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8, rtol=1e-8)


def test_residual_contract():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randrange(1, 20)
        a = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        a += n * np.eye(n)
        b = np.array([rng.gauss(0, 3) for _ in range(n)])
        x = solve_linear(a, b)
        residual = np.max(np.abs(a @ x - b))
        assert residual <= 1e-9 * max(1.0, np.max(np.abs(b)))


def test_singular_only_after_rounding():
    # 0.3 * 0.3 rounds to a hair off 0.1 * 0.9, so LU meets no exact zero
    # pivot; the condition number (about 8.7e16) flags the system
    a = np.array([[0.1, 0.3], [0.3, 0.9]])
    with pytest.raises(SingularSystem):
        solve_linear(a, np.array([1.0, 3.0]))


def test_one_singular_block_makes_the_system_singular():
    a = np.zeros((4, 4))
    a[:2, :2] = [[2.0, 1.0], [1.0, 3.0]]
    a[2:, 2:] = [[0.1, 0.3], [0.3, 0.9]]
    with pytest.raises(SingularSystem):
        solve_linear(a, np.ones(4))
