"""Dense linear solves for the small equilibrium systems.

The allocation solvers produce square systems no larger than roughly
(M + g) x (M + g), well scaled (coefficients are head counts and
reciprocal gammas).  Plain Gaussian elimination with partial pivoting
is enough; what matters is an explicit singularity signal: on a
singular system the caller falls back to its best-response iterate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SingularSystem", "solve_linear", "PIVOT_TOL", "RESIDUAL_REL"]

# Pivot magnitudes below this are treated as structural zeros.  Instances
# are O(1)-scaled (gamma up to ~20, probabilities in [0,1]).
PIVOT_TOL = 1e-12
# Accepted residual: ||Ax - b||_inf <= RESIDUAL_REL * max(1, ||b||_inf).
RESIDUAL_REL = 1e-9


class SingularSystem(ArithmeticError):
    """The system has no reliable solution (zero pivot or hopeless residual)."""


def _eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """In-place elimination with partial pivoting, then back substitution."""
    n = b.shape[0]
    for j in range(n):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        if abs(a[p, j]) < PIVOT_TOL:
            raise SingularSystem(f"pivot {a[p, j]:.3e} below {PIVOT_TOL} in column {j}")
        if p != j:
            a[[j, p]] = a[[p, j]]
            b[[j, p]] = b[[p, j]]
        factors = a[j + 1:, j] / a[j, j]
        a[j + 1:, j:] -= factors[:, None] * a[j, j:]
        b[j + 1:] -= factors * b[j]
    x = np.empty(n)
    for j in range(n - 1, -1, -1):
        x[j] = (b[j] - a[j, j + 1:] @ x[j + 1:]) / a[j, j]
    return x


def _solve_tiny(a0: np.ndarray, b0: np.ndarray, n: int) -> np.ndarray:
    """1x1 and 2x2 cases of _eliminate in plain floats, same semantics."""
    if n == 1:
        p = float(a0[0, 0])
        if abs(p) < PIVOT_TOL:
            raise SingularSystem(f"pivot {p:.3e} below {PIVOT_TOL} in column 0")
        return np.array([float(b0[0]) / p])
    a00, a01 = float(a0[0, 0]), float(a0[0, 1])
    a10, a11 = float(a0[1, 0]), float(a0[1, 1])
    r0, r1 = float(b0[0]), float(b0[1])
    if abs(a10) > abs(a00):
        a00, a01, a10, a11, r0, r1 = a10, a11, a00, a01, r1, r0
    if abs(a00) < PIVOT_TOL:
        raise SingularSystem(f"pivot {a00:.3e} below {PIVOT_TOL} in column 0")
    factor = a10 / a00
    tail = a11 - factor * a01
    if abs(tail) < PIVOT_TOL:
        raise SingularSystem(f"pivot {tail:.3e} below {PIVOT_TOL} in column 1")
    x1 = (r1 - factor * r0) / tail
    x0 = (r0 - a01 * x1) / a00
    return np.array([x0, x1])


def solve_linear(a, b) -> np.ndarray:
    """Solve A x = b, raising SingularSystem instead of returning garbage.

    One round of iterative refinement is attempted before giving up on
    the residual bound.
    """
    a0 = np.array(a, dtype=float)
    b0 = np.array(b, dtype=float).reshape(-1)
    n = b0.shape[0]
    if a0.shape != (n, n):
        raise ValueError(f"shape mismatch: A is {a0.shape}, b has length {n}")
    if n == 0:
        return np.empty(0)
    if not (np.all(np.isfinite(a0)) and np.all(np.isfinite(b0))):
        raise ValueError("non-finite entries in system")
    if n <= 2:
        # unrolled elimination; tiny systems dominate the workload
        return _solve_tiny(a0, b0, n)

    x = _eliminate(a0.copy(), b0.copy())
    bound = RESIDUAL_REL * max(1.0, float(np.max(np.abs(b0))))
    residual = b0 - a0 @ x
    if float(np.max(np.abs(residual))) > bound:
        x = x + _eliminate(a0.copy(), residual.copy())
        residual = b0 - a0 @ x
        if float(np.max(np.abs(residual))) > bound:
            raise SingularSystem(
                f"residual {float(np.max(np.abs(residual))):.3e} exceeds {bound:.3e} "
                "after refinement"
            )
    return x
