"""Dense linear solves for the small equilibrium systems.

The allocation solver polishes a support pattern with one square system,
one unknown per supported cell, well scaled (coefficients are head
counts, reciprocal gammas and ones).  Where ties leave the masses free
the system is singular, and the caller must hear so to search on.  One
LAPACK inverse gives the solution and a condition number,
max|A| max|A^-1|, that separates the two kinds: on
the 8040 support systems of 680 monitoring warm-start misses and 12 600
random rounds of up to 64 x 16 (many rounded to force ties), well-posed
ones measured at most 140 and singular ones at least 9.0e15, 117 of
them without an exact zero pivot.  `COND_MAX` sits between the two.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SingularSystem", "solve_linear"]

# Max-entry condition number max|A| max|A^-1| above which a system counts as singular.
COND_MAX = 1e12


class SingularSystem(ArithmeticError):
    """The system has no reliable solution (singular or ill-conditioned)."""


def solve_linear(a, b) -> np.ndarray:
    """Solve A x = b, raising SingularSystem instead of returning garbage."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = b.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"shape mismatch: A is {a.shape}, b has length {n}")
    if n == 0:
        return np.empty(0)
    # max propagates NaN, so a finite scale means a finite A; b is short
    # enough that a Python scan beats numpy's fixed cost per call
    scale = abs(a).max()
    if not (math.isfinite(scale) and all(map(math.isfinite, b.tolist()))):
        raise ValueError("non-finite entries in system")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise SingularSystem("exact zero pivot") from None
    cond = scale * abs(inv).max()
    if not cond <= COND_MAX:
        raise SingularSystem(f"condition number {cond:.3e} exceeds {COND_MAX:.0e}")
    return inv.dot(b)
