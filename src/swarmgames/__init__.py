"""Task allocation and simulation for robot collectives.

The package splits into a game-theoretic core (`allocation`),
a safety layer (`cbf`), scenario configuration (`scenarios`), the
simulation engine (`sim`), and a command-line front end (`cli`).
"""

from .allocation import (
    AllocationError,
    AllocationResult,
    EquilibriumReport,
    MixedStrategy,
    ProblemInstance,
    allocate,
    verify_equilibrium,
)

__all__ = [
    "AllocationError",
    "AllocationResult",
    "EquilibriumReport",
    "MixedStrategy",
    "ProblemInstance",
    "allocate",
    "verify_equilibrium",
]

__version__ = "0.1.0"
