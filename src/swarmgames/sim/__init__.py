"""Fixed-step multi-robot simulation: engine loop plus scenario dynamics."""

from .colony import ENERGY_DEPLETED, ColonyDynamics
from .engine import ALLOCATION_FAILED, DEADLOCKED, build_world, run, step
from .monitoring import MonitoringDynamics

__all__ = [
    "ALLOCATION_FAILED",
    "DEADLOCKED",
    "ENERGY_DEPLETED",
    "ColonyDynamics",
    "MonitoringDynamics",
    "build_world",
    "run",
    "step",
]
