"""Machine configuration and the trace-driven timing simulator."""

from repro.cpu.config import (
    SCHEME_LABELS,
    SCHEMES,
    MachineConfig,
    build_hierarchy,
    build_l2,
)
from repro.cpu.simulator import (
    ExecutionResult,
    NormalizedTime,
    Simulator,
    simulate_hierarchy,
    simulate_scheme,
)

__all__ = [
    "ExecutionResult",
    "MachineConfig",
    "NormalizedTime",
    "SCHEMES",
    "SCHEME_LABELS",
    "Simulator",
    "build_hierarchy",
    "build_l2",
    "simulate_hierarchy",
    "simulate_scheme",
]
