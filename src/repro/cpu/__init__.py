"""Machine configuration and the trace-driven timing simulator."""

from repro.cpu.config import (
    SCHEME_LABELS,
    SCHEMES,
    MachineConfig,
    build_hierarchy,
    build_l1,
    build_l2,
)
from repro.cpu.simulator import (
    ExecutionResult,
    NormalizedTime,
    Simulator,
    simulate_scheme,
    simulate_scheme_reference,
    simulate_schemes,
)

__all__ = [
    "ExecutionResult",
    "MachineConfig",
    "NormalizedTime",
    "SCHEMES",
    "SCHEME_LABELS",
    "Simulator",
    "build_hierarchy",
    "build_l1",
    "build_l2",
    "simulate_scheme",
    "simulate_scheme_reference",
    "simulate_schemes",
]
