"""Runtime-crossover arithmetic for quadratic-speedup search on slow gates."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleBudgetError


@dataclass(frozen=True)
class HardwareProfile:
    name: str
    logical_gate_frequency: float  # Hz

    def __post_init__(self):
        if not 0 < self.logical_gate_frequency < math.inf:
            raise ValueError(
                f"gate frequency must be positive and finite, "
                f"got {self.logical_gate_frequency!r}")


SURFACE_10KHZ = HardwareProfile("surface-10kHz", 1e4)
OPTIMISTIC_10MHZ = HardwareProfile("optimistic-10MHz", 1e7)

BUILTIN_PROFILES = {p.name: p for p in (SURFACE_10KHZ, OPTIMISTIC_10MHZ)}

# Classical baseline for exact matching over a full genome; configurable.
DEFAULT_CLASSICAL_SECONDS = 60.0


@dataclass(frozen=True)
class RuntimeEstimate:
    problem_size: int
    calls: int
    seconds_per_call: float

    @property
    def seconds_total(self) -> float:
        return self.calls * self.seconds_per_call


def quantum_runtime(problem_size: int, depth_per_call: int,
                    hw: HardwareProfile) -> RuntimeEstimate:
    """ceil(sqrt(N)) oracle calls at depth/frequency seconds each."""
    if problem_size < 1 or depth_per_call < 1:
        raise ValueError("problem size and depth must be >= 1")
    calls = math.isqrt(problem_size)
    if calls * calls < problem_size:
        calls += 1
    return RuntimeEstimate(
        problem_size=problem_size,
        calls=calls,
        seconds_per_call=depth_per_call / hw.logical_gate_frequency,
    )


def max_depth_per_call(problem_size: int, budget_seconds: float,
                       hw: HardwareProfile) -> int:
    """Deepest per-call circuit keeping total runtime within the budget."""
    if not 0 < budget_seconds < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget_seconds!r}")
    calls = quantum_runtime(problem_size, 1, hw).calls
    depth = budget_seconds / calls * hw.logical_gate_frequency
    if depth == math.inf:
        raise ValueError(f"depth per call overflows: {budget_seconds!r}s "
                         f"at {hw.logical_gate_frequency!r} Hz")
    depth = math.floor(depth)
    if depth < 1:
        raise InfeasibleBudgetError(
            f"budget {budget_seconds}s cannot be met even at depth 1 "
            f"({calls} calls at {hw.logical_gate_frequency} Hz)"
        )
    return depth


@dataclass(frozen=True)
class PowerLawModel:
    """Runtime model prefactor * N^exponent (seconds)."""

    prefactor: float
    exponent: float

    def __post_init__(self):
        if not 0 < self.prefactor < math.inf:
            raise ValueError("runtime model prefactor must be positive and "
                             f"finite, got {self.prefactor!r}")
        if not math.isfinite(self.exponent):
            raise ValueError(
                f"runtime model exponent must be finite, got {self.exponent!r}")

    def __call__(self, n: float) -> float:
        return self.prefactor * n**self.exponent


def crossover_size(classical: PowerLawModel,
                   quantum: PowerLawModel) -> float | None:
    """Problem size where the two runtime curves meet, or None if they never
    cross for N >= 1. Identical models report 1 (crossing everywhere)."""
    a, c = classical.prefactor, classical.exponent
    b, q = quantum.prefactor, quantum.exponent
    if q == c:
        return 1.0 if a == b else None
    n_star = (a / b) ** (1.0 / (q - c))
    if n_star >= 1.0:
        return n_star
    # Quantum already faster at every N >= 1 when its exponent is smaller.
    return 1.0 if q < c else None


@dataclass(frozen=True)
class SweepRow:
    problem_size: int
    t_classical: float
    t_quantum: float
    crossover_flag: bool


def runtime_sweep(sizes: list[int], classical: PowerLawModel,
                  quantum: PowerLawModel) -> list[SweepRow]:
    return [
        SweepRow(
            problem_size=n,
            t_classical=classical(n),
            t_quantum=quantum(n),
            crossover_flag=quantum(n) <= classical(n),
        )
        for n in sorted(sizes)
    ]
