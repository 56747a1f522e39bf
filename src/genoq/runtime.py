"""Runtime-crossover arithmetic for quadratic-speedup search on slow gates.

``quantum_runtime`` returns (calls, seconds per call) and ``runtime_sweep``
returns (N, classical seconds, quantum seconds, crossover) rows; ``cli``
writes the CSV from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


def quantum_runtime(problem_size: int, depth_per_call: int,
                    hw: HardwareProfile) -> tuple[int, float]:
    """(calls, seconds per call): ceil(sqrt(N)) oracle calls at
    depth/frequency seconds each."""
    if problem_size < 1 or depth_per_call < 1:
        raise ValueError("problem size and depth must be >= 1")
    calls = math.isqrt(problem_size)
    if calls * calls < problem_size:
        calls += 1
    return calls, depth_per_call / hw.logical_gate_frequency


def max_depth_per_call(problem_size: int, budget_seconds: float,
                       hw: HardwareProfile) -> int:
    """Deepest per-call circuit keeping total runtime within the budget."""
    if not 0 < budget_seconds < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget_seconds!r}")
    calls, _ = quantum_runtime(problem_size, 1, hw)
    depth = budget_seconds / calls * hw.logical_gate_frequency
    if depth == math.inf:
        raise ValueError(f"depth per call overflows: {budget_seconds!r}s "
                         f"at {hw.logical_gate_frequency!r} Hz")
    depth = math.floor(depth)
    if depth < 1:
        raise ValueError(
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


def runtime_sweep(sizes: list[int], classical: PowerLawModel,
                  quantum: PowerLawModel) -> list[tuple[int, float, float, bool]]:
    """The ascending (N, classical seconds, quantum seconds, quantum no
    slower) rows of the two models over ``sizes``."""
    return [(n, classical(n), quantum(n), quantum(n) <= classical(n))
            for n in sorted(sizes)]
