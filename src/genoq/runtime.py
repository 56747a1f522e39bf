"""Runtime-crossover arithmetic for quadratic-speedup search on slow gates.

A gate frequency is a float in Hz, and a runtime model is a
``(prefactor, exponent)`` pair: prefactor * N^exponent seconds.
``quantum_runtime`` returns (calls, seconds per call) and ``runtime_sweep``
returns (N, classical seconds, quantum seconds, crossover) rows; ``cli``
writes the CSV from them.
"""

from __future__ import annotations

import math

# Logical gate frequencies in Hz.
SURFACE_10KHZ = 1e4
OPTIMISTIC_10MHZ = 1e7

BUILTIN_PROFILES = {"surface-10kHz": SURFACE_10KHZ, "optimistic-10MHz": OPTIMISTIC_10MHZ}

# Classical baseline for exact matching over a full genome; configurable.
DEFAULT_CLASSICAL_SECONDS = 60.0


def quantum_runtime(problem_size: int, depth_per_call: int,
                    freq_hz: float) -> tuple[int, float]:
    """(calls, seconds per call): ceil(sqrt(N)) oracle calls at
    depth/frequency seconds each."""
    if not 0 < freq_hz < math.inf:
        raise ValueError(
            f"gate frequency must be positive and finite, got {freq_hz!r}")
    if problem_size < 1 or depth_per_call < 1:
        raise ValueError("problem size and depth must be >= 1")
    return math.isqrt(problem_size - 1) + 1, depth_per_call / freq_hz


def max_depth_per_call(problem_size: int, budget_seconds: float,
                       freq_hz: float) -> int:
    """Deepest per-call circuit keeping total runtime within the budget."""
    if not 0 < budget_seconds < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget_seconds!r}")
    calls, _ = quantum_runtime(problem_size, 1, freq_hz)
    depth = budget_seconds / calls * freq_hz
    if depth == math.inf:
        raise ValueError(f"depth per call overflows: {budget_seconds!r}s "
                         f"at {freq_hz!r} Hz")
    depth = math.floor(depth)
    if depth < 1:
        raise ValueError(
            f"budget {budget_seconds}s cannot be met even at depth 1 "
            f"({calls} calls at {freq_hz} Hz)"
        )
    return depth


def _power_law(model: tuple[float, float]) -> tuple[float, float]:
    """``model``, a (prefactor, exponent) pair; ValueError unless the
    prefactor is positive and finite and the exponent finite."""
    prefactor, exponent = model
    if not 0 < prefactor < math.inf:
        raise ValueError("runtime model prefactor must be positive and "
                         f"finite, got {prefactor!r}")
    if not math.isfinite(exponent):
        raise ValueError(
            f"runtime model exponent must be finite, got {exponent!r}")
    return prefactor, exponent


def crossover_size(classical: tuple[float, float],
                   quantum: tuple[float, float]) -> float | None:
    """Problem size where the two runtime curves meet, or None if they never
    cross for N >= 1. Identical models report 1 (crossing everywhere)."""
    a, c = _power_law(classical)
    b, q = _power_law(quantum)
    if q == c:
        return 1.0 if a == b else None
    n_star = (a / b) ** (1.0 / (q - c))
    if n_star >= 1.0:
        return n_star
    # Quantum already faster at every N >= 1 when its exponent is smaller.
    return 1.0 if q < c else None


def runtime_sweep(sizes: list[int], classical: tuple[float, float],
                  quantum: tuple[float, float]) -> list[tuple[int, float, float, bool]]:
    """The ascending (N, classical seconds, quantum seconds, quantum no
    slower) rows of the two models over ``sizes``."""
    a, c = _power_law(classical)
    b, q = _power_law(quantum)
    return [(n, a * n**c, b * n**q, b * n**q <= a * n**c) for n in sorted(sizes)]
