import math

import pytest

from genoq.errors import InfeasibleBudgetError
from genoq.runtime import (
    BUILTIN_PROFILES,
    OPTIMISTIC_10MHZ,
    SURFACE_10KHZ,
    HardwareProfile,
    PowerLawModel,
    crossover_size,
    max_depth_per_call,
    quantum_runtime,
    runtime_sweep,
)

GENOME = 3 * 10**9


def test_call_count_human_genome():
    calls, _ = quantum_runtime(GENOME, 1, SURFACE_10KHZ)
    assert calls == 54773
    assert 5.4e4 <= calls <= 6.0e4


def test_call_count_exact_squares():
    assert quantum_runtime(16, 1, SURFACE_10KHZ)[0] == 4
    assert quantum_runtime(17, 1, SURFACE_10KHZ)[0] == 5
    assert quantum_runtime(1, 1, SURFACE_10KHZ)[0] == 1


def test_max_depth_surface_budget():
    depth = max_depth_per_call(GENOME, 60.0, SURFACE_10KHZ)
    assert depth == 10


def test_max_depth_optimistic_budget():
    depth = max_depth_per_call(GENOME, 60.0, OPTIMISTIC_10MHZ)
    assert depth == 10954
    assert 1e4 <= depth < 2e4


def test_depth_budget_consistency():
    # The returned depth fits the budget; depth + 1 does not.
    for hw in (SURFACE_10KHZ, OPTIMISTIC_10MHZ):
        depth = max_depth_per_call(GENOME, 60.0, hw)
        calls, seconds_per_call = quantum_runtime(GENOME, depth, hw)
        assert calls * seconds_per_call <= 60.0 + 1e-9
        calls, seconds_per_call = quantum_runtime(GENOME, depth + 1, hw)
        assert calls * seconds_per_call > 60.0


def test_seconds_per_call_surface():
    calls, seconds_per_call = quantum_runtime(GENOME, 10, SURFACE_10KHZ)
    assert seconds_per_call == pytest.approx(1e-3)
    assert calls * seconds_per_call == pytest.approx(54.773)


def test_infeasible_budget():
    with pytest.raises(InfeasibleBudgetError):
        max_depth_per_call(GENOME, 1e-6, SURFACE_10KHZ)


def test_bad_inputs():
    with pytest.raises(ValueError):
        quantum_runtime(0, 1, SURFACE_10KHZ)
    with pytest.raises(ValueError):
        quantum_runtime(4, 0, SURFACE_10KHZ)
    with pytest.raises(ValueError):
        max_depth_per_call(4, 0.0, SURFACE_10KHZ)
    with pytest.raises(ValueError):
        HardwareProfile("zero", 0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_inputs_rejected(value):
    with pytest.raises(ValueError, match="finite"):
        HardwareProfile("bad", value)
    with pytest.raises(ValueError, match="finite"):
        max_depth_per_call(GENOME, value, SURFACE_10KHZ)


def test_depth_overflow_rejected():
    with pytest.raises(ValueError, match="overflows"):
        max_depth_per_call(4, 1e300, HardwareProfile("fast", 1e300))


def test_builtin_profiles():
    assert BUILTIN_PROFILES["surface-10kHz"].logical_gate_frequency == 1e4
    assert BUILTIN_PROFILES["optimistic-10MHz"].logical_gate_frequency == 1e7


def test_crossover_linear_vs_sqrt():
    # a*N meets b*sqrt(N) at (b/a)^2: 1e-9 N vs 1e-3 sqrt(N) -> 1e12.
    classical = PowerLawModel(1e-9, 1.0)
    quantum = PowerLawModel(1e-3, 0.5)
    n_star = crossover_size(classical, quantum)
    assert n_star == pytest.approx(1e12, rel=1e-12)


def test_crossover_point_is_an_intersection():
    classical = PowerLawModel(2.5e-8, 1.0)
    quantum = PowerLawModel(7.0e-3, 0.5)
    n_star = crossover_size(classical, quantum)
    assert classical(n_star) == pytest.approx(quantum(n_star), rel=1e-9)
    assert quantum(10 * n_star) < classical(10 * n_star)
    assert quantum(0.1 * n_star) > classical(0.1 * n_star)


def test_crossover_equal_exponents():
    assert crossover_size(PowerLawModel(1.0, 1.0), PowerLawModel(2.0, 1.0)) is None
    assert crossover_size(PowerLawModel(1.0, 1.0), PowerLawModel(1.0, 1.0)) == 1.0


def test_crossover_quantum_always_faster():
    # Smaller prefactor and smaller exponent: already ahead at N = 1.
    assert crossover_size(PowerLawModel(1.0, 1.0), PowerLawModel(0.5, 0.5)) == 1.0


def test_crossover_quantum_never_catches_up():
    # Larger exponent and larger prefactor: no crossing for N >= 1.
    assert crossover_size(PowerLawModel(0.5, 0.5), PowerLawModel(1.0, 1.0)) is None


def test_crossover_bad_prefactor():
    with pytest.raises(ValueError):
        crossover_size(PowerLawModel(-1.0, 1.0), PowerLawModel(1.0, 0.5))


@pytest.mark.parametrize("prefactor, exponent", [
    (0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, -math.inf),
])
def test_power_law_model_rejects_bad_terms(prefactor, exponent):
    with pytest.raises(ValueError, match="runtime model"):
        PowerLawModel(prefactor, exponent)


def test_runtime_sweep_flags():
    classical = PowerLawModel(1e-9, 1.0)
    quantum = PowerLawModel(1e-3, 0.5)
    rows = runtime_sweep([10**10, 10**12, 10**14], classical, quantum)
    assert [crossover for *_, crossover in rows] == [False, True, True]
    for n, t_classical, t_quantum, _ in rows:
        assert t_classical == pytest.approx(classical(n))
        assert t_quantum == pytest.approx(quantum(n))


def test_sweep_sorts_sizes():
    rows = runtime_sweep([100, 1, 10], PowerLawModel(1, 1), PowerLawModel(1, 0.5))
    assert [r[0] for r in rows] == [1, 10, 100]
