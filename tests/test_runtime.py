import math
import re

import pytest

from genoq.runtime import (
    BUILTIN_PROFILES,
    OPTIMISTIC_10MHZ,
    SURFACE_10KHZ,
    crossover_size,
    max_depth_per_call,
    quantum_runtime,
    runtime_sweep,
)

GENOME = 3 * 10**9


def seconds(model, n):
    prefactor, exponent = model
    return prefactor * n**exponent


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
    with pytest.raises(ValueError, match=re.escape(
            "budget 1e-06s cannot be met even at depth 1 "
            "(54773 calls at 10000.0 Hz)")):
        max_depth_per_call(GENOME, 1e-6, SURFACE_10KHZ)


def test_bad_inputs():
    with pytest.raises(ValueError):
        quantum_runtime(0, 1, SURFACE_10KHZ)
    with pytest.raises(ValueError):
        quantum_runtime(4, 0, SURFACE_10KHZ)
    with pytest.raises(ValueError):
        max_depth_per_call(4, 0.0, SURFACE_10KHZ)
    with pytest.raises(ValueError, match="gate frequency"):
        quantum_runtime(4, 1, 0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_inputs_rejected(value):
    with pytest.raises(ValueError, match="finite"):
        quantum_runtime(GENOME, 1, value)
    with pytest.raises(ValueError, match="gate frequency must be positive and finite"):
        max_depth_per_call(GENOME, 60.0, value)
    with pytest.raises(ValueError, match="finite"):
        max_depth_per_call(GENOME, value, SURFACE_10KHZ)


def test_depth_overflow_rejected():
    with pytest.raises(ValueError, match="overflows"):
        max_depth_per_call(4, 1e300, 1e300)


def test_builtin_profiles():
    assert BUILTIN_PROFILES["surface-10kHz"] == SURFACE_10KHZ == 1e4
    assert BUILTIN_PROFILES["optimistic-10MHz"] == OPTIMISTIC_10MHZ == 1e7


def test_crossover_linear_vs_sqrt():
    # a*N meets b*sqrt(N) at (b/a)^2: 1e-9 N vs 1e-3 sqrt(N) -> 1e12.
    classical = (1e-9, 1.0)
    quantum = (1e-3, 0.5)
    n_star = crossover_size(classical, quantum)
    assert n_star == pytest.approx(1e12, rel=1e-12)


def test_crossover_point_is_an_intersection():
    classical = (2.5e-8, 1.0)
    quantum = (7.0e-3, 0.5)
    n_star = crossover_size(classical, quantum)
    assert seconds(classical, n_star) == pytest.approx(seconds(quantum, n_star),
                                                      rel=1e-9)
    assert seconds(quantum, 10 * n_star) < seconds(classical, 10 * n_star)
    assert seconds(quantum, 0.1 * n_star) > seconds(classical, 0.1 * n_star)


def test_crossover_equal_exponents():
    assert crossover_size((1.0, 1.0), (2.0, 1.0)) is None
    assert crossover_size((1.0, 1.0), (1.0, 1.0)) == 1.0


def test_crossover_quantum_always_faster():
    # Smaller prefactor and smaller exponent: already ahead at N = 1.
    assert crossover_size((1.0, 1.0), (0.5, 0.5)) == 1.0


def test_crossover_quantum_never_catches_up():
    # Larger exponent and larger prefactor: no crossing for N >= 1.
    assert crossover_size((0.5, 0.5), (1.0, 1.0)) is None


def test_crossover_bad_prefactor():
    with pytest.raises(ValueError):
        crossover_size((-1.0, 1.0), (1.0, 0.5))


@pytest.mark.parametrize("prefactor, exponent", [
    (0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, -math.inf),
])
def test_power_law_model_rejects_bad_terms(prefactor, exponent):
    for models in [((prefactor, exponent), (1.0, 0.5)),
                   ((1.0, 1.0), (prefactor, exponent))]:
        with pytest.raises(ValueError, match="runtime model"):
            crossover_size(*models)
        with pytest.raises(ValueError, match="runtime model"):
            runtime_sweep([1, 10], *models)


def test_runtime_sweep_flags():
    classical = (1e-9, 1.0)
    quantum = (1e-3, 0.5)
    rows = runtime_sweep([10**10, 10**12, 10**14], classical, quantum)
    assert [crossover for *_, crossover in rows] == [False, True, True]
    for n, t_classical, t_quantum, _ in rows:
        assert t_classical == pytest.approx(seconds(classical, n))
        assert t_quantum == pytest.approx(seconds(quantum, n))


def test_sweep_sorts_sizes():
    rows = runtime_sweep([100, 1, 10], (1, 1), (1, 0.5))
    assert [r[0] for r in rows] == [1, 10, 100]
