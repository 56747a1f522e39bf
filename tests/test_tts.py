import math

import numpy as np
import pytest

from genoq.errors import UnboundedRepetitionsError
from genoq.solvers import brute_force, planted_ferromagnet
from genoq.tts import (
    TTSCurve,
    TTSPoint,
    optimal_tts,
    optimum_at_boundary,
    repetitions_needed,
    sa_probability_estimator,
    scaling_fit,
    tts_curve,
    wilson_interval,
)


def stub_estimator(tau):
    """Closed-form p(t) = 1 - exp(-t / tau): analytic TTS for self-tests."""
    return lambda t: 1.0 - math.exp(-t / tau)


def test_repetitions_examples():
    assert repetitions_needed(0.5, 0.9) == 4
    assert repetitions_needed(0.9, 0.9) == 1
    assert repetitions_needed(1.0, 0.99) == 1
    assert repetitions_needed(0.1, 0.99) == math.ceil(
        math.log(0.01) / math.log(0.9))


def test_repetitions_validation():
    with pytest.raises(UnboundedRepetitionsError):
        repetitions_needed(0.0, 0.9)
    with pytest.raises(ValueError):
        repetitions_needed(0.5, 0.0)
    with pytest.raises(ValueError):
        repetitions_needed(0.5, 1.0)
    with pytest.raises(ValueError):
        repetitions_needed(-0.1, 0.9)


def test_tts_curve_matches_closed_form():
    tau = 10.0
    p_d = 0.9
    curve = tts_curve(stub_estimator(tau), [1.0, 5.0, 20.0, 100.0], p_d)
    for point in curve.points:
        p = 1.0 - math.exp(-point.t / tau)
        r = 1 if p >= p_d else math.ceil(math.log(1 - p_d) / math.log(1 - p))
        assert point.p_hat == p  # exact, no extra arithmetic
        assert point.repetitions == r
        assert point.tts == r * point.t


def test_tts_curve_grid_validation():
    with pytest.raises(ValueError):
        tts_curve(stub_estimator(1.0), [], 0.9)
    with pytest.raises(ValueError):
        tts_curve(stub_estimator(1.0), [2.0, 1.0], 0.9)
    with pytest.raises(ValueError):
        tts_curve(stub_estimator(1.0), [1.0, 1.0], 0.9)


def test_tts_curve_flags_zero_probability_points():
    curve = tts_curve(lambda t: 0.0 if t < 2 else 0.5, [1.0, 3.0, 5.0], 0.9)
    assert curve.points[0].excluded
    assert curve.points[0].repetitions is None
    assert not curve.points[1].excluded
    assert len(curve.valid_points()) == 2


def test_tts_curve_all_excluded_raises():
    with pytest.raises(ValueError):
        tts_curve(lambda t: 0.0, [1.0, 2.0], 0.9)


def test_optimal_tts_interior_minimum():
    # p(t) = 1 - exp(-(t/tau)^2): TTS falls like 1/t while R > 1, then rises
    # like t once a single run suffices, so the optimum is interior.
    curve = tts_curve(lambda t: 1.0 - math.exp(-((t / 10.0) ** 2)),
                      list(np.arange(1.0, 101.0)), 0.9)
    best = optimal_tts(curve)
    assert curve.points[0].t < best.t < curve.points[-1].t
    assert not optimum_at_boundary(curve)
    assert best.tts == min(p.tts for p in curve.valid_points())


def test_optimal_tts_tie_breaks_to_smaller_t():
    points = (
        TTSPoint(1.0, 0.5, 4, 4.0),
        TTSPoint(2.0, 0.9, 2, 4.0),
        TTSPoint(3.0, 0.9, 2, 6.0),
    )
    best = optimal_tts(TTSCurve(points))
    assert best.t == 1.0


def test_optimal_tts_without_valid_points_raises():
    curve = TTSCurve((TTSPoint(1.0, 0.0, None, None),))
    with pytest.raises(ValueError, match="no valid points"):
        optimal_tts(curve)


def test_boundary_flag():
    # Grid entirely on the rising side of the TTS curve.
    curve = tts_curve(stub_estimator(1.0), [50.0, 60.0, 70.0], 0.9)
    assert optimum_at_boundary(curve)
    assert optimal_tts(curve).t == 50.0


def test_sa_estimator_protocol_end_to_end():
    model = planted_ferromagnet(10, density=0.5, seed=3)
    ground, _ = brute_force(model)
    estimator = sa_probability_estimator(model, ground, runs=25, seed=100)
    curve = tts_curve(estimator, [2.0, 20.0, 120.0], 0.9)
    assert all(0.0 <= p.p_hat <= 1.0 for p in curve.points)
    best = optimal_tts(curve)
    assert best.tts > 0


def test_sa_estimator_deterministic():
    model = planted_ferromagnet(8, density=0.5, seed=6)
    est = sa_probability_estimator(model, -len(model.J), runs=15, seed=7)
    assert est(10.0) == est(10.0)


@pytest.mark.parametrize("t", [1.5, 2.5, 0.5, 0.0, -2.0, math.inf, math.nan])
def test_sa_estimator_rejects_non_whole_sweep_counts(t):
    # TTS = R x t must count the sweeps that ran: int(2.5) would run 2.
    model = planted_ferromagnet(8, density=0.5, seed=6)
    est = sa_probability_estimator(model, -len(model.J), runs=4, seed=7)
    with pytest.raises(ValueError, match="whole number of sweeps"):
        est(t)
    assert est(2.0) == est(2)


def test_scaling_fit_recovers_exponential():
    sizes = [10, 14, 18, 22, 26]
    data = {n: 0.5 * 2 ** (0.3 * n) for n in sizes}
    fit = scaling_fit(data)
    assert fit.exponential.base == pytest.approx(2**0.3, rel=1e-6)
    assert fit.exponential.prefactor == pytest.approx(0.5, rel=1e-6)
    assert max(abs(r) for r in fit.exponential.residuals) < 1e-9


def test_scaling_fit_recovers_power_law():
    sizes = [8, 16, 32, 64]
    data = {n: 3.0 * n**2 for n in sizes}
    fit = scaling_fit(data)
    assert fit.power_law.rate == pytest.approx(2.0, rel=1e-6)
    assert fit.power_law.prefactor == pytest.approx(3.0, rel=1e-6)


def test_scaling_fit_reports_both_fits():
    data = {8.0: 1.0, 16.0: 4.0, 32.0: 16.0}
    fit = scaling_fit(data)
    assert fit.power_law.kind == "power-law"
    assert fit.exponential.kind == "exponential"
    assert fit.power_law.rate_stderr >= 0.0


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        scaling_fit({1.0: 1.0, 2.0: 2.0})
    with pytest.raises(ValueError):
        scaling_fit({1.0: 1.0, 2.0: -1.0, 3.0: 2.0})


def test_wilson_interval():
    lo, hi = wilson_interval(0.5, 100)
    assert lo == pytest.approx(0.404, abs=2e-3)
    assert hi == pytest.approx(0.596, abs=2e-3)
    lo0, hi0 = wilson_interval(0.0, 10)
    assert lo0 == 0.0
    assert hi0 > 0.0
    lo1, hi1 = wilson_interval(1.0, 10)
    assert hi1 == 1.0
    with pytest.raises(ValueError):
        wilson_interval(0.5, 0)
