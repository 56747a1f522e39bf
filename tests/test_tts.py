import math
from fractions import Fraction

import numpy as np
import pytest

from genoq.solvers import brute_force, planted_ferromagnet
from genoq.tts import (
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
    assert repetitions_needed(0.0, 0.9) is None
    with pytest.raises(ValueError):
        repetitions_needed(0.5, 0.0)
    with pytest.raises(ValueError):
        repetitions_needed(0.5, 1.0)
    with pytest.raises(ValueError):
        repetitions_needed(-0.1, 0.9)


def test_repetitions_needed_is_the_exact_smallest_count():
    # R is the smallest integer with (1 - p_hat)^R <= 1 - p_d, taken in exact
    # rational arithmetic on the two floats, for every p_hat = k / runs of an
    # estimator with 2..64 runs. log(1 - x) rounds 1 - x first and misses two
    # of these pairs (18 (k, runs, p_d) cases): p_hat = 0.2, p_d = 0.36 gave
    # 3, though 0.8^2 = 0.64, and p_hat = 0.3, p_d = 0.51 gave 2, one short.
    targets = [k / 100 for k in range(1, 100)] + [0.999, 0.99999]
    p_hats = sorted({k / runs for runs in range(2, 65)
                     for k in range(1, runs + 1)})
    for p_d in targets:
        miss = 1 - Fraction(p_d)
        for p_hat in p_hats:
            r = repetitions_needed(p_hat, p_d)
            q = 1 - Fraction(p_hat)
            fails = q ** (r - 1)
            assert fails * q <= miss < fails, (p_hat, p_d, r)
    assert repetitions_needed(0.2, 0.36) == 2
    # Below 2^-53, 1 - p_hat rounds to 1 and log(1 - p_hat) to zero.
    r = repetitions_needed(1e-20, 0.9)
    assert isinstance(r, int)
    assert r == pytest.approx(-math.log(0.1) / 1e-20, rel=1e-12)


def test_tts_curve_matches_closed_form():
    tau = 10.0
    p_d = 0.9
    curve = tts_curve(stub_estimator(tau), [1.0, 5.0, 20.0, 100.0], p_d)
    for t, p_hat, repetitions, tts in curve:
        p = 1.0 - math.exp(-t / tau)
        r = 1 if p >= p_d else math.ceil(math.log(1 - p_d) / math.log(1 - p))
        assert p_hat == p  # exact, no extra arithmetic
        assert repetitions == r
        assert tts == r * t


def test_tts_curve_grid_validation():
    with pytest.raises(ValueError):
        tts_curve(stub_estimator(1.0), [], 0.9)
    with pytest.raises(ValueError):
        tts_curve(stub_estimator(1.0), [2.0, 1.0], 0.9)
    with pytest.raises(ValueError):
        tts_curve(stub_estimator(1.0), [1.0, 1.0], 0.9)


def test_tts_curve_flags_zero_probability_points():
    curve = tts_curve(lambda t: 0.0 if t < 2 else 0.5, [1.0, 3.0, 5.0], 0.9)
    assert curve[0][3] is None
    assert curve[0][2] is None
    assert curve[1][3] is not None
    assert len([row for row in curve if row[3] is not None]) == 2


def test_tts_curve_all_excluded_raises():
    with pytest.raises(ValueError):
        tts_curve(lambda t: 0.0, [1.0, 2.0], 0.9)


def test_optimal_tts_interior_minimum():
    # p(t) = 1 - exp(-(t/tau)^2): TTS falls like 1/t while R > 1, then rises
    # like t once a single run suffices, so the optimum is interior.
    curve = tts_curve(lambda t: 1.0 - math.exp(-((t / 10.0) ** 2)),
                      list(np.arange(1.0, 101.0)), 0.9)
    best = optimal_tts(curve)
    assert curve[0][0] < best[0] < curve[-1][0]
    assert not optimum_at_boundary(curve)
    assert best[3] == min(row[3] for row in curve if row[3] is not None)


def test_optimal_tts_tie_breaks_to_smaller_t():
    curve = (
        (1.0, 0.5, 4, 4.0),
        (2.0, 0.9, 2, 4.0),
        (3.0, 0.9, 2, 6.0),
    )
    best = optimal_tts(curve)
    assert best[0] == 1.0


def test_optimal_tts_without_valid_points_raises():
    curve = ((1.0, 0.0, None, None),)
    with pytest.raises(ValueError, match="no valid points"):
        optimal_tts(curve)


def test_boundary_flag():
    # Grid entirely on the rising side of the TTS curve.
    curve = tts_curve(stub_estimator(1.0), [50.0, 60.0, 70.0], 0.9)
    assert optimum_at_boundary(curve)
    assert optimal_tts(curve)[0] == 50.0


def test_sa_estimator_protocol_end_to_end():
    model = planted_ferromagnet(10, density=0.5, seed=3)
    ground, _ = brute_force(model)
    estimator = sa_probability_estimator(model, ground, runs=25, seed=100)
    curve = tts_curve(estimator, [2.0, 20.0, 120.0], 0.9)
    assert all(0.0 <= p_hat <= 1.0 for _, p_hat, _, _ in curve)
    best = optimal_tts(curve)
    assert best[3] > 0


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
    _, (log_base, _) = scaling_fit(data)
    assert math.exp(log_base) == pytest.approx(2**0.3, rel=1e-6)


def test_scaling_fit_recovers_power_law():
    sizes = [8, 16, 32, 64]
    data = {n: 3.0 * n**2 for n in sizes}
    (exponent, _), _ = scaling_fit(data)
    assert exponent == pytest.approx(2.0, rel=1e-6)


def test_scaling_fit_reports_both_fits():
    data = {8.0: 1.0, 16.0: 4.0, 32.0: 16.0}
    (_, exponent_err), _ = scaling_fit(data)
    assert exponent_err >= 0.0


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
