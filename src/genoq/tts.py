"""Time-to-solution benchmarking: R(t), TTS(t), TTS*, and scaling fits.

Run time t is counted in sweeps, not seconds, so TTS is hardware-independent.
``repetitions_needed`` returns R, computed with ``log1p``, or None at
p_hat = 0; ``tts_curve`` returns one ``(t, p_hat, R, TTS)`` row per grid
point, R and TTS None where p_hat = 0; ``optimal_tts`` returns the row of
TTS*; ``scaling_fit`` returns ``((exponent, stderr), (log_base, stderr))``;
``cli`` writes the CSV.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .qubo import Model
from .solvers import AnnealSchedule, estimate_success_probability


def repetitions_needed(p_hat: float, p_d: float) -> int | None:
    """Repetitions R = ceil(log(1 - p_d) / log(1 - p_hat)) to reach target
    success p_d given per-run success p_hat; None at p_hat = 0, where no
    finite R exists. Both logs are ``log1p``, which keeps R exact where
    ``log(1 - x)`` would round 1 - x first (p_hat = 0.2, p_d = 0.36 needs
    R = 2) and finite for p_hat below 2^-53."""
    if not 0 < p_d < 1:
        raise ValueError("target probability must be in (0, 1)")
    if not 0 <= p_hat <= 1:
        raise ValueError("p_hat must be in [0, 1]")
    if p_hat == 0.0:
        return None
    if p_hat >= p_d:
        return 1
    return math.ceil(math.log1p(-p_d) / math.log1p(-p_hat))


def tts_curve(p_estimator: Callable[[float], float], t_grid: Sequence[float],
              p_d: float) -> tuple[tuple, ...]:
    """One ``(t, p_hat, R, TTS)`` row per point of the t grid, TTS = R * t;
    R and TTS are None where p_hat = 0, which flags the point, not fatal.

    ``p_estimator`` maps per-run time t to an estimated success probability;
    inject a closed-form stub for protocol self-tests.
    """
    ts = list(t_grid)
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t grid must be non-empty and strictly increasing")
    rows = []
    for t in ts:
        p_hat = p_estimator(t)
        r = repetitions_needed(p_hat, p_d)
        rows.append((t, p_hat, r, None if r is None else r * t))
    if not _valid(rows):
        raise ValueError("every grid point was excluded (p_hat = 0 throughout)")
    return tuple(rows)


def _valid(curve: Sequence[tuple]) -> list[tuple]:
    """The rows of a TTS curve that have a TTS (p_hat > 0), in order."""
    return [row for row in curve if row[3] is not None]


def sa_probability_estimator(model: Model, threshold: float, runs: int,
                             seed: int | Sequence[int]) -> Callable[[float], float]:
    """p_estimator backed by seeded simulated-annealing batches; the estimate
    at t draws from ``[*seed, t]`` (``[seed, t]`` for an int seed).

    t is a sweep count, so the estimator raises ValueError unless t is a
    whole number >= 1: TTS = R x t must count sweeps that were run. Every
    t's estimate reads the same model, so its cached neighbour lists are
    built once.
    """
    entropy = list(seed) if isinstance(seed, Sequence) else [seed]

    def estimate(t: float) -> float:
        if not (t >= 1 and float(t).is_integer()):
            raise ValueError(
                f"SA run time t must be a whole number of sweeps >= 1, got {t:g}")
        schedule = AnnealSchedule(sweeps=int(t))
        stats = estimate_success_probability(
            model, schedule, runs=runs, threshold=threshold,
            seed=[*entropy, int(t)],
        )
        return stats.p_hat

    return estimate


def optimal_tts(curve: Sequence[tuple]) -> tuple:
    """The ``(t, p_hat, R, TTS)`` row of the grid minimum of TTS; ties break
    toward smaller t."""
    valid = _valid(curve)
    if not valid:
        raise ValueError("curve has no valid points")
    return min(valid, key=lambda row: (row[3], row[0]))


def optimum_at_boundary(curve: Sequence[tuple]) -> bool:
    """True when the located optimum sits on the t grid edge, i.e. the grid
    fails to bracket t* and the point must be flagged."""
    best = optimal_tts(curve)
    valid = _valid(curve)
    return best[0] in (valid[0][0], valid[-1][0])


def _least_squares(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The slope of the least-squares line through (x, y), and its stderr."""
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return float(coeffs[0]), float(np.sqrt(cov[0, 0]))


def scaling_fit(tts_by_size: Mapping[float, float]
                ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Least-squares fits of log TTS* against log size (power law) and size
    (exponential): ``((exponent, stderr), (log_base, stderr))``, each slope
    with its stderr. The exponential fit grows by ``math.exp(log_base)`` per
    unit size. Both fits are always reported; no advantage verdict is
    emitted.
    """
    if len(tts_by_size) < 3:
        raise ValueError("need at least 3 sizes for a scaling fit")
    sizes = np.array(sorted(tts_by_size), dtype=float)
    values = np.array([tts_by_size[s] for s in sizes], dtype=float)
    if np.any(values <= 0):
        raise ValueError("TTS* values must be positive")
    logy = np.log(values)
    return _least_squares(np.log(sizes), logy), _least_squares(sizes, logy)


def wilson_interval(p_hat: float, runs: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (TTS error bands)."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    denom = 1.0 + z * z / runs
    center = (p_hat + z * z / (2 * runs)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / runs + z * z / (4 * runs**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)
