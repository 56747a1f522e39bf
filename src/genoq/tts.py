"""Time-to-solution benchmarking: R(t), TTS(t), TTS*, and scaling fits.

Run time t is measured in sweeps (hardware-independent); wall-clock time is
recorded separately by the solver layer. ``scaling_fit`` returns the
(power-law, exponential) ``FitResult`` pair; ``cli`` writes the CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import UnboundedRepetitionsError
from .qubo import Model
from .solvers import AnnealSchedule, estimate_success_probability


def repetitions_needed(p_hat: float, p_d: float) -> int:
    """Repetitions to reach target success p_d given per-run success p_hat."""
    if not 0 < p_d < 1:
        raise ValueError("target probability must be in (0, 1)")
    if not 0 <= p_hat <= 1:
        raise ValueError("p_hat must be in [0, 1]")
    if p_hat == 0.0:
        raise UnboundedRepetitionsError("per-run success probability is zero")
    if p_hat >= p_d:
        return 1
    return math.ceil(math.log(1.0 - p_d) / math.log(1.0 - p_hat))


@dataclass(frozen=True)
class TTSPoint:
    t: float
    p_hat: float
    repetitions: int | None
    tts: float | None  # repetitions * t; None when excluded (p_hat = 0)

    @property
    def excluded(self) -> bool:
        return self.tts is None


@dataclass(frozen=True)
class TTSCurve:
    points: tuple[TTSPoint, ...]

    def valid_points(self) -> list[TTSPoint]:
        return [p for p in self.points if not p.excluded]


def tts_curve(p_estimator: Callable[[float], float], t_grid: Sequence[float],
              p_d: float) -> TTSCurve:
    """Evaluate R and TTS on a t grid; p_hat = 0 points are flagged, not fatal.

    ``p_estimator`` maps per-run time t to an estimated success probability;
    inject a closed-form stub for protocol self-tests.
    """
    ts = list(t_grid)
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t grid must be non-empty and strictly increasing")
    points = []
    for t in ts:
        p_hat = p_estimator(t)
        try:
            r = repetitions_needed(p_hat, p_d)
        except UnboundedRepetitionsError:
            points.append(TTSPoint(t, p_hat, None, None))
            continue
        points.append(TTSPoint(t, p_hat, r, r * t))
    curve = TTSCurve(tuple(points))
    if not curve.valid_points():
        raise ValueError("every grid point was excluded (p_hat = 0 throughout)")
    return curve


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


def optimal_tts(curve: TTSCurve) -> TTSPoint:
    """Grid minimum of TTS; ties break toward smaller t."""
    valid = curve.valid_points()
    if not valid:
        raise ValueError("curve has no valid points")
    return min(valid, key=lambda p: (p.tts, p.t))


def optimum_at_boundary(curve: TTSCurve) -> bool:
    """True when the located optimum sits on the t grid edge, i.e. the grid
    fails to bracket t* and the point must be flagged."""
    best = optimal_tts(curve)
    valid = curve.valid_points()
    return best.t in (valid[0].t, valid[-1].t)


@dataclass(frozen=True)
class FitResult:
    kind: str  # "power-law" or "exponential"
    prefactor: float
    rate: float  # exponent (power-law) or per-size log-base (exponential)
    rate_stderr: float
    residuals: tuple[float, ...]

    @property
    def base(self) -> float:
        """Growth base per unit size; meaningful for the exponential fit."""
        return math.exp(self.rate)


def _least_squares(x: np.ndarray, y: np.ndarray, kind: str) -> FitResult:
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    resid = y - (slope * x + intercept)
    return FitResult(
        kind=kind,
        prefactor=math.exp(intercept),
        rate=slope,
        rate_stderr=float(np.sqrt(cov[0, 0])),
        residuals=tuple(float(r) for r in resid),
    )


def scaling_fit(tts_by_size: Mapping[float, float]) -> tuple[FitResult, FitResult]:
    """Least-squares (power-law, exponential) fits on log-transformed data.

    Both fits are always reported; no advantage verdict is emitted.
    """
    if len(tts_by_size) < 3:
        raise ValueError("need at least 3 sizes for a scaling fit")
    sizes = np.array(sorted(tts_by_size), dtype=float)
    values = np.array([tts_by_size[s] for s in sizes], dtype=float)
    if np.any(values <= 0):
        raise ValueError("TTS* values must be positive")
    logy = np.log(values)
    return (_least_squares(np.log(sizes), logy, "power-law"),
            _least_squares(sizes, logy, "exponential"))


def wilson_interval(p_hat: float, runs: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (TTS error bands)."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    denom = 1.0 + z * z / runs
    center = (p_hat + z * z / (2 * runs)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / runs + z * z / (4 * runs**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)
