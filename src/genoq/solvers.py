"""Classical reference solvers: exhaustive brute force and simulated annealing.

``brute_force`` returns ``(best_energy, optimal_assignments)``;
``simulated_annealing`` returns ``(best_assignment, best_energy, trace)``;
``estimate_success_probability`` returns the ``SuccessStats`` of its runs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
import numpy as np

from .errors import CapacityError
from .qubo import MODEL_MAX_VARS, IsingModel, Model, energy

BRUTE_FORCE_MAX_VARS = 25
# Most optimal assignments brute force keeps. Measured through qubo-solve
# (numpy 2.4, x86-64) on models whose every state is optimal, peak RSS grows
# by ~1 KB per listed optimum of 18 variables: 2^16 of them peaked at 88 MB,
# 2^18 at 284 MB and 2^20 at 1123 MB. At the cap and 25 variables, 2^18
# optima peaked at 359 MB and wrote 59 MiB of JSON.
BRUTE_FORCE_MAX_OPTIMA = 1 << 18

DEFAULT_BETA_START = 0.1
DEFAULT_BETA_END = 10.0
# The smallest beta a schedule takes. It is infinite temperature in all but
# name, and below about 2.5e-307 an Exp(1) draw over beta can overflow.
MIN_BETA = 1e-300


@dataclass(frozen=True)
class AnnealSchedule:
    """One sweep = n single-variable update attempts."""

    sweeps: int
    beta_start: float = DEFAULT_BETA_START
    beta_end: float = DEFAULT_BETA_END

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not MIN_BETA <= self.beta_start <= self.beta_end < math.inf:
            raise ValueError(f"need {MIN_BETA:g} <= beta_start <= beta_end < inf, "
                             f"got {self.beta_start!r} and {self.beta_end!r}")

    def betas(self, start: int, stop: int) -> np.ndarray:
        """The betas of sweeps start..stop-1 of the geometric ladder from
        beta_start to beta_end, one beta per sweep. Equal, bit for bit, to
        ``np.geomspace(beta_start, beta_end, sweeps)[start:stop]``, computed
        in closed form as geomspace does, without building the whole ladder."""
        log_start = np.log10(self.beta_start)
        step = ((np.log10(self.beta_end) - log_start) / (self.sweeps - 1)
                if self.sweeps > 1 else 0.0)
        betas = 10.0 ** (np.arange(start, stop, dtype=float) * step + log_start)
        # geomspace pins both ends, as 10 ** log10(x) need not be x.
        if start == 0 < stop:
            betas[0] = self.beta_start
        if start < stop == self.sweeps > 1:
            betas[-1] = self.beta_end
        return betas


@dataclass
class SuccessStats:
    runs: int
    successes: int

    @property
    def p_hat(self) -> float:
        return self.successes / self.runs


# Energies per block, 128 KiB per float64 block. Over ten 16-20-variable
# models (2-vCPU Xeon, 2 MiB L2, one BLAS thread), interleaved passes of
# brute force took a median 9.5-10 ms at 2^14 and 2^15, 2^14 ahead in 6 of 8
# comparisons, 10.5-11.7 ms at 2^13 and 13-15 ms at 2^16. A single SA run
# draws its targets and Exp(1) limits in blocks of as many entries.
BLOCK_ENTRIES = 1 << 14


def _assignments(index: np.ndarray, n: int, spin: bool) -> np.ndarray:
    """Row r holds the n variable values of flat index index[r] (bit i = var i)."""
    bits = (index[:, None] >> np.arange(n)) & 1
    return 2 * bits - 1 if spin else bits


def brute_force(model: Model) -> tuple[float, list[tuple[int, ...]]]:
    """Exhaustive enumeration: exact optimum and every optimal assignment.

    Index x = (high << a) | low splits the variables into the low a = ceil(n/2)
    and the high n - a. Every energy is E_low[low] + E_high[high] + cross,
    the dot product of the high row [x_high W_cross^T | E_high | 1] with the
    low column [x_low ; 1 ; E_low], so a block of high rows gets all its
    energies from one matmul against the table of every low column.

    The matmul and ``energy`` add up the same m = 1 + n + |J| terms in
    different orders. Every partial sum is at most ``scale`` (the sum of
    |coefficients|) in size, so each is within m * 2^-53 * scale of the
    exact energy, to first order, and the two differ by at most
    d = 4 * m * 2^-53 * scale; on an ``exact`` model every entry is exact in
    any order and d = 0. Candidates are the states within 1e-12 + 2d of the
    lowest matmul energy, which holds every state within 1e-12 of the
    optimum by ``energy``. A first pass over the blocks finds that lowest
    energy; a second recomputes the blocks that reach the window and lists
    their candidates in ascending index order. The optimum is one rule, exact
    and independent of the matmul's summation order: the reported energy is
    the minimum of ``energy`` over the candidates, and the optima are every
    candidate whose ``energy`` is within 1e-12 of it.

    A field-free Ising model has E(x) = E(-x), bit for bit, so for n >= 2
    only the high rows whose top variable is -1 (indices below 2^(n-1)) are
    enumerated, and the mirror 2^n - 1 - i of each optimum i follows them,
    in ascending order: every mirror lies above every enumerated index.

    CapacityError when the candidates, mirrors included, number more than
    ``BRUTE_FORCE_MAX_OPTIMA``, raised as the second pass passes the cap.
    """
    n = model.n
    if n > BRUTE_FORCE_MAX_VARS:
        raise CapacityError(
            f"{n} variables exceeds brute-force cap {BRUTE_FORCE_MAX_VARS}"
        )
    h, pairs, w = model.arrays
    d = 0.0 if model.exact else 2.0**-51 * (1 + n + len(w)) * model.scale
    window = 1e-12 + 2 * d
    spin = model.spin
    mirror = spin and n >= 2 and not any(model.h)
    a = (n + 1) // 2
    W = np.zeros((n, n))
    W[pairs[:, 0], pairs[:, 1]] = w
    lo = _assignments(np.arange(1 << a), a, spin).astype(float)
    e_lo = lo @ h[:a] + ((lo @ W[:a, :a]) * lo).sum(axis=1)
    right = np.empty((a + 2, len(lo)))  # C order, which BLAS reads fastest
    right[:a], right[a], right[a + 1] = lo.T, 1.0, e_lo
    del lo
    hi = _assignments(np.arange(1 << (n - a - mirror)), n - a,
                      spin).astype(float)
    e_hi = hi @ h[a:] + ((hi @ W[a:, a:]) * hi).sum(axis=1) + model.offset
    left = np.column_stack([hi @ W[:a, a:].T, e_hi, np.ones(len(hi))])
    del hi
    rows = max(1, BLOCK_ENTRIES >> a)
    starts = range(0, len(left), rows)

    def block(start: int) -> np.ndarray:
        # Both passes compute a block by this one slice and product, so they
        # read the same energies: a one-ulp drift could drop the minimum.
        return (left[start:start + rows] @ right).ravel()

    lows = [float(block(start).min()) for start in starts]
    limit = min(lows) + window
    found, count = [], 0
    for start, low in zip(starts, lows):
        if low <= limit:
            keep = np.flatnonzero(block(start) <= limit)
            count += len(keep)
            if count << mirror > BRUTE_FORCE_MAX_OPTIMA:
                raise CapacityError(f"more than {BRUTE_FORCE_MAX_OPTIMA} optimal "
                                    f"assignments, over the brute-force cap")
            found.append((start << a) + keep)
    index = np.concatenate(found)
    if mirror:
        index = np.concatenate([index, (1 << n) - 1 - index[::-1]])
    return _ties(model, _assignments(index, n, spin))


def _energies(model: Model, values: np.ndarray) -> np.ndarray:
    """``energy`` of every row of ``values``, bit for bit: its terms and
    products, summed left to right (``accumulate``) in its order, over blocks
    of rows of about ``BLOCK_ENTRIES`` terms."""
    h, pairs, w = model.arrays
    rows = max(1, BLOCK_ENTRIES // (1 + len(h) + len(w)))
    energies = []
    for start in range(0, len(values), rows):
        v = values[start:start + rows].T.astype(float)
        terms = np.concatenate([
            np.full((1, v.shape[1]), float(model.offset)),
            h[:, None] * v, w[:, None] * v[pairs[:, 0]] * v[pairs[:, 1]]])
        energies.append(np.add.accumulate(terms)[-1])
    return np.concatenate(energies)


def _ties(model: Model,
          values: np.ndarray) -> tuple[float, list[tuple[int, ...]]]:
    """The lowest ``energy`` of the rows (its first occurrence, for the sign
    of a zero), and every row whose ``energy`` is within 1e-12 of it, in
    order. A row past that margin is one that only the matmul's rounding
    window let in."""
    energies = _energies(model, values)
    best_e = float(energies[np.argmin(energies)])
    keep = energies - best_e <= 1e-12
    return best_e, list(map(tuple, values[keep].tolist()))


SWEEPS_PER_DRAW = 8  # sweeps per block of the estimator's draws


def _anneal(model: Model, schedule: AnnealSchedule,
            rng: np.random.Generator, runs: int, stop: float | None = None,
            sweeps_per_draw: int = SWEEPS_PER_DRAW
            ) -> list[tuple[list[int], list[float], bool]]:
    """``runs`` Metropolis runs with incremental local-field dE, each on plain
    Python lists (much faster to index than numpy scalars), from one
    generator. Seeded outputs rest on the draw order: a (runs, n) array of
    start bits, then per block of up to ``sweeps_per_draw`` sweeps (k of
    them) a (runs, k, n) array of targets and a (runs, k, n) array of Exp(1)
    draws divided by each sweep's beta. Every block covers every run, stopped
    or not, so each run reads its own slice of every block and no run's draws
    depend on when another stopped. A move is accepted iff dE <= 0 or dE is
    below its limit, which has probability exp(-beta * dE): Metropolis.
    Limits are floored at the smallest positive float, 5e-324, so that one
    compare, dE < limit, makes that decision bit for bit.

    A run keeps each variable's step, not its value, and negates it on a
    flip, which adds the variable's ``rises`` to its neighbours' fields on
    an up-step and subtracts them on a down-step. Start fields and energies
    are summed in ``J`` order, as term-by-term Python sums would be.
    Returns, per run, the best assignment, the best-so-far energy per sweep
    run, and whether the run stopped early: given a ``stop``, it does at the
    first new best at or below ``stop`` (by ``energy``, unless the model is
    ``exact``), as no later draw can undo that hit. A start state that meets
    the same rule is a hit before the first sweep, with an empty trace."""
    exact, rises = model.exact, model.rises
    n = model.n
    spin = model.spin
    bits = rng.integers(0, 2, size=(runs, n))
    start_vals = 2 * bits - 1 if spin else bits
    h, pairs, w = model.arrays
    start_fields = np.tile(h, runs)
    # Coupling (i, j) adds w * v_j to f_i, then w * v_i to f_j, run by run.
    np.add.at(start_fields, (n * np.arange(runs)[:, None] + pairs.ravel()).ravel(),
              (np.repeat(w, 2) * start_vals[:, pairs[:, ::-1].ravel()]).ravel())
    start_fields = start_fields.reshape(runs, n)
    # Left to right from a leading 0.0, as sum() adds from 0.
    terms = np.zeros((runs, n + 1))
    terms[:, 1:] = start_vals * (h + start_fields)
    start_e = float(model.offset) + 0.5 * np.add.accumulate(terms, axis=1)[:, -1]

    def values(steps: list[int]) -> list[int]:
        return ([-d // 2 for d in steps] if spin
                else [(1 - d) // 2 for d in steps])

    def meets_stop(e: float, state: list[int]) -> bool:
        return (stop is not None and e <= stop
                and (exact or energy(model, values(state)) <= stop))

    steps = (-2 * start_vals if spin else 1 - 2 * start_vals).tolist()
    fields, energies = start_fields.tolist(), start_e.tolist()
    results = [(d[:], [], meets_stop(e, d)) for d, e in zip(steps, energies)]
    live = [r for r in range(runs) if not results[r][2]]
    for s in range(0, schedule.sweeps, sweeps_per_draw):
        if not live:
            break
        betas = schedule.betas(s, min(s + sweeps_per_draw, schedule.sweeps))
        k = len(betas)
        block_targets = rng.integers(0, n, size=(runs, k, n))
        block_limits = rng.standard_exponential((runs, k, n)) / betas[:, None]
        np.maximum(block_limits, 5e-324, out=block_limits)
        for r in live:
            d, f, e = steps[r], fields[r], energies[r]
            best, trace, _ = results[r]
            best_e = trace[-1] if trace else e
            hit = False
            for sweep_targets, sweep_limits in zip(block_targets[r].tolist(),
                                                   block_limits[r].tolist()):
                for t, limit in zip(sweep_targets, sweep_limits):
                    step = d[t]
                    delta = step * f[t]
                    if delta < limit:
                        d[t] = -step
                        e += delta
                        if step > 0:
                            for j, df in rises[t]:
                                f[j] += df
                        else:
                            for j, df in rises[t]:
                                f[j] -= df
                        if e < best_e:
                            best_e, best = e, d[:]
                            if meets_stop(e, best):
                                hit = True
                                break
                trace.append(best_e)
                if hit:
                    break
            energies[r] = e
            results[r] = (best, trace, hit)
        live = [r for r in live if not results[r][2]]
    return [(values(best), trace, hit) for best, trace, hit in results]


def simulated_annealing(model: Model, schedule: AnnealSchedule, seed
                        ) -> tuple[tuple[int, ...], float, list[float]]:
    """Metropolis single-variable updates with incremental local-field dE.
    Returns ``(best_assignment, best_energy, trace)``: the best energy is
    ``energy`` of the best assignment, and the trace holds the best-so-far
    energy of each sweep, non-increasing. A run never stops early, so it
    draws its targets and limits in blocks of up to ``BLOCK_ENTRIES``, not
    per ``SWEEPS_PER_DRAW`` sweeps."""
    [(best, trace, _)] = _anneal(
        model, schedule, np.random.default_rng(seed), 1,
        sweeps_per_draw=max(1, BLOCK_ENTRIES // model.n))
    best = tuple(best)
    return best, energy(model, best), trace


def estimate_success_probability(model: Model, schedule: AnnealSchedule,
                                 runs: int,
                                 threshold: float,
                                 seed: int | Sequence[int]) -> SuccessStats:
    """``runs`` SA runs from one generator seeded with ``seed``; success iff
    best energy <= threshold. The model's cached neighbour lists serve every
    estimate of a curve.

    A run stops at its first confirmed hit, since the rest of its schedule
    cannot undo it, and no other run's draws move when it does; TTS still
    charges each run its full sweep count. On an ``exact`` model the
    running energy is ``energy``, so a run succeeds iff it hit, its start
    state included, without calling ``energy``.
    CapacityError, before any draw, when the runs' (runs, n) arrays would
    hold more than ``MODEL_MAX_VARS`` entries; the overflow ValueError of
    ``scale`` comes before it.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    exact = model.exact
    if runs * model.n > MODEL_MAX_VARS:
        raise CapacityError(f"{runs} runs of {model.n} variables "
                            f"exceed the model-size cap {MODEL_MAX_VARS}")
    stop = threshold + 1e-9
    results = _anneal(model, schedule, np.random.default_rng(seed), runs, stop)
    if exact:
        successes = sum(hit for _, _, hit in results)
    else:
        successes = sum(hit or energy(model, best) <= stop
                        for best, _, hit in results)
    return SuccessStats(runs=runs, successes=successes)


def planted_ferromagnet(n: int, density: float,
                        seed: int | Sequence[int]) -> IsingModel:
    """Random-sign planted Ising glass: couplings -s*_i s*_j on a random
    graph, so the planted configuration is a certified ground state.
    CapacityError, before anything is allocated, when its n(n-1)/2 candidate
    couplings exceed ``MODEL_MAX_VARS``."""
    if not 0 <= density <= 1:
        raise ValueError(f"density must be in [0, 1], got {density!r}")
    pairs = n * (n - 1) // 2
    if pairs > MODEL_MAX_VARS:
        raise CapacityError(f"planted glass of {n} spins has {pairs} candidate "
                            f"couplings, over the model-size cap {MODEL_MAX_VARS}")
    rng = np.random.default_rng(seed)
    planted = rng.choice([-1, 1], size=n)
    i, j = np.triu_indices(n, 1)
    edge = rng.random(len(i)) < density
    i, j = i[edge], j[edge]
    weights = (-planted[i] * planted[j]).astype(float)
    J = dict(zip(zip(i.tolist(), j.tolist()), weights.tolist()))
    return IsingModel(n, (0.0,) * n, J, 0.0)
