"""Classical reference solvers: exhaustive brute force and simulated annealing."""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import CapacityError
from .qubo import MODEL_MAX_VARS, IsingModel, Model, energy

BRUTE_FORCE_MAX_VARS = 25

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
class SolverRun:
    best_assignment: tuple[int, ...]
    best_energy: float
    trace: list[float]  # best-so-far per sweep, non-increasing


@dataclass
class SuccessStats:
    runs: int
    successes: int
    threshold: float

    @property
    def p_hat(self) -> float:
        return self.successes / self.runs


# Energies per block, 128 KiB per float64 block. Over ten 16-20-variable
# models (2-vCPU Xeon, 2 MiB L2, one BLAS thread), interleaved passes of
# brute force took a median 9.5-10 ms at 2^14 and 2^15, 2^14 ahead in 6 of 8
# comparisons, 10.5-11.7 ms at 2^13 and 13-15 ms at 2^16.
BLOCK_ENTRIES = 1 << 14


def _finite_scale(model: Model) -> float:
    """The sum of |coefficients|, or ValueError when it is not finite: it
    bounds every partial sum of every energy, so then none overflows."""
    scale = (abs(model.offset) + sum(map(abs, model.h))
             + sum(map(abs, model.J.values())))
    if not math.isfinite(scale):
        raise ValueError("model energies overflow: the sum of |coefficients| "
                         "is not finite")
    return scale


def _arrays(model: Model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fields h, the coupling pairs (one (i, j) row each) and their
    weights w, as float and index arrays in ``J`` order."""
    h = np.asarray(model.h, dtype=float)
    pairs = np.array(list(model.J), dtype=np.intp).reshape(-1, 2)
    w = np.fromiter(model.J.values(), dtype=float, count=len(model.J))
    return h, pairs, w


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
    energies from one matmul against the table of every low column. When
    every coefficient is an integer and their |values| sum below 2^53, each
    entry is exact in any summation order. Optima (within 1e-12 of the
    running best) come in ascending index order; the reported energy is
    ``energy`` of the first, so it does not depend on the matmul's summation
    order, and only candidates whose ``energy`` is within 1e-12 of it are
    kept.
    """
    n = model.n
    if n > BRUTE_FORCE_MAX_VARS:
        raise CapacityError(
            f"{n} variables exceeds brute-force cap {BRUTE_FORCE_MAX_VARS}"
        )
    _finite_scale(model)
    spin = model.spin
    a = (n + 1) // 2
    h, pairs, w = _arrays(model)
    W = np.zeros((n, n))
    W[pairs[:, 0], pairs[:, 1]] = w
    lo = _assignments(np.arange(1 << a), a, spin).astype(float)
    e_lo = lo @ h[:a] + ((lo @ W[:a, :a]) * lo).sum(axis=1)
    right = np.empty((a + 2, len(lo)))  # C order, which BLAS reads fastest
    right[:a], right[a], right[a + 1] = lo.T, 1.0, e_lo
    del lo
    hi = _assignments(np.arange(1 << (n - a)), n - a, spin).astype(float)
    e_hi = hi @ h[a:] + ((hi @ W[a:, a:]) * hi).sum(axis=1) + model.offset
    left = np.column_stack([hi @ W[:a, a:].T, e_hi, np.ones(len(hi))])
    del hi
    rows = max(1, BLOCK_ENTRIES >> a)
    best_e = math.inf
    optima: list[np.ndarray] = []
    for start in range(0, len(left), rows):
        e = left[start:start + rows] @ right
        low = float(e.min())
        if low < best_e - 1e-12:
            best_e, optima = low, []
        if low <= best_e + 1e-12:
            # Every entry is >= low >= best_e - 1e-12: one compare suffices.
            optima.append((start << a) + np.flatnonzero(e <= best_e + 1e-12))
    return _ties(model, _assignments(np.concatenate(optima), n, spin))


def _energies(model: Model, values: np.ndarray) -> np.ndarray:
    """``energy`` of every row of ``values``, bit for bit: its terms and
    products, summed left to right (``accumulate``) in its order, over blocks
    of rows of about ``BLOCK_ENTRIES`` terms."""
    h, pairs, w = _arrays(model)
    rows = max(1, BLOCK_ENTRIES // (1 + len(h) + len(w)))
    energies = []
    for start in range(0, len(values), rows):
        v = values[start:start + rows].T.astype(float)
        terms = np.concatenate([np.full((1, v.shape[1]), float(model.offset)),
                                h[:, None] * v,
                                w[:, None] * v[pairs[:, 0]] * v[pairs[:, 1]]])
        energies.append(np.add.accumulate(terms)[-1])
    return np.concatenate(energies)


def _ties(model: Model,
          values: np.ndarray) -> tuple[float, list[tuple[int, ...]]]:
    """``energy`` of the first row, and every row whose ``energy`` is within
    1e-12 of it, in order."""
    best_e = energy(model, values[0].tolist())
    keep = np.abs(_energies(model, values) - best_e) <= 1e-12
    return best_e, list(map(tuple, values[keep].tolist()))


@dataclass(frozen=True)
class PreparedModel:
    """What the SA kernel reads of a model, built once by ``prepare``.

    A variable's step is the change its flip makes: +-2 for a spin, +-1 for
    a bit. ``rises[i]`` holds (j, w_ij * |step|) for each neighbour j of i,
    the add to f_j when x_i steps up, and ``falls[i]`` the same negated.
    ``exact`` is true when every coefficient is an integer and 4 * sum of
    |coefficients| < 2^53: then every field, dE and running energy is an
    exactly represented integer, equal to ``energy`` of its state."""

    model: Model
    h: np.ndarray
    pairs: np.ndarray
    w: np.ndarray
    rises: list[list[tuple[int, float]]]
    falls: list[list[tuple[int, float]]]
    exact: bool


def prepare(model: Model) -> PreparedModel:
    """The SA kernel's per-model inputs; ValueError when the model's
    energies can overflow."""
    scale = _finite_scale(model)
    size = 2 if model.spin else 1
    rises: list[list[tuple[int, float]]] = [[] for _ in range(model.n)]
    falls: list[list[tuple[int, float]]] = [[] for _ in range(model.n)]
    for (i, j), w in model.J.items():
        # Scaling by a power of two and negating are exact: these adds are
        # bit for bit w * step.
        up = w * size
        rises[i].append((j, up))
        falls[i].append((j, -up))
        rises[j].append((i, up))
        falls[j].append((i, -up))
    coefficients = (model.offset, *model.h, *model.J.values())
    exact = (4 * scale < 2.0**53
             and all(float(c).is_integer() for c in coefficients))
    return PreparedModel(model, *_arrays(model), rises, falls, exact)


SWEEPS_PER_DRAW = 8  # sweeps whose randomness one pair of draws supplies


def _anneal(prepared: PreparedModel, schedule: AnnealSchedule,
            rng: np.random.Generator, runs: int, stop: float | None = None
            ) -> list[tuple[list[int], list[float], bool]]:
    """``runs`` Metropolis runs with incremental local-field dE, each on plain
    Python lists (much faster to index than numpy scalars), from one
    generator. Seeded outputs rest on the draw order: a (runs, n) array of
    start bits, then per block of up to ``SWEEPS_PER_DRAW`` sweeps (k of
    them) a (runs, k, n) array of targets and a (runs, k, n) array of Exp(1)
    draws divided by each sweep's beta. Every block covers every run, stopped
    or not, so each run reads its own slice of every block and no run's draws
    depend on when another stopped; at runs = 1 the order is that of a single
    run. A move is accepted iff dE <= 0 or dE is below its limit, which has
    probability exp(-beta * dE): Metropolis.

    A run keeps each variable's step, not its value, and negates it on a
    flip. Start fields and energies are summed in ``J`` order, as
    term-by-term Python sums would be. Returns, per run, the best
    assignment, the best-so-far energy per sweep run, and whether the run
    stopped early: given a ``stop``, it does at the first new best at or
    below ``stop`` (by ``energy``, unless the model is ``exact``), as no
    later draw can undo that hit."""
    model, exact = prepared.model, prepared.exact
    rises, falls = prepared.rises, prepared.falls
    n = model.n
    spin = model.spin
    bits = rng.integers(0, 2, size=(runs, n))
    start_vals = 2 * bits - 1 if spin else bits
    h, pairs, w = prepared.h, prepared.pairs, prepared.w
    start_fields = np.tile(h, (runs, 1))
    # Coupling (i, j) adds w * v_j to f_i, then w * v_i to f_j.
    np.add.at(start_fields, (slice(None), pairs.ravel()),
              np.repeat(w, 2) * start_vals[:, pairs[:, ::-1].ravel()])
    # Left to right from a leading 0.0, as sum() adds from 0.
    terms = np.zeros((runs, n + 1))
    terms[:, 1:] = start_vals * (h + start_fields)
    start_e = float(model.offset) + 0.5 * np.add.accumulate(terms, axis=1)[:, -1]

    def values(steps: list[int]) -> list[int]:
        return ([-d // 2 for d in steps] if spin
                else [(1 - d) // 2 for d in steps])

    steps = (-2 * start_vals if spin else 1 - 2 * start_vals).tolist()
    fields, energies = start_fields.tolist(), start_e.tolist()
    results = [(d[:], [], False) for d in steps]
    live = list(range(runs))
    for s in range(0, schedule.sweeps, SWEEPS_PER_DRAW):
        betas = schedule.betas(s, min(s + SWEEPS_PER_DRAW, schedule.sweeps))
        k = len(betas)
        block_targets = rng.integers(0, n, size=(runs, k, n))
        block_limits = rng.standard_exponential((runs, k, n)) / betas[:, None]
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
                    if delta <= 0.0 or delta < limit:
                        d[t] = -step
                        e += delta
                        for j, df in (rises if step > 0 else falls)[t]:
                            f[j] += df
                        if e < best_e:
                            best_e, best = e, d[:]
                            if (stop is not None and e <= stop
                                    and (exact or energy(model, values(best))
                                         <= stop)):
                                hit = True
                                break
                trace.append(best_e)
                if hit:
                    break
            energies[r] = e
            results[r] = (best, trace, hit)
        live = [r for r in live if not results[r][2]]
        if not live:
            break
    return [(values(best), trace, hit) for best, trace, hit in results]


def simulated_annealing(model: Model, schedule: AnnealSchedule,
                        seed) -> SolverRun:
    """Metropolis single-variable updates with incremental local-field dE."""
    [(best, trace, _)] = _anneal(prepare(model), schedule,
                                 np.random.default_rng(seed), 1)
    best = tuple(best)
    return SolverRun(best, energy(model, best), trace)


def estimate_success_probability(model: Model | PreparedModel,
                                 schedule: AnnealSchedule, runs: int,
                                 threshold: float, seed: int) -> SuccessStats:
    """``runs`` SA runs from one generator seeded with ``seed``; success iff
    best energy <= threshold. ``model`` may come already prepared, so that a
    curve of estimates prepares its model once.

    A run stops at its first confirmed hit, since the rest of its schedule
    cannot undo it, and no other run's draws move when it does; TTS still
    charges each run its full sweep count. On an ``exact`` model a run's
    best-so-far energy (its start's included) is its best state's
    ``energy``, so it decides success without calling ``energy``.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    prepared = model if isinstance(model, PreparedModel) else prepare(model)
    stop = threshold + 1e-9
    results = _anneal(prepared, schedule, np.random.default_rng(seed), runs,
                      stop)
    if prepared.exact:
        successes = sum(hit or trace[-1] <= stop for _, trace, hit in results)
    else:
        successes = sum(hit or energy(prepared.model, best) <= stop
                        for best, _, hit in results)
    return SuccessStats(runs=runs, successes=successes, threshold=threshold)


def planted_ferromagnet(n: int, density: float, seed: int) -> IsingModel:
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
