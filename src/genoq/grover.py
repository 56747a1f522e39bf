"""Grover search over a read-window database without QRAM.

State preparation V entangles each index with its window data, the oracle
phase-marks states whose data register equals the key, and diffusion is the
composite V . R0 . Vdag with R0 a sign flip of the all-zeros register.

A search with m of its P slots marked never leaves the 2-dimensional span of
"uniform over the marked slots" and "uniform over the others", so
``slot_amplitudes`` writes down the P slot amplitudes after k iterations from
two closed-form values, without iterating. The gate-level circuits of
``prepare_circuits`` are kept for circuit dumps and as the reference the
closed form and the gate counts of ``circuit_lengths`` are tested against;
the loading-cost scan counts from structure and builds no circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sim
from .errors import CapacityError, ShapeError
from .genome import (
    ReadWindowDatabase,
    RegisterLayout,
    build_window_db,
    encode_window,
    layout_for,
)
from .sim import Circuit, Gate, StateVector, bitstring


@dataclass(frozen=True)
class SearchProblem:
    db: ReadWindowDatabase
    key: str  # base string of length M
    layout: RegisterLayout
    key_code: int  # the key's bits as one number, as windows are coded


def make_problem(db: ReadWindowDatabase, key: str) -> SearchProblem:
    if len(key) != db.window_length:
        raise ShapeError(
            f"key length {len(key)} != window length {db.window_length}"
        )
    layout = layout_for(len(db.genome), db.window_length)
    return SearchProblem(db, key, layout, int(encode_window(key), 2))


@dataclass(frozen=True)
class PreparedDatabaseCircuit:
    state_prep: Circuit
    oracle: Circuit
    diffusion: Circuit


@dataclass
class GroverRun:
    iterations: int
    p_exact: float
    histogram: dict[str, int]
    matched_indices: set[int]
    matches: list[dict] = field(default_factory=list)


def _data_flip_gates(layout: RegisterLayout, slot: int, code: int,
                     set_flag: bool) -> list[Gate]:
    """MCX gates loading window ``code`` (then the flag) into slot ``slot``."""
    controls = tuple(
        (layout.index_qubit(j), (slot >> j) & 1)
        for j in range(layout.index_qubits)
    )
    gates = [Gate("X", q, controls)
             for q in reversed(range(layout.data_qubits)) if code >> q & 1]
    if set_flag:
        gates.append(Gate("X", layout.flag_qubit, controls))
    return gates


def _check_capacity(layout: RegisterLayout) -> None:
    if layout.total > sim.MAX_QUBITS:
        raise CapacityError(
            f"register needs {layout.total} qubits, ceiling is {sim.MAX_QUBITS}"
        )


def build_state_prep(db: ReadWindowDatabase) -> Circuit:
    """H layer on the index register, then one MCX per set data bit per slot."""
    layout = layout_for(len(db.genome), db.window_length)
    _check_capacity(layout)
    codes = db.codes().tolist()
    gates = [Gate("H", layout.index_qubit(j)) for j in range(layout.index_qubits)]
    for slot in range(db.padded_size):
        padding = slot >= db.count
        code = codes[0] if padding else codes[slot]
        gates.extend(_data_flip_gates(layout, slot, code, set_flag=padding))
    return Circuit(layout.total, tuple(gates))


def build_oracle(problem: SearchProblem) -> Circuit:
    """Phase -1 on data == key (flag unset), as X-conjugated multicontrolled-Z."""
    layout = problem.layout
    qd = layout.data_qubits
    x_qubits = [q for q in reversed(range(qd)) if not problem.key_code >> q & 1]
    if layout.flag_qubits:
        x_qubits.append(layout.flag_qubit)
    conj = [Gate("X", q) for q in x_qubits]
    ctrl_qubits = list(range(1, qd))
    if layout.flag_qubits:
        ctrl_qubits.append(layout.flag_qubit)
    mcz = Gate("Z", 0, tuple((q, 1) for q in ctrl_qubits))
    return Circuit(layout.total, tuple(conj + [mcz] + list(reversed(conj))))


def build_diffusion(state_prep: Circuit) -> Circuit:
    """V . R0 . Vdag; R0 flips the sign of the all-zeros state of the register."""
    n = state_prep.num_qubits
    x_all = [Gate("X", q) for q in range(n)]
    r0 = x_all + [Gate("Z", 0, tuple((q, 1) for q in range(1, n)))] + x_all
    # H, X, and multicontrolled X are involutions, so Vdag is V reversed.
    vdag = list(reversed(state_prep.gates))
    return Circuit(n, tuple(vdag + r0 + list(state_prep.gates)))


def circuit_lengths(problem: SearchProblem) -> tuple[int, int, int]:
    """Gate counts of (state prep, oracle, diffusion), without building them.

    They equal ``len()`` of ``build_state_prep``, ``build_oracle`` and
    ``build_diffusion`` at any register size: prep is one H per index qubit
    plus one MCX per set data bit per slot (summed by one prefix sum over the
    M genome slices of the windows' k-th bases), padding slots repeating
    window 0 plus the flag; the oracle X-conjugates each zero key bit and the
    flag around one MCZ; diffusion is Vdag, R0 (an X layer on each side of
    one MCZ) and V.
    """
    layout = problem.layout
    db = problem.db
    m, count = db.window_length, db.count
    base = db.base_codes()
    # csum[i] is the set bits of genome[:i]; slice k is genome[k : k + count].
    csum = np.concatenate(([0], np.cumsum((base & 1) + (base >> 1))))
    loaded = int((csum[count : count + m] - csum[:m]).sum())
    prep = (layout.index_qubits + loaded
            + (db.padded_size - count) * (int(csum[m]) + 1))
    oracle = 2 * (layout.data_qubits - problem.key_code.bit_count() + layout.flag_qubits) + 1
    return prep, oracle, 2 * prep + 2 * layout.total + 1


def prepare_circuits(problem: SearchProblem) -> PreparedDatabaseCircuit:
    v = build_state_prep(problem.db)
    return PreparedDatabaseCircuit(
        state_prep=v,
        oracle=build_oracle(problem),
        diffusion=build_diffusion(v),
    )


def optimal_iterations(num_windows: int, num_solutions: int) -> int:
    if num_solutions < 1:
        raise ValueError(
            "num_solutions must be >= 1; use search_unknown_count otherwise"
        )
    if num_solutions > num_windows:
        raise ValueError("num_solutions cannot exceed num_windows")
    k = math.floor((math.pi / 4.0) * math.sqrt(num_windows / num_solutions))
    return max(1, k)


def _match_mask(problem: SearchProblem) -> np.ndarray:
    """Boolean mask over basis indices whose data register equals the key."""
    layout = problem.layout
    dim = 1 << layout.total
    idx = np.arange(dim, dtype=np.int64)
    mask = (idx & ((1 << layout.data_qubits) - 1)) == problem.key_code
    if layout.flag_qubits:
        mask &= ((idx >> layout.flag_qubit) & 1) == 0
    return mask


def success_probability(problem: SearchProblem, state: StateVector) -> float:
    """Probability that measuring the full-register ``state`` finds the key."""
    return float((np.abs(state.amplitudes[_match_mask(problem)]) ** 2).sum())


def slot_amplitudes(problem: SearchProblem, iterations: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window codes, the marked slots (window code == key code) and the
    P slot amplitudes after ``iterations`` Grover iterations, norm-checked.

    With m of the P slots marked and sin^2(theta) = m/P, k iterations leave
    sin((2k+1)theta)/sqrt(m) on each marked slot and cos((2k+1)theta)/sqrt(P-m)
    on each other one (Boyer, Brassard, Hoyer and Tapp 1998), times (-1)^k:
    diffusion as built, V.R0.Vdag = I - 2|psi0><psi0|, is the negative of the
    textbook 2|psi0><psi0| - I. Padding slots are never marked.
    """
    codes = problem.db.codes()
    marked = np.flatnonzero(codes == problem.key_code)
    p, m = problem.db.padded_size, marked.size
    angle = (2 * iterations + 1) * math.asin(math.sqrt(m / p))
    sign = -1.0 if iterations % 2 else 1.0
    amps = np.full(p, sign * math.cos(angle) / math.sqrt(p - m) if m < p else 0.0)
    if m:
        amps[marked] = sign * math.sin(angle) / math.sqrt(m)
    sim.check_norm(amps, f"in the slot amplitudes after {iterations} iterations")
    return codes, marked, amps


def decode_outcome(problem: SearchProblem, bits: str) -> tuple[int, str]:
    """Split a measured full-register bitstring into (index, data bits)."""
    layout = problem.layout
    qi = layout.index_qubits
    index = int(bits[:qi], 2) if qi else 0
    data = bits[qi + layout.flag_qubits:]
    return index, data


def run_search(problem: SearchProblem, iterations: int, shots: int,
               seed: int) -> GroverRun:
    """Take V|0> through ``iterations`` Grover iterations, then sample.

    Shots are drawn over the slots exactly as ``sim.sample`` draws them over
    the full register, where every other basis state has amplitude zero; slot
    j is the basis state (j << low) | code_j, and a padding slot holds window
    0's code plus the flag.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    layout = problem.layout
    _check_capacity(layout)
    codes, marked, amps = slot_amplitudes(problem, iterations)
    p = amps ** 2
    counts = sim.draw_counts(p, seed, shots)
    low = layout.data_qubits + layout.flag_qubits
    pad = int(codes[0]) | 1 << layout.flag_qubit if problem.db.has_padding else 0
    histogram = {
        bitstring(j << low | (int(codes[j]) if j < codes.size else pad),
                  layout.total): c
        for j, c in counts
    }
    matched = {j for j, _ in counts} & set(marked.tolist())
    matches = [
        {"index": i, "window": problem.db.window_string(i)}
        for i in sorted(matched)
    ]
    return GroverRun(
        iterations=iterations,
        p_exact=float(p[marked].sum()),
        histogram=histogram,
        matched_indices=matched,
        matches=matches,
    )


def classical_scan(db: ReadWindowDatabase, key: str,
                   max_mismatches: int = 0) -> set[tuple[int, int]]:
    """Exhaustive Hamming scan over base symbols; the verification baseline."""
    out = set()
    for i in range(db.count):
        window = db.window_string(i)
        mism = sum(a != b for a, b in zip(window, key))
        if mism <= max_mismatches:
            out.add((i, mism))
    return out


def search_unknown_count(problem: SearchProblem, seed: int,
                         shots: int = 64) -> GroverRun | None:
    """Doubling-iteration driver for an unknown number of matching windows.

    Tries k = 1, 2, 4, ... and classically verifies each run's top sampled
    outcome; returns the first run whose top outcome verifies, or None when
    the doubling budget is exhausted (key absent).
    """
    budget = 2 * math.ceil(math.sqrt(problem.db.padded_size)) + 1
    k = 1
    while k <= budget:
        run = run_search(problem, iterations=k, shots=shots, seed=seed + k)
        top = max(run.histogram, key=run.histogram.get)
        index, _ = decode_outcome(problem, top)
        if index < problem.db.count and problem.db.window_string(index) == problem.key:
            return run
        k *= 2
    return None


@dataclass(frozen=True)
class LoadingCostRow:
    genome_length: int
    prep_gates: int
    iter_gates: int
    total_gates: int


@dataclass(frozen=True)
class LoadingCostScan:
    rows: tuple[LoadingCostRow, ...]
    prep_exponent: float
    total_exponent: float

    def to_csv(self) -> str:
        lines = ["N,prep_gates,iter_gates,total_gates"]
        for r in self.rows:
            lines.append(
                f"{r.genome_length},{r.prep_gates},{r.iter_gates},{r.total_gates}"
            )
        return "\n".join(lines) + "\n"


_BASES = np.frombuffer(b"ATGC", "S1")  # a draw in 0..3 picks one, as choice does


def _loglog_exponent(xs: list[int], ys: list[int]) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(xs, float)),
                          np.log(np.asarray(ys, float)), 1)
    return float(slope)


def loading_cost_scan(sizes: list[int], window_length: int,
                      seed: int) -> LoadingCostScan:
    """Gate-count sweep over random genomes, counted by ``circuit_lengths``.

    No circuit is built or run. Total cost assumes a unique key: prep +
    optimal-iterations x per-iteration gates, which grows as N^(3/2) while
    prep alone grows as N. The exponents need two or more distinct sizes.
    """
    if len(set(sizes)) < 2:
        raise ValueError("loading scan needs at least two distinct sizes")
    rng = np.random.default_rng(seed)
    rows = []
    for n in sorted(sizes):
        genome = _BASES[rng.integers(0, 4, size=n)].tobytes().decode()
        db = build_window_db(genome, window_length)
        start = int(rng.integers(0, db.count))
        key = genome[start : start + window_length]
        prep, oracle, diffusion = circuit_lengths(make_problem(db, key))
        per_iter = oracle + diffusion
        k = optimal_iterations(db.count, 1)
        rows.append(LoadingCostRow(n, prep, per_iter, prep + k * per_iter))
    sizes_sorted = [r.genome_length for r in rows]
    return LoadingCostScan(
        rows=tuple(rows),
        prep_exponent=_loglog_exponent(sizes_sorted, [r.prep_gates for r in rows]),
        total_exponent=_loglog_exponent(sizes_sorted, [r.total_gates for r in rows]),
    )
