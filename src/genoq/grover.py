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
``search_unknown_count`` runs BBHT rounds on the same closed form.

Results are plain values: ``prepare_circuits`` returns a (state prep,
oracle, diffusion) tuple, ``loading_cost_scan`` returns (rows, prep
exponent, total exponent), and a ``GroverRun`` holds what the search
found, not its inputs. ``cli`` writes every CSV and JSON from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import CapacityError, ShapeError
from .genome import (
    ReadWindowDatabase,
    RegisterLayout,
    build_window_db,
    encode_window,
    layout_for,
    next_power_of_two,
)
from .sim import Circuit, Gate, bitstring


@dataclass(frozen=True)
class SearchProblem:
    db: ReadWindowDatabase
    layout: RegisterLayout
    key_code: int  # the key's bits as one number, as windows are coded


def _check_slots(windows: int) -> None:
    """CapacityError when ``windows`` windows pad to more slots than
    ``sim.MAX_SLOTS``: a closed-form search holds arrays of one entry per
    slot, however many qubits its register would need."""
    slots = next_power_of_two(windows)
    if slots > sim.MAX_SLOTS:
        raise CapacityError(f"{windows} windows pad to {slots} slots, "
                            f"over the slot cap {sim.MAX_SLOTS}")


def make_problem(db: ReadWindowDatabase, key: str) -> SearchProblem:
    if len(key) != db.window_length:
        raise ShapeError(
            f"key length {len(key)} != window length {db.window_length}"
        )
    _check_slots(db.count)
    layout = layout_for(len(db.genome), db.window_length)
    return SearchProblem(db, layout, int(encode_window(key), 2))


@dataclass
class GroverRun:
    p_exact: float
    histogram: dict[str, int]
    matched_indices: list[int]  # ascending
    top_slot: int  # the most-drawn slot, the lowest on a tie; grover-demo reads it


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


def build_state_prep(db: ReadWindowDatabase) -> Circuit:
    """H layer on the index register, then one MCX per set data bit per slot."""
    layout = layout_for(len(db.genome), db.window_length)
    if layout.total > sim.MAX_QUBITS:
        raise CapacityError(
            f"register needs {layout.total} qubits, ceiling is {sim.MAX_QUBITS}"
        )
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


def prepare_circuits(problem: SearchProblem) -> tuple[Circuit, Circuit, Circuit]:
    """The (state prep, oracle, diffusion) circuits of ``problem``."""
    v = build_state_prep(problem.db)
    return v, build_oracle(problem), build_diffusion(v)


def optimal_iterations(num_windows: int, num_solutions: int) -> int:
    if num_solutions < 1:
        raise ValueError(
            "num_solutions must be >= 1; use search_unknown_count otherwise"
        )
    if num_solutions > num_windows:
        raise ValueError("num_solutions cannot exceed num_windows")
    k = math.floor((math.pi / 4.0) * math.sqrt(num_windows / num_solutions))
    return max(1, k)


def success_probability(problem: SearchProblem, state: np.ndarray) -> float:
    """Probability that measuring the full-register ``state`` finds the key:
    data and flag are the low qubits, so column ``key_code`` of the amplitudes
    in rows of 2^(data + flag) holds every state with data == key, flag unset."""
    layout = problem.layout
    rows = state.reshape(-1, 1 << (layout.data_qubits + layout.flag_qubits))
    return float((np.abs(rows[:, problem.key_code]) ** 2).sum())


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
    codes, marked, amps = slot_amplitudes(problem, iterations)
    p = amps ** 2
    slots, counts = sim.draw_counts(p, seed, shots)
    low = layout.data_qubits + layout.flag_qubits
    pad = int(codes[0]) | 1 << layout.flag_qubit if problem.db.has_padding else 0
    data = np.where(slots < codes.size, codes.take(slots, mode="clip"), pad)
    histogram = {bitstring(j << low | d, layout.total): c
                 for j, d, c in zip(slots.tolist(), data.tolist(), counts.tolist())}
    return GroverRun(
        p_exact=float(p[marked].sum()),
        histogram=histogram,
        matched_indices=np.intersect1d(slots, marked, assume_unique=True).tolist(),
        top_slot=int(slots[np.argmax(counts)]),
    )


def classical_scan(db: ReadWindowDatabase, key: str) -> list[int]:
    """The verification baseline: the ascending indices of the windows equal
    to ``key`` (of the window length), found by repeated ``str.find`` over
    the genome. It reads no window codes, so it checks the marking of
    ``slot_amplitudes`` independently, at any key length."""
    hits = []
    i = db.genome.find(key)
    while i != -1:
        hits.append(i)
        i = db.genome.find(key, i + 1)
    return hits


# Rounds at the sqrt(P) bound before a key is reported absent. By BBHT Lemma 2
# a round with k uniform below M succeeds with chance 1/2 - sin(4M theta) /
# (4M sin 2theta), >= 1/4 once M >= 1/sin 2theta. For 1 <= m <= P-1,
# sin^2 2theta = 4m(P - m)/P^2 >= 1/P as m(P - m) >= P - 1 >= P/4, so
# M = ceil(sqrt(P)) qualifies; m = P always succeeds. A present key is thus
# missed with chance <= (3/4)^49 = 7.6e-7.
UNKNOWN_COUNT_ROUNDS = 49


def search_unknown_count(problem: SearchProblem, seed: int) -> tuple[int, int] | None:
    """BBHT search (arXiv:quant-ph/9605034) on the closed form. Each round
    spends k oracle calls, k uniform below a bound that grows by 6/5 up to
    sqrt(P), and succeeds with chance sin^2((2k+1)theta). Returns (a marked
    slot drawn uniformly, the oracle calls), or None after
    UNKNOWN_COUNT_ROUNDS rounds at the sqrt(P) bound."""
    marked = np.flatnonzero(problem.db.codes() == problem.key_code)
    theta = math.asin(math.sqrt(marked.size / problem.db.padded_size))
    cap = math.sqrt(problem.db.padded_size)
    rng = np.random.default_rng(seed)
    bound, calls, saturated = 1.0, 0, 0
    while saturated < UNKNOWN_COUNT_ROUNDS:
        k = int(rng.integers(math.ceil(bound)))
        calls += k
        if rng.random() < math.sin((2 * k + 1) * theta) ** 2:
            return int(marked[rng.integers(marked.size)]), calls
        saturated += bound == cap
        bound = min(6 / 5 * bound, cap)
    return None


_BASES = np.frombuffer(b"ATGC", "S1")  # a draw in 0..3 picks one, as choice does


def _loglog_exponent(xs: tuple[int, ...], ys: tuple[int, ...]) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(xs, float)),
                          np.log(np.asarray(ys, float)), 1)
    return float(slope)


def loading_cost_scan(sizes: list[int], window_length: int, seed: int
                      ) -> tuple[list[tuple[int, int, int, int]], float, float]:
    """Gate-count sweep over random genomes, counted by ``circuit_lengths``:
    the ascending (N, prep gates, per-iteration gates, total gates) rows,
    then the log-log exponents of prep and of total gates in N.

    No circuit is built or run. Total cost assumes a unique key: prep +
    optimal-iterations x per-iteration gates, which grows as N^(3/2) while
    prep alone grows as N. The exponents need two or more distinct sizes.
    """
    if len(set(sizes)) < 2:
        raise ValueError("loading scan needs at least two distinct sizes")
    for n in sizes:  # before any genome is drawn
        if 1 <= window_length <= n:
            _check_slots(n - window_length + 1)
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
        rows.append((n, prep, per_iter, prep + k * per_iter))
    ns, preps, _, totals = zip(*rows)
    return rows, _loglog_exponent(ns, preps), _loglog_exponent(ns, totals)
