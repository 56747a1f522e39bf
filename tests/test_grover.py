import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genoq import grover, sim
from genoq.cli import main
from genoq.errors import CapacityError, NormalizationError, ShapeError
from genoq.genome import build_window_db, layout_for
from genoq.sim import Circuit, Gate, init_state, run_circuit


def toy_problem():
    return grover.make_problem(build_window_db("TATG", 1), "A")


def db_layout(db):
    return layout_for(len(db.genome), db.window_length)


def prepared_state(db):
    state = init_state(db_layout(db).total)
    run_circuit(grover.build_state_prep(db), state)
    return state


def basis_index(layout, slot, code, flag=0):
    value = code
    if layout.flag_qubits:
        value |= flag << layout.flag_qubit
    return (slot << (layout.data_qubits + layout.flag_qubits)) | value


def test_state_prep_entangles_index_and_data():
    db = build_window_db("TATG", 1)
    layout = db_layout(db)
    state = prepared_state(db)
    expected = np.zeros(16)
    for slot, code in enumerate(db.codes().tolist()):
        expected[basis_index(layout, slot, code)] = 0.5
    assert np.allclose(state, expected, atol=1e-10)


def test_state_prep_toy_gate_structure():
    # {T,A,T,G}: flips at indices 00, 10, 11 only; A contributes none.
    v = grover.build_state_prep(build_window_db("TATG", 1))
    mcx = [g for g in v.gates if g.kind == "X"]
    assert len(mcx) == 3
    controlled_strings = {tuple(sorted(g.controls)) for g in mcx}
    assert ((2, 0), (3, 0)) in controlled_strings  # index 0
    assert ((2, 0), (3, 1)) in controlled_strings  # index 2
    assert ((2, 1), (3, 1)) in controlled_strings  # index 3


def test_state_prep_all_a_genome_has_no_flips():
    v = grover.build_state_prep(build_window_db("A" * 8, 1))
    assert all(g.kind == "H" for g in v.gates)


def test_state_prep_padding_flag():
    db = build_window_db("TATGA", 1)  # 5 windows, padded to 8
    layout = db_layout(db)
    assert layout.flag_qubits == 1
    state = prepared_state(db)
    probs = np.abs(state) ** 2
    for slot in range(8):
        padding = slot >= 5
        code = db.codes()[0 if padding else slot]
        idx = basis_index(layout, slot, int(code), flag=int(padding))
        assert probs[idx] == pytest.approx(1 / 8)
    assert probs.sum() == pytest.approx(1.0)


def test_state_prep_capacity():
    # 381 windows of 20 bases need 49 qubits: too many for the gate-level
    # state prep, while the closed form searches the 512 slots.
    db = build_window_db("ATGC" * 100, 20)
    with pytest.raises(CapacityError, match="qubits, ceiling is 26"):
        grover.build_state_prep(db)
    run = grover.run_search(grover.make_problem(db, "ATGC" * 5), 1, 8, 1)
    theta = math.asin(math.sqrt(96 / 512))
    assert run.p_exact == pytest.approx(math.sin(3 * theta) ** 2, abs=1e-12)
    assert sum(run.histogram.values()) == 8


def test_oracle_marks_only_key():
    problem = toy_problem()
    db = problem.db
    state = prepared_state(db)
    before = state.copy()
    run_circuit(grover.build_oracle(problem), state)
    layout = problem.layout
    flipped = {basis_index(layout, 1, 0)}
    for i in range(16):
        sign = -1 if i in flipped else 1
        assert np.isclose(state[i], sign * before[i])


def test_oracle_involution():
    problem = toy_problem()
    rng = np.random.default_rng(5)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = init_state(4)
    state[:] = amps
    oracle = grover.build_oracle(problem)
    run_circuit(oracle, state)
    run_circuit(oracle, state)
    assert np.allclose(state, amps, atol=1e-12)


def test_oracle_key_absent_is_identity_on_prepared_state():
    db = build_window_db("TTTG", 1)
    problem = grover.make_problem(db, "C")
    state = prepared_state(db)
    before = state.copy()
    run_circuit(grover.build_oracle(problem), state)
    assert np.allclose(state, before, atol=1e-12)


def test_oracle_key_shape_error():
    db = build_window_db("TATG", 2)
    with pytest.raises(ShapeError):
        grover.make_problem(db, "A")


def test_diffusion_fixes_prepared_state():
    db = build_window_db("TATG", 1)
    v = grover.build_state_prep(db)
    state = prepared_state(db)
    before = state.copy()
    run_circuit(grover.build_diffusion(v), state)
    phase = state[np.argmax(np.abs(before))] / before[
        np.argmax(np.abs(before))]
    assert np.isclose(abs(phase), 1.0)
    assert np.allclose(state, phase * before, atol=1e-10)


def test_diffusion_involutive_up_to_global_phase():
    db = build_window_db("TATG", 1)
    diffusion = grover.build_diffusion(grover.build_state_prep(db))
    state = prepared_state(db)
    run_circuit(grover.build_oracle(toy_problem()), state)  # reachable state
    before = state.copy()
    run_circuit(diffusion, state)
    run_circuit(diffusion, state)
    assert np.allclose(state, before, atol=1e-10)


def test_full_register_reflection_matches_index_reflection_on_reachable():
    # The index-register reflection and the full-register one agree on the
    # subspace V |index basis>|0...0>, exercised here at toy size.
    db = build_window_db("TATG", 1)
    layout = db_layout(db)
    v = grover.build_state_prep(db)
    idx_qubits = [layout.index_qubit(j) for j in range(layout.index_qubits)]
    xs = [Gate("X", q) for q in idx_qubits]
    r0_index = Circuit(layout.total, tuple(
        xs + [Gate("Z", idx_qubits[0],
                   tuple((q, 1) for q in idx_qubits[1:]))] + xs))
    vdag = Circuit(layout.total, tuple(reversed(v.gates)))
    alt = Circuit(layout.total, vdag.gates + r0_index.gates + v.gates)
    rng = np.random.default_rng(9)
    alpha = rng.normal(size=4) + 1j * rng.normal(size=4)
    alpha /= np.linalg.norm(alpha)
    state_a = init_state(layout.total)
    state_a[:] = 0
    for slot, code in enumerate(db.codes().tolist()):
        state_a[basis_index(layout, slot, code)] = alpha[slot]
    state_b = state_a.copy()
    run_circuit(grover.build_diffusion(v), state_a)
    run_circuit(alt, state_b)
    assert np.allclose(state_a, state_b, atol=1e-10)


def test_optimal_iterations():
    assert grover.optimal_iterations(4, 1) == 1
    assert grover.optimal_iterations(1, 1) == 1
    assert grover.optimal_iterations(1024, 1) == 25
    with pytest.raises(ValueError):
        grover.optimal_iterations(4, 0)
    with pytest.raises(ValueError):
        grover.optimal_iterations(4, 5)


def test_run_search_toy():
    problem = toy_problem()
    run = grover.run_search(problem, iterations=1, shots=512, seed=3)
    assert run.p_exact >= 0.999
    assert run.matched_indices == [1]
    assert [problem.db.window_string(i) for i in run.matched_indices] == ["A"]
    assert max(run.histogram, key=run.histogram.get) == "0100"


def decoded_top_slot(problem, histogram):
    """The index bits of the first most-drawn bitstring, parsed back."""
    top = max(histogram, key=histogram.get)
    qi = problem.layout.index_qubits
    return int(top[:qi], 2) if qi else 0


def test_top_slot_is_the_lowest_of_tied_slots():
    run = grover.run_search(toy_problem(), iterations=0, shots=4, seed=8)
    assert run.histogram == {"0100": 2, "1110": 2}
    assert run.top_slot == 1 == decoded_top_slot(toy_problem(), run.histogram)


def test_run_search_zero_iterations_uniform():
    run = grover.run_search(toy_problem(), iterations=0, shots=64, seed=3)
    assert run.p_exact == pytest.approx(0.25)


def test_run_search_matches_classical_scan():
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(8, 65))
        m = int(rng.integers(1, 5))
        genome = "".join(rng.choice(list("ATGC"), size=n))
        db = build_window_db(genome, m)
        start = int(rng.integers(0, db.count))
        key = genome[start : start + m]
        scan = grover.classical_scan(db, key)
        if len(scan) != 1:
            continue
        problem = grover.make_problem(db, key)
        k = grover.optimal_iterations(db.padded_size, 1)
        run = grover.run_search(problem, iterations=k, shots=256, seed=int(rng.integers(1 << 30)))
        assert [run.top_slot] == scan


def test_success_probability_closed_form_small():
    # s matches among n windows, no padding: p_k = sin^2((2k+1) asin(sqrt(s/n)))
    for n, s in [(4, 1), (8, 3), (16, 16)]:
        genome = "A" * s + "T" * (n - s)
        db = build_window_db(genome, 1)
        problem = grover.make_problem(db, "A")
        theta = math.asin(math.sqrt(s / n))
        for k in range(4):
            run = grover.run_search(problem, iterations=k, shots=8, seed=1)
            assert run.p_exact == pytest.approx(
                math.sin((2 * k + 1) * theta) ** 2, abs=1e-9)


def test_single_window_database():
    db = build_window_db("AT", 2)
    problem = grover.make_problem(db, "AT")
    run = grover.run_search(problem, iterations=1, shots=16, seed=2)
    assert run.p_exact == pytest.approx(1.0)
    assert run.matched_indices == [0]


def test_classical_scan_examples():
    db = build_window_db("TATG", 1)
    assert grover.classical_scan(db, "A") == [1]


@settings(max_examples=200, deadline=None)
@given(st.text("ACGT", min_size=1, max_size=80).flatmap(
    lambda genome: st.tuples(st.just(genome), st.one_of(
        st.integers(0, len(genome) - 1).flatmap(lambda i: st.integers(
            i + 1, len(genome)).map(lambda j: genome[i:j])),
        st.text("ACGT", min_size=1, max_size=len(genome))))))
@example(("AAAA", "AA"))  # overlapping repeats
@example(("ACGTACGT", "TT"))  # absent
@example(("AC" * 40, "AC" * 16))  # 32 bases: past the int64 codes
@example(("A" * 33, "A" * 32))
def test_classical_scan_equals_window_compare(case):
    genome, key = case
    db = build_window_db(genome, len(key))
    assert grover.classical_scan(db, key) == [
        i for i in range(db.count) if db.window_string(i) == key]


def test_loading_cost_scan_small(capsys):
    rows, prep_exponent, total_exponent = grover.loading_cost_scan(
        [64, 128, 256, 512], 2, seed=7)
    assert [r[0] for r in rows] == [64, 128, 256, 512]
    assert 0.8 < prep_exponent < 1.2
    assert 1.3 < total_exponent < 1.7
    assert main(["loading-scan", "--sizes", "64,128,256,512", "--window", "2",
                 "--seed", "7", "--no-timestamp"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "N,prep_gates,iter_gates,total_gates"
    assert len(lines) == 5


@pytest.mark.parametrize("n", [1, 2, 5, 64, 4096])
def test_loading_scan_genome_draw_equals_choice(n):
    # The scan gathers bases by byte; choice over the letters gives the same
    # genome and leaves the generator in the same state.
    for seed in range(21):
        gather, choice = np.random.default_rng(seed), np.random.default_rng(seed)
        genome = grover._BASES[gather.integers(0, 4, size=n)].tobytes().decode()
        assert genome == "".join(choice.choice(list("ATGC"), size=n))
        assert gather.integers(0, 2**63) == choice.integers(0, 2**63)


def test_loading_cost_all_a_genome_constant_prep():
    # Degenerate data: the state-prep circuit is just the H layer.
    for n in (64, 256):
        db = build_window_db("A" * n, 2)
        v = grover.build_state_prep(db)
        layout = db_layout(db)
        # padding slots still copy window 0 (all zero bits) but set the flag
        flips = [g for g in v.gates if g.kind == "X" and g.target != layout.flag_qubit]
        assert not flips


def test_state_prep_toy_gate_totals():
    # {T,A,T,G} loads with 3 multicontrolled-X and 2 H gates.
    v = grover.build_state_prep(build_window_db("TATG", 1))
    assert Counter(g.label for g in v.gates) == {"H": 2, "CX": 3}


@st.composite
def search_problems(draw):
    """A random genome and a key that is one of its windows or any string."""
    genome = draw(st.text(alphabet="ATGC", min_size=1, max_size=40))
    m = draw(st.integers(1, min(3, len(genome))))
    if draw(st.booleans()):
        start = draw(st.integers(0, len(genome) - m))
        key = genome[start : start + m]
    else:
        key = draw(st.text(alphabet="ATGC", min_size=m, max_size=m))
    return genome, key


@settings(max_examples=40, deadline=None)
@given(search_problems(), st.integers(0, 2**31))
@example(("ATGATGA", "ATG"), 1)  # padded (flag qubit), repeated key
@example(("TATGA", "C"), 2)  # padded, absent key
@example(("ATGC", "G"), 3)  # unpadded, unique key
@example(("A", "A"), 4)  # single window, no index qubits
@example(("AAAA", "A"), 5)  # every slot marked: P = m = 4
def test_slot_evolution_matches_gate_circuits(case, seed):
    genome, key = case
    problem = grover.make_problem(build_window_db(genome, len(key)), key)
    db, layout = problem.db, problem.layout
    state_prep, oracle, diffusion = grover.prepare_circuits(problem)
    gates = init_state(layout.total)
    run_circuit(state_prep, gates)
    codes = db.codes()
    # Slot j holds window j; a padding slot holds window 0 and sets the flag.
    basis = [basis_index(layout, j, int(codes[j if j < db.count else 0]),
                         flag=int(j >= db.count))
             for j in range(db.padded_size)]
    scan = grover.classical_scan(db, key)
    for k in range(5):
        if k:
            run_circuit(oracle, gates)
            run_circuit(diffusion, gates)
        _, marked, amps = grover.slot_amplitudes(problem, k)
        assert marked.tolist() == scan
        # Embedded in the full register, with zeros off the slot span.
        embedded = np.zeros_like(gates)
        embedded[basis] = amps
        assert np.max(np.abs(embedded - gates)) <= 1e-12
        run = grover.run_search(problem, iterations=k, shots=64, seed=seed + k)
        assert run.histogram == sim.sample(gates, seed=seed + k, shots=64)
        assert run.p_exact == pytest.approx(
            grover.success_probability(problem, gates), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(search_problems(), st.integers(0, 4), st.integers(1, 64),
       st.integers(0, 2**31))
@example(("A", "A"), 1, 8, 1)  # single window, no index qubits
@example(("TATGA", "C"), 0, 64, 2)  # padded: padding slots can be drawn
def test_top_slot_equals_decoded_top_outcome(case, iterations, shots, seed):
    genome, key = case
    problem = grover.make_problem(build_window_db(genome, len(key)), key)
    run = grover.run_search(problem, iterations, shots, seed)
    assert run.top_slot == decoded_top_slot(problem, run.histogram)


@settings(max_examples=60, deadline=None)
@given(search_problems())
@example(("ATGATGA", "ATG"))  # padded (flag qubit), repeated key
@example(("TATGA", "C"))  # padded, absent key
@example(("CCCCC", "GG"))  # unpadded, absent key
@example(("ATGC", "G"))  # unpadded, unique key
@example(("A", "A"))  # single window, no index qubits
@example(("GATTC", "GATTC"))  # the window is the whole genome: count = 1
@example(("CTGCA", "TGCA"))  # M = 4 slices of count = 2 bases each
def test_circuit_lengths_match_built_circuits(case):
    genome, key = case
    problem = grover.make_problem(build_window_db(genome, len(key)), key)
    v = grover.build_state_prep(problem.db)
    assert grover.circuit_lengths(problem) == (
        len(v), len(grover.build_oracle(problem)), len(grover.build_diffusion(v)))


def test_search_unknown_count_repeated_key():
    genome = "ATGATG"
    db = build_window_db(genome, 3)  # ATG appears at 0 and 3
    problem = grover.make_problem(db, "ATG")
    found = grover.search_unknown_count(problem, seed=11)
    assert found is not None
    slot, calls = found
    assert slot in (0, 3)
    assert calls >= 0


def test_search_unknown_count_absent_key():
    db = build_window_db("AAAA", 2)
    problem = grover.make_problem(db, "CC")
    assert grover.search_unknown_count(problem, seed=4) is None


@settings(max_examples=100, deadline=None)
@given(search_problems(), st.integers(0, 2**31))
@example(("A", "C"), 1)  # P = 1 and absent: every k is 0, the rounds still end
@example(("A", "A"), 2)  # P = m = 1
@example(("AAAA", "AA"), 3)  # every window is marked
@example(("GATTACA", "GAT"), 4)  # padded
@example(("TATGA", "C"), 5)  # padded and absent
def test_search_unknown_count_finds_a_match_or_none(case, seed):
    genome, key = case
    db = build_window_db(genome, len(key))
    problem = grover.make_problem(db, key)
    scan = grover.classical_scan(db, key)
    found = grover.search_unknown_count(problem, seed)
    assert (found is None) == (not scan)
    if found is not None:
        slot, calls = found
        assert slot in scan
        assert calls >= 0
    assert grover.search_unknown_count(problem, seed) == found


def bbht_round_success(m, p, bound):
    """BBHT Lemma 2: the chance that a round with k uniform below ``bound``
    finds one of m marked slots among p; every round succeeds when m = p."""
    if m == p:
        return 1.0
    theta = math.asin(math.sqrt(m / p))
    return 0.5 - math.sin(4 * bound * theta) / (4 * bound * math.sin(2 * theta))


def bbht_expected_calls(m, p):
    """Sum over rounds r of S_r (ceil(M_r) - 1) / 2, with S_r the chance of
    reaching round r and M_r its bound, up to the round budget."""
    cap, bound, reach, total, saturated = math.sqrt(p), 1.0, 1.0, 0.0, 0
    while saturated < grover.UNKNOWN_COUNT_ROUNDS:
        total += reach * (math.ceil(bound) - 1) / 2
        reach *= 1 - bbht_round_success(m, p, math.ceil(bound))
        saturated += bound == cap
        bound = min(6 / 5 * bound, cap)
    return total


@pytest.mark.parametrize("p, expected", [(2**6, 5.80), (2**8, 15.52), (2**10, 37.09)])
def test_search_unknown_count_oracle_calls_match_lemma_2(p, expected):
    exact = bbht_expected_calls(1, p)
    assert exact == pytest.approx(expected, abs=0.005)
    problem = grover.make_problem(build_window_db("A" * (p - 1) + "C", 1), "C")
    runs = [grover.search_unknown_count(problem, seed) for seed in range(2000)]
    assert {slot for slot, _ in runs} == {p - 1}
    calls = np.array([c for _, c in runs], float)
    stderr = calls.std(ddof=1) / math.sqrt(calls.size)
    assert abs(calls.mean() - exact) <= 5 * stderr


def test_search_unknown_count_round_budget_premise():
    # At the saturated bound ceil(sqrt(P)) a round succeeds with chance >= 1/4
    # for every m >= 1, so the budget misses a present key with chance < 1e-6.
    for p in (2**n for n in range(11)):
        bound = math.ceil(math.sqrt(p))
        for m in range(1, p + 1):
            assert bbht_round_success(m, p, bound) >= 0.25, (m, p)
    assert 0.75 ** grover.UNKNOWN_COUNT_ROUNDS < 1e-6


def test_slot_evolution_detects_norm_drift(monkeypatch):
    sin = math.sin
    monkeypatch.setattr(grover.math, "sin", lambda x: 1.01 * sin(x))
    with pytest.raises(NormalizationError,
                       match="in the slot amplitudes after 1 iterations"):
        grover.slot_amplitudes(toy_problem(), 1)


@pytest.mark.parametrize("genome, m, qubits", [
    ("".join(np.random.default_rng(8).choice(list("ATGC"), size=300)), 3, 16),
    ("ATGCATGCATGCATG", 8, 19),  # the bench's widest-data search shape
], ids=["16-qubits", "19-qubits-wide-data"])
def test_slot_search_memory_ignores_data_width(genome, m, qubits):
    # The closed form holds a few P-vectors; a 2^n statevector never exists.
    problem = grover.make_problem(build_window_db(genome, m), genome[:m])
    tracemalloc.start()
    try:
        grover.slot_amplitudes(problem, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problem.layout.total == qubits
    assert peak <= (16 << qubits) // 32
