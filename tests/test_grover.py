import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genoq import grover, sim
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
    assert np.allclose(state.amplitudes, expected, atol=1e-10)


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
    probs = np.abs(state.amplitudes) ** 2
    for slot in range(8):
        padding = slot >= 5
        code = db.codes()[0 if padding else slot]
        idx = basis_index(layout, slot, int(code), flag=int(padding))
        assert probs[idx] == pytest.approx(1 / 8)
    assert probs.sum() == pytest.approx(1.0)


def test_state_prep_capacity():
    db = build_window_db("ATGC" * 100, 20)
    with pytest.raises(CapacityError):
        grover.build_state_prep(db)
    with pytest.raises(CapacityError, match="qubits, ceiling is 26"):
        grover.run_search(grover.make_problem(db, "ATGC" * 5), 1, 8, 1)


def test_oracle_marks_only_key():
    problem = toy_problem()
    db = problem.db
    state = prepared_state(db)
    before = state.amplitudes.copy()
    run_circuit(grover.build_oracle(problem), state)
    layout = problem.layout
    flipped = {basis_index(layout, 1, 0)}
    for i in range(16):
        sign = -1 if i in flipped else 1
        assert np.isclose(state.amplitudes[i], sign * before[i])


def test_oracle_involution():
    problem = toy_problem()
    rng = np.random.default_rng(5)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = init_state(4)
    state.amplitudes[:] = amps
    oracle = grover.build_oracle(problem)
    run_circuit(oracle, state)
    run_circuit(oracle, state)
    assert np.allclose(state.amplitudes, amps, atol=1e-12)


def test_oracle_key_absent_is_identity_on_prepared_state():
    db = build_window_db("TTTG", 1)
    problem = grover.make_problem(db, "C")
    state = prepared_state(db)
    before = state.amplitudes.copy()
    run_circuit(grover.build_oracle(problem), state)
    assert np.allclose(state.amplitudes, before, atol=1e-12)


def test_oracle_key_shape_error():
    db = build_window_db("TATG", 2)
    with pytest.raises(ShapeError):
        grover.make_problem(db, "A")


def test_diffusion_fixes_prepared_state():
    db = build_window_db("TATG", 1)
    v = grover.build_state_prep(db)
    state = prepared_state(db)
    before = state.amplitudes.copy()
    run_circuit(grover.build_diffusion(v), state)
    phase = state.amplitudes[np.argmax(np.abs(before))] / before[
        np.argmax(np.abs(before))]
    assert np.isclose(abs(phase), 1.0)
    assert np.allclose(state.amplitudes, phase * before, atol=1e-10)


def test_diffusion_involutive_up_to_global_phase():
    db = build_window_db("TATG", 1)
    diffusion = grover.build_diffusion(grover.build_state_prep(db))
    state = prepared_state(db)
    run_circuit(grover.build_oracle(toy_problem()), state)  # reachable state
    before = state.amplitudes.copy()
    run_circuit(diffusion, state)
    run_circuit(diffusion, state)
    assert np.allclose(state.amplitudes, before, atol=1e-10)


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
    state_a.amplitudes[:] = 0
    for slot, code in enumerate(db.codes().tolist()):
        state_a.amplitudes[basis_index(layout, slot, code)] = alpha[slot]
    state_b = state_a.copy()
    run_circuit(grover.build_diffusion(v), state_a)
    run_circuit(alt, state_b)
    assert np.allclose(state_a.amplitudes, state_b.amplitudes, atol=1e-10)


def test_optimal_iterations():
    assert grover.optimal_iterations(4, 1) == 1
    assert grover.optimal_iterations(1, 1) == 1
    assert grover.optimal_iterations(1024, 1) == 25
    with pytest.raises(ValueError):
        grover.optimal_iterations(4, 0)
    with pytest.raises(ValueError):
        grover.optimal_iterations(4, 5)


def test_run_search_toy():
    run = grover.run_search(toy_problem(), iterations=1, shots=512, seed=3)
    assert run.p_exact >= 0.999
    assert run.matched_indices == {1}
    assert run.matches == [{"index": 1, "window": "A"}]
    assert max(run.histogram, key=run.histogram.get) == "0100"


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
        scan = grover.classical_scan(db, key, 0)
        if len(scan) != 1:
            continue
        problem = grover.make_problem(db, key)
        k = grover.optimal_iterations(db.padded_size, 1)
        run = grover.run_search(problem, iterations=k, shots=256, seed=int(rng.integers(1 << 30)))
        top = max(run.histogram, key=run.histogram.get)
        index, data = grover.decode_outcome(problem, top)
        assert {(index, 0)} == scan


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
    assert run.matched_indices == {0}


def test_classical_scan_examples():
    db = build_window_db("TATG", 1)
    assert grover.classical_scan(db, "A", 0) == {(1, 0)}
    assert grover.classical_scan(db, "G", 1) == {(0, 1), (1, 1), (2, 1), (3, 0)}
    db2 = build_window_db("ATGC", 2)
    assert grover.classical_scan(db2, "AT", 2) == {(0, 0), (1, 2), (2, 2)}


def test_search_unknown_count_repeated_key():
    genome = "ATGATG"
    db = build_window_db(genome, 3)  # ATG appears at 0 and 3
    problem = grover.make_problem(db, "ATG")
    run = grover.search_unknown_count(problem, seed=11)
    assert run is not None
    assert run.matched_indices <= {0, 3}
    assert run.matched_indices


def test_search_unknown_count_absent_key():
    db = build_window_db("AAAA", 2)
    problem = grover.make_problem(db, "CC")
    assert grover.search_unknown_count(problem, seed=4) is None


def test_loading_cost_scan_small():
    scan = grover.loading_cost_scan([64, 128, 256, 512], 2, seed=7)
    assert [r.genome_length for r in scan.rows] == [64, 128, 256, 512]
    assert 0.8 < scan.prep_exponent < 1.2
    assert 1.3 < scan.total_exponent < 1.7
    lines = scan.to_csv().splitlines()
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
    circuits = grover.prepare_circuits(problem)
    gates = init_state(layout.total)
    run_circuit(circuits.state_prep, gates)
    codes = db.codes()
    # Slot j holds window j; a padding slot holds window 0 and sets the flag.
    basis = [basis_index(layout, j, int(codes[j if j < db.count else 0]),
                         flag=int(j >= db.count))
             for j in range(db.padded_size)]
    scan = {i for i, _ in grover.classical_scan(db, key)}
    for k in range(5):
        if k:
            run_circuit(circuits.oracle, gates)
            run_circuit(circuits.diffusion, gates)
        _, marked, amps = grover.slot_amplitudes(problem, k)
        assert set(marked.tolist()) == scan
        # Embedded in the full register, with zeros off the slot span.
        embedded = np.zeros_like(gates.amplitudes)
        embedded[basis] = amps
        assert np.max(np.abs(embedded - gates.amplitudes)) <= 1e-12
        run = grover.run_search(problem, iterations=k, shots=64, seed=seed + k)
        assert run.histogram == sim.sample(gates, seed=seed + k, shots=64)
        assert run.p_exact == pytest.approx(
            grover.success_probability(problem, gates), abs=1e-12)


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
