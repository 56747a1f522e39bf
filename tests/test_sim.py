import numpy as np
import pytest

from genoq.errors import CapacityError, NormalizationError, ShapeError
from genoq.sim import (
    Circuit,
    Gate,
    StateVector,
    apply_gate,
    bitstring,
    draw_counts,
    init_state,
    run_circuit,
    sample,
)

I2 = np.eye(2)
MAT = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}
P = {0: np.array([[1, 0], [0, 0]], dtype=complex),
     1: np.array([[0, 0], [0, 1]], dtype=complex)}


def full_matrix(gate: Gate, n: int) -> np.ndarray:
    """Independent tensor-product construction of the gate unitary."""
    def kron_chain(per_qubit):
        out = np.array([[1.0 + 0j]])
        for q in range(n - 1, -1, -1):  # qubit n-1 is the leftmost factor
            out = np.kron(out, per_qubit[q])
        return out

    ctrl = dict(gate.controls)
    acting = {q: (MAT[gate.kind] if q == gate.target else P[ctrl[q]] if q in ctrl else I2)
              for q in range(n)}
    idle = {q: (I2 if q == gate.target else P[ctrl[q]] if q in ctrl else I2)
            for q in range(n)}
    if not ctrl:
        return kron_chain(acting)
    return kron_chain(acting) + np.eye(1 << n) - kron_chain(idle)


def random_state(n: int, rng) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps.astype(np.complex128))


def uniform_state(n: int) -> StateVector:
    state = init_state(n)
    for q in range(n):
        apply_gate(state, Gate("H", q))
    return state


def test_init_single_qubit():
    state = init_state(1)
    assert np.allclose(state.amplitudes, [1, 0])


def test_init_four_qubits_all_zeros():
    state = init_state(4)
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


@pytest.mark.parametrize("k", range(1, 11))
def test_init_norm_one(k):
    assert init_state(k).norm() == pytest.approx(1.0, abs=1e-12)


def test_init_capacity_error():
    with pytest.raises(CapacityError):
        init_state(0)
    with pytest.raises(CapacityError):
        init_state(27)


def test_h_on_zero():
    state = apply_gate(init_state(1), Gate("H", 0))
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_x_involution_on_random_state():
    rng = np.random.default_rng(11)
    state = random_state(3, rng)
    before = state.amplitudes.copy()
    for _ in range(2):
        apply_gate(state, Gate("X", 1))
    assert np.allclose(state.amplitudes, before, atol=1e-12)


def test_cz00_flips_only_all_zeros():
    # Z on q0 conditioned on q2=0, q1=0 sends |000> to -|000>.
    state = uniform_state(3)
    before = state.amplitudes.copy()
    apply_gate(state, Gate("X", 0))
    apply_gate(state, Gate("Z", 0, ((2, 0), (1, 0))))
    apply_gate(state, Gate("X", 0))
    after = state.amplitudes
    assert np.isclose(after[0], -before[0])
    assert np.allclose(after[1:], before[1:])


def test_invalid_qubit_index():
    with pytest.raises(IndexError):
        apply_gate(init_state(2), Gate("X", 2))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("X", 0, ((0, 1),))  # target in controls
    with pytest.raises(ValueError):
        Gate("Y", 0)
    with pytest.raises(ValueError):
        Gate("X", 0, ((1, 2),))


def test_run_circuit_empty_is_identity():
    rng = np.random.default_rng(3)
    state = random_state(2, rng)
    before = state.amplitudes.copy()
    run_circuit(Circuit(2), state)
    assert np.array_equal(state.amplitudes, before)


def test_run_circuit_shape_error():
    with pytest.raises(ShapeError):
        run_circuit(Circuit(3), init_state(2))


def test_parity_circuit_negates_odd_bitstrings():
    # CNOT ladder into q0, Z, uncompute: sign flip on odd-parity strings.
    ladder = [Gate("X", 1, ((2, 1),)), Gate("X", 0, ((1, 1),))]
    circuit = Circuit(3, tuple(ladder + [Gate("Z", 0)] + ladder[::-1]))
    state = uniform_state(3)
    before = state.amplitudes.copy()
    run_circuit(circuit, state)
    for i in range(8):
        sign = -1 if bin(i).count("1") % 2 else 1
        assert np.isclose(state.amplitudes[i], sign * before[i])


def test_mark_all_zeros_circuit():
    xs = [Gate("X", q) for q in range(3)]
    circuit = Circuit(3, tuple(xs + [Gate("Z", 0, ((2, 1), (1, 1)))] + xs))
    state = uniform_state(3)
    before = state.amplitudes.copy()
    run_circuit(circuit, state)
    assert np.isclose(state.amplitudes[0], -before[0])
    assert np.allclose(state.amplitudes[1:], before[1:])


def test_sample_deterministic_state():
    counts = sample(init_state(3), seed=5, shots=100)
    assert counts == {"000": 100}


def test_sample_frequencies_converge():
    counts = sample(uniform_state(2), seed=42, shots=100_000)
    assert sum(counts.values()) == 100_000
    for c in counts.values():
        assert abs(c / 100_000 - 0.25) < 0.01  # ~5 sigma binomial bound


def test_sample_seed_reproducibility():
    state = uniform_state(3)
    assert sample(state, seed=9, shots=500) == sample(state, seed=9, shots=500)


def test_sample_zero_shots_rejected():
    with pytest.raises(ValueError):
        sample(init_state(1), seed=0, shots=0)


def test_draw_counts_ignores_zero_weight_outcomes():
    # Dropping the zero weights renumbers the outcomes, but draws the same ones.
    rng = np.random.default_rng(29)
    for seed in range(20):
        p = rng.random(64) * (rng.random(64) < 0.3)
        p[int(rng.integers(64))] = 0.5
        kept = np.flatnonzero(p)
        full = draw_counts(p, seed=seed, shots=200)
        assert [(int(kept[i]), c) for i, c in draw_counts(p[kept], seed, 200)] == full


def test_dump_format():
    gates = (Gate("H", 3), Gate("X", 0, ((3, 0), (2, 1))))
    assert Circuit(4, gates).dump() == "H 3\nCX 0 q3=0,q2=1"


def test_unitarity_all_kinds():
    rng = np.random.default_rng(17)
    gates = [Gate("X", 0), Gate("Z", 2), Gate("H", 1),
             Gate("X", 1, ((0, 1), (3, 0))), Gate("Z", 3, ((1, 0),))]
    for gate in gates:
        for _ in range(200):
            state = random_state(4, rng)
            apply_gate(state, gate)
            assert abs(state.norm() - 1.0) < 1e-10


def test_involutions():
    rng = np.random.default_rng(23)
    for kind in ("X", "Z", "H"):
        state = random_state(3, rng)
        before = state.amplitudes.copy()
        apply_gate(state, Gate(kind, 2))
        apply_gate(state, Gate(kind, 2))
        assert np.allclose(state.amplitudes, before, atol=1e-12)


def test_linearity():
    rng = np.random.default_rng(31)
    gate = Gate("H", 1, ((2, 1),))
    psi1, psi2 = random_state(3, rng), random_state(3, rng)
    a, b = 0.3 - 0.4j, 0.8 + 0.1j
    combo = StateVector(3, a * psi1.amplitudes + b * psi2.amplitudes)
    combo.amplitudes /= np.linalg.norm(combo.amplitudes)
    scale = np.linalg.norm(a * psi1.amplitudes + b * psi2.amplitudes)
    apply_gate(psi1, gate)
    apply_gate(psi2, gate)
    apply_gate(combo, gate)
    expected = (a * psi1.amplitudes + b * psi2.amplitudes) / scale
    assert np.allclose(combo.amplitudes, expected, atol=1e-12)


@pytest.mark.parametrize("gate", [
    Gate("X", 0),
    Gate("H", 2),
    Gate("Z", 1),
    Gate("X", 3, ((0, 0), (1, 1), (2, 0))),
    Gate("Z", 0, ((3, 1), (2, 0), (1, 1))),
    Gate("H", 1, ((0, 0),)),
])
def test_matrix_oracle_equivalence(gate):
    rng = np.random.default_rng(47)
    for n in range(max(gate.max_qubit() + 1, 2), 5):
        state = random_state(n, rng)
        expected = full_matrix(gate, n) @ state.amplitudes
        apply_gate(state, gate)
        assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_control_semantics_exact_identity_off_subspace():
    gate = Gate("X", 0, ((2, 1), (1, 0)))
    for basis in range(8):
        if (basis >> 2) & 1 == 1 and (basis >> 1) & 1 == 0:
            continue  # control string matches; gate acts
        state = init_state(3)
        state.amplitudes[0] = 0
        state.amplitudes[basis] = 1
        before = state.amplitudes.copy()
        apply_gate(state, gate)
        assert np.array_equal(state.amplitudes, before)


def test_norm_drift_detected():
    state = init_state(2)
    state.amplitudes[0] = 2.0  # corrupt the norm deliberately
    with pytest.raises(NormalizationError):
        apply_gate(state, Gate("X", 0))


def test_bitstring_convention():
    # Qubit 0 is the rightmost printed bit.
    assert bitstring(1, 4) == "0001"
    assert bitstring(8, 4) == "1000"
