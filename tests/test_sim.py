import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genoq.errors import CapacityError, NormalizationError
from genoq.sim import (
    GATE_KINDS,
    Circuit,
    Gate,
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


def random_state(n: int, rng) -> np.ndarray:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return amps.astype(np.complex128)


def uniform_state(n: int) -> np.ndarray:
    state = init_state(n)
    for q in range(n):
        apply_gate(state, Gate("H", q))
    return state


def test_init_single_qubit():
    state = init_state(1)
    assert np.allclose(state, [1, 0])


def test_init_four_qubits_all_zeros():
    state = init_state(4)
    assert state[0] == 1.0
    assert np.count_nonzero(state) == 1


@pytest.mark.parametrize("k", range(1, 11))
def test_init_norm_one(k):
    assert np.linalg.norm(init_state(k)) == pytest.approx(1.0, abs=1e-12)


def test_init_capacity_error():
    with pytest.raises(CapacityError):
        init_state(0)
    with pytest.raises(CapacityError):
        init_state(27)


def test_h_on_zero():
    state = apply_gate(init_state(1), Gate("H", 0))
    assert np.allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_x_involution_on_random_state():
    rng = np.random.default_rng(11)
    state = random_state(3, rng)
    before = state.copy()
    for _ in range(2):
        apply_gate(state, Gate("X", 1))
    assert np.allclose(state, before, atol=1e-12)


def test_cz00_flips_only_all_zeros():
    # Z on q0 conditioned on q2=0, q1=0 sends |000> to -|000>.
    state = uniform_state(3)
    before = state.copy()
    apply_gate(state, Gate("X", 0))
    apply_gate(state, Gate("Z", 0, ((2, 0), (1, 0))))
    apply_gate(state, Gate("X", 0))
    after = state
    assert np.isclose(after[0], -before[0])
    assert np.allclose(after[1:], before[1:])


def test_invalid_qubit_index():
    with pytest.raises(IndexError):
        apply_gate(init_state(2), Gate("X", 2))
    with pytest.raises(IndexError, match="touches qubit 2 but circuit has 2 qubits"):
        Circuit(2, (Gate("X", 0, ((2, 1),)),))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("X", 0, ((0, 1),))  # target in controls
    with pytest.raises(ValueError):
        Gate("Y", 0)
    with pytest.raises(ValueError):
        Gate("X", 0, ((1, 2),))
    with pytest.raises(ValueError):
        Gate("X", 0, ((-1, 1),))  # would select the trailing axis of the view
    with pytest.raises(ValueError, match="target qubit index must be non-negative"):
        Gate("X", -1)
    with pytest.raises(ValueError, match="duplicate control qubit 1"):
        Gate("X", 0, ((1, 1), (1, 0)))


def test_run_circuit_empty_is_identity():
    rng = np.random.default_rng(3)
    state = random_state(2, rng)
    before = state.copy()
    run_circuit(Circuit(2), state)
    assert np.array_equal(state, before)


def test_run_circuit_shape_error():
    with pytest.raises(ValueError, match="circuit has 3 qubits, state has 2"):
        run_circuit(Circuit(3), init_state(2))
    state = init_state(2)
    with pytest.raises(ValueError, match="circuit has 1 qubits, state has 2"):
        run_circuit(Circuit(1, (Gate("H", 0),)), state)
    assert state[0] == 1.0


def test_parity_circuit_negates_odd_bitstrings():
    # CNOT ladder into q0, Z, uncompute: sign flip on odd-parity strings.
    ladder = [Gate("X", 1, ((2, 1),)), Gate("X", 0, ((1, 1),))]
    circuit = Circuit(3, tuple(ladder + [Gate("Z", 0)] + ladder[::-1]))
    state = uniform_state(3)
    before = state.copy()
    run_circuit(circuit, state)
    for i in range(8):
        sign = -1 if bin(i).count("1") % 2 else 1
        assert np.isclose(state[i], sign * before[i])


def test_mark_all_zeros_circuit():
    xs = [Gate("X", q) for q in range(3)]
    circuit = Circuit(3, tuple(xs + [Gate("Z", 0, ((2, 1), (1, 1)))] + xs))
    state = uniform_state(3)
    before = state.copy()
    run_circuit(circuit, state)
    assert np.isclose(state[0], -before[0])
    assert np.allclose(state[1:], before[1:])


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
        outcomes, counts = draw_counts(p, seed=seed, shots=200)
        kept_outcomes, kept_counts = draw_counts(p[kept], seed, 200)
        assert kept[kept_outcomes].tolist() == outcomes.tolist()
        assert kept_counts.tolist() == counts.tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, allow_subnormal=False),
                min_size=1, max_size=40).filter(any),
       st.integers(0, 2**32 - 1), st.integers(1, 3000))
@example([1.0], 0, 1)  # a single outcome, one shot
@example([0.0, 0.0, 0.3, 0.0], 3, 100)  # a single outcome among zero weights
@example([0.25] * 4 + [0.0] * 4, 7, 100_000)  # many shots
def test_draw_counts_equals_counter_reference(weights, seed, shots):
    # The Counter over every drawn outcome, as sorted (outcome, count) pairs.
    p = np.array(weights)
    draws = np.random.default_rng(seed).choice(p.size, size=shots, p=p / p.sum())
    outcomes, counts = draw_counts(p, seed, shots)
    assert (list(zip(outcomes.tolist(), counts.tolist()))
            == sorted(Counter(draws.tolist()).items()))


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
            assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_involutions():
    rng = np.random.default_rng(23)
    for kind in ("X", "Z", "H"):
        state = random_state(3, rng)
        before = state.copy()
        apply_gate(state, Gate(kind, 2))
        apply_gate(state, Gate(kind, 2))
        assert np.allclose(state, before, atol=1e-12)


def test_linearity():
    rng = np.random.default_rng(31)
    gate = Gate("H", 1, ((2, 1),))
    psi1, psi2 = random_state(3, rng), random_state(3, rng)
    a, b = 0.3 - 0.4j, 0.8 + 0.1j
    combo = a * psi1 + b * psi2
    combo /= np.linalg.norm(combo)
    scale = np.linalg.norm(a * psi1 + b * psi2)
    apply_gate(psi1, gate)
    apply_gate(psi2, gate)
    apply_gate(combo, gate)
    expected = (a * psi1 + b * psi2) / scale
    assert np.allclose(combo, expected, atol=1e-12)


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
        expected = full_matrix(gate, n) @ state
        apply_gate(state, gate)
        assert np.allclose(state, expected, atol=1e-12)


def test_control_semantics_exact_identity_off_subspace():
    gate = Gate("X", 0, ((2, 1), (1, 0)))
    for basis in range(8):
        if (basis >> 2) & 1 == 1 and (basis >> 1) & 1 == 0:
            continue  # control string matches; gate acts
        state = init_state(3)
        state[0] = 0
        state[basis] = 1
        before = state.copy()
        apply_gate(state, gate)
        assert np.array_equal(state, before)


def test_norm_drift_detected():
    state = init_state(2)
    state[0] = 2.0  # corrupt the norm deliberately
    with pytest.raises(NormalizationError):
        apply_gate(state, Gate("X", 0))


def test_bitstring_convention():
    # Qubit 0 is the rightmost printed bit.
    assert bitstring(1, 4) == "0001"
    assert bitstring(8, 4) == "1000"


def index_kernel(amps: np.ndarray, n: int, gate: Gate) -> None:
    """The earlier gate kernel, on index arrays and a control mask: the
    bit-level reference for ``apply_gate``'s strided views."""
    half = np.arange(1 << (n - 1), dtype=np.int64)
    low = half & ((1 << gate.target) - 1)
    i0 = ((half >> gate.target) << (gate.target + 1)) | low
    i1 = i0 | (1 << gate.target)
    mask = np.ones(i0.shape, dtype=bool)
    for q, b in gate.controls:
        mask &= ((i0 >> q) & 1) == b
    i0, i1 = i0[mask], i1[mask]
    if gate.kind == "X":
        tmp = amps[i0].copy()
        amps[i0] = amps[i1]
        amps[i1] = tmp
    elif gate.kind == "Z":
        amps[i1] = -amps[i1]
    else:
        a = amps[i0].copy()
        b = amps[i1].copy()
        amps[i0] = (a + b) * (1.0 / np.sqrt(2.0))
        amps[i1] = (a - b) * (1.0 / np.sqrt(2.0))


# Both zeros and subnormals, so that a kernel which rounds or signs a zero
# differently shows in the bits.
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308]


@st.composite
def gates_on_states(draw):
    """A gate of any kind, target and controls (every other qubit, or any
    subset) on an n <= 7 qubit state with some zero and subnormal parts."""
    n = draw(st.integers(1, 7))
    target = draw(st.integers(0, n - 1))
    others = [q for q in range(n) if q != target]
    if not draw(st.booleans()):
        others = [q for q in others if draw(st.booleans())]
    controls = tuple((q, draw(st.integers(0, 1))) for q in others)
    gate = Gate(draw(st.sampled_from(GATE_KINDS)), target, controls)
    parts = np.array(draw(st.lists(
        st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3) | st.sampled_from(SPECIAL_PARTS),
        min_size=2 << n, max_size=2 << n)))
    normal = np.abs(parts) >= 1e-3
    if not normal.any():
        parts[0], normal[0] = 1.0, True
    # Only the normal parts are scaled; the others add nothing to the norm.
    parts[normal] /= np.linalg.norm(parts[normal])
    return gate, parts.view(np.complex128)


# Every sign pattern of zero parts in a pair of amplitudes: (-0) - (+0) is
# the one difference that keeps a negative zero.
SIGNED_ZEROS = np.array([
    complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(-0.0, 5e-324), complex(0.6, -0.0), complex(0.0, 0.8),
    complex(0.0, 0.0), complex(0.0, -0.0)])


@settings(max_examples=200, deadline=None)
@given(gates_on_states())
@example((Gate("H", 0), SIGNED_ZEROS))
@example((Gate("H", 1, ((0, 0),)), SIGNED_ZEROS))
@example((Gate("Z", 0), SIGNED_ZEROS))
@example((Gate("X", 0, ((2, 0), (1, 1))), SIGNED_ZEROS))
def test_views_equal_index_kernel_bit_for_bit(case):
    gate, state = case
    state = state.copy()
    before = state.copy()
    want = before.copy()
    n = state.size.bit_length() - 1
    index_kernel(want, n, gate)
    apply_gate(state, gate)
    np.testing.assert_array_equal(state.view(np.uint64),
                                  want.view(np.uint64))
    expected = full_matrix(gate, n) @ before
    assert np.max(np.abs(state - expected)) <= 1e-12


def test_gate_on_strided_amplitudes_writes_the_array_itself():
    rng = np.random.default_rng(5)
    dense = random_state(4, rng)
    backing = np.zeros(2 << 4, dtype=np.complex128)
    backing[::2] = dense
    strided = backing[::2]
    for gate in (Gate("H", 1, ((3, 0),)), Gate("X", 0), Gate("Z", 2, ((0, 1),))):
        apply_gate(dense, gate)
        apply_gate(strided, gate)
    assert np.array_equal(backing[::2], dense)
    assert not backing[1::2].any()


def test_gate_on_amplitudes_of_another_shape_raises():
    # A 2-D transpose would reshape to a copy, leaving the state unchanged.
    grid = np.zeros((2, 2), dtype=np.complex128)
    grid[0, 0] = 1.0
    with pytest.raises(ValueError, match=re.escape(
            "a state is 2^n amplitudes on one axis, not (2, 2)")):
        apply_gate(grid.T, Gate("X", 0))


@pytest.mark.parametrize("state", [
    np.eye(2, dtype=np.complex128),  # 4 amplitudes, but on two axes
    np.array([1, 0, 0], dtype=np.complex128),
    np.zeros(0, dtype=np.complex128),
], ids=["2-d", "length-3", "empty"])
def test_states_of_other_shapes_raise(state):
    before = state.copy()
    message = re.escape(f"a state is 2^n amplitudes on one axis, not {state.shape}")
    with pytest.raises(ValueError, match=message):
        apply_gate(state, Gate("X", 0))
    with pytest.raises(ValueError, match=message):
        run_circuit(Circuit(1, (Gate("X", 0),)), state)
    assert np.array_equal(state, before)


def test_gates_keep_no_memory_after_they_return():
    # An H and an all-controls X on each qubit: index arrays kept per target
    # would hold 2^(n+3) bytes per target, 8 MiB here.
    n = 16
    state = init_state(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for q in range(n):
            apply_gate(state, Gate("H", q))
            apply_gate(state, Gate("X", q, tuple((c, 1) for c in range(n) if c != q)))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 4096


@pytest.mark.parametrize("target", [0, 9, 17])
@pytest.mark.parametrize("kind", GATE_KINDS)
def test_gate_peak_memory_at_most_the_statevector(kind, target):
    state = init_state(18)
    tracemalloc.start()
    try:
        apply_gate(state, Gate(kind, target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= state.nbytes
