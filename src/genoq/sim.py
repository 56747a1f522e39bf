"""Dense statevector simulator with natively applied multicontrolled gates.

Circuits run gate by gate (``apply_gate``, ``run_circuit``); measurement is
emulated by a seeded draw (``sample``), which ``draw_counts`` shares with
Grover searches that write their slot amplitudes down in closed form.

Qubit 0 is the rightmost bit of a printed bitstring (little-endian), so
basis index ``i`` has qubit ``k`` equal to ``(i >> k) & 1``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NormalizationError, ShapeError

MAX_QUBITS = 26  # dense double-precision statevector ~ 1 GB at this size
NORM_TOL = 1e-10

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

GATE_KINDS = ("X", "Z", "H")


def bitstring(index: int, num_qubits: int) -> str:
    return format(index, f"0{num_qubits}b")


@dataclass(frozen=True)
class Gate:
    """A single- or multicontrolled X/Z/H gate.

    ``controls`` holds (qubit, required bit) pairs; the gate acts on the
    target only for basis states matching every required bit.
    """

    kind: str
    target: int
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.target < 0:
            raise ValueError("target qubit index must be non-negative")
        seen = set()
        for q, b in self.controls:
            if q == self.target:
                raise ValueError("target qubit cannot also be a control")
            if q in seen:
                raise ValueError(f"duplicate control qubit {q}")
            if b not in (0, 1):
                raise ValueError("control bit values must be 0 or 1")
            seen.add(q)

    @property
    def label(self) -> str:
        return ("C" + self.kind) if self.controls else self.kind

    def max_qubit(self) -> int:
        return max([self.target, *(q for q, _ in self.controls)])


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for g in self.gates:
            if g.max_qubit() >= self.num_qubits:
                raise IndexError(
                    f"gate {g.label} touches qubit {g.max_qubit()} "
                    f"but circuit has {self.num_qubits} qubits"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def dump(self) -> str:
        """One gate per line: ``KIND target q=bit,...`` (controls high to low)."""
        lines = []
        for g in self.gates:
            line = f"{g.label} {g.target}"
            if g.controls:
                ctrls = sorted(g.controls, key=lambda cb: -cb[0])
                line += " " + ",".join(f"q{q}={b}" for q, b in ctrls)
            lines.append(line)
        return "\n".join(lines)


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.amplitudes, self.amplitudes).real))

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())


def init_state(num_qubits: int, max_qubits: int = MAX_QUBITS) -> StateVector:
    if not 1 <= num_qubits <= max_qubits:
        raise CapacityError(
            f"num_qubits must be in 1..{max_qubits}, got {num_qubits}"
        )
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


@lru_cache(maxsize=512)
def _pair_indices(num_qubits: int, target: int):
    """Basis-index pairs (target bit 0, target bit 1); cached per register shape."""
    half = np.arange(1 << (num_qubits - 1), dtype=np.int64)
    low = half & ((1 << target) - 1)
    i0 = ((half >> target) << (target + 1)) | low
    i1 = i0 | (1 << target)
    i0.setflags(write=False)
    i1.setflags(write=False)
    return i0, i1


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply ``gate`` in place via bit-indexed amplitude pairing."""
    if gate.max_qubit() >= state.num_qubits:
        raise IndexError(
            f"gate touches qubit {gate.max_qubit()} on a "
            f"{state.num_qubits}-qubit state"
        )
    i0, i1 = _pair_indices(state.num_qubits, gate.target)
    if gate.controls:
        mask = np.ones(i0.shape, dtype=bool)
        for q, b in gate.controls:
            mask &= ((i0 >> q) & 1) == b
        i0 = i0[mask]
        i1 = i1[mask]
    amps = state.amplitudes
    if gate.kind == "X":
        tmp = amps[i0].copy()
        amps[i0] = amps[i1]
        amps[i1] = tmp
    elif gate.kind == "Z":
        amps[i1] = -amps[i1]
    else:  # H
        a = amps[i0].copy()
        b = amps[i1].copy()
        amps[i0] = (a + b) * _INV_SQRT2
        amps[i1] = (a - b) * _INV_SQRT2
    check_norm(amps, f"after {gate.label} on qubit {gate.target}")
    return state


def check_norm(amplitudes: np.ndarray, where: str) -> None:
    """Raise NormalizationError when the squared norm is off 1 by more than NORM_TOL."""
    nrm = np.vdot(amplitudes, amplitudes).real
    if abs(nrm - 1.0) > NORM_TOL:
        raise NormalizationError(f"norm drifted to {nrm!r} {where}")


def run_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    if circuit.num_qubits != state.num_qubits:
        raise ShapeError(
            f"circuit has {circuit.num_qubits} qubits, state has {state.num_qubits}"
        )
    for g in circuit.gates:
        apply_gate(state, g)
    return state


def draw_counts(p: np.ndarray, seed: int, shots: int) -> list[tuple[int, int]]:
    """``shots`` seeded draws of outcome ``i`` with weight ``p[i]``, as sorted
    (outcome, count) pairs.

    Outcomes of weight zero are never drawn and do not move the others, so
    dropping them from ``p`` renumbers the outcomes but, up to rounding in
    the normalisation, draws the same ones.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(p.size, size=shots, p=p / p.sum())
    return sorted(Counter(outcomes.tolist()).items())


def sample(state: StateVector, seed: int, shots: int) -> dict[str, int]:
    """Seeded measurement emulation; counts sum to ``shots``."""
    p = np.abs(state.amplitudes) ** 2
    n = state.num_qubits
    return {bitstring(i, n): c for i, c in draw_counts(p, seed, shots)}
