"""Dense statevector simulator with natively applied multicontrolled gates.

A state is a 1-D complex128 array of 2^n amplitudes; n is
``size.bit_length() - 1``. Circuits run on it gate by gate, in place
(``apply_gate``, ``run_circuit``); measurement is emulated by a seeded draw
(``sample``), which ``draw_counts`` shares with Grover searches that write
their slot amplitudes down in closed form.

Qubit 0 is the rightmost bit of a printed bitstring (little-endian), so
basis index ``i`` has qubit ``k`` equal to ``(i >> k) & 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NormalizationError

MAX_QUBITS = 26  # dense double-precision statevector ~ 1 GB at this size
# Most slots a closed-form Grover search holds. Measured at 2^22 (numpy 2.4,
# x86-64), a search peaks near 40 B per slot: ~640 MiB at the cap, inside the
# 1 GiB that MAX_QUBITS budgets.
MAX_SLOTS = 1 << 24
# Most shots drawn at once. Measured with 2^20 shots over 2^22 slots (numpy
# 2.4, x86-64; 927,826 distinct outcomes), a draw adds 16-18 B per shot to
# the search's 40 B per slot; building the histogram takes ~250 B per
# distinct outcome over the 24 B per slot still held; the histogram keeps
# ~144 B per outcome, and writing its JSON ~290 B more. At the two caps that
# is at most ~660 MiB while searching and ~430 MiB while writing.
MAX_SHOTS = 1 << 20
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
            if q < 0:
                raise ValueError("control qubit index must be non-negative")
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


def init_state(num_qubits: int) -> np.ndarray:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(
            f"num_qubits must be in 1..{MAX_QUBITS}, got {num_qubits}"
        )
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def _qubits(state: np.ndarray) -> int:
    """n for a 1-D array of 2^n amplitudes; ValueError for any other shape,
    which may reshape to a copy, so that a gate would update the copy."""
    n = state.size.bit_length() - 1
    if state.shape != (1 << max(n, 0),):
        raise ValueError(f"a state is 2^n amplitudes on one axis, not {state.shape}")
    return n


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply ``gate`` in place on strided views of the amplitudes.

    Axis k of the view is qubit n-1-k; a trailing axis of length 1 keeps a
    selection an array even when every qubit is fixed. Each control fixes its
    axis and the target's 0-half and 1-half are views, updated in place, so a
    gate needs the statevector plus at most one half-size temporary.
    """
    n = _qubits(state)
    if gate.max_qubit() >= n:
        raise IndexError(
            f"gate touches qubit {gate.max_qubit()} on a {n}-qubit state"
        )
    index = [slice(None)] * (n + 1)
    for q, b in gate.controls:
        index[n - 1 - q] = b
    k = n - 1 - gate.target
    view = state.reshape((2,) * n + (1,))
    a0, a1 = (view[(*index[:k], bit, *index[k + 1:])] for bit in (0, 1))
    if gate.kind == "X":
        t = a0.copy()
        # A ufunc, since a0[...] = a1 copies a1 first wherever the halves
        # interleave: assignment checks only whether their bounds overlap.
        np.positive(a1, out=a0)
        a1[...] = t
    elif gate.kind == "Z":
        # Not a1 *= -1: a complex multiply by -1 flips the sign of some zeros.
        np.negative(a1, out=a1)
    else:  # H
        t = a0.copy()
        a0 += a1
        a0 *= _INV_SQRT2
        np.subtract(t, a1, out=a1)
        a1 *= _INV_SQRT2
    check_norm(state, f"after {gate.label} on qubit {gate.target}")
    return state


def check_norm(amplitudes: np.ndarray, where: str) -> None:
    """Raise NormalizationError when the squared norm is off 1 by more than NORM_TOL."""
    nrm = np.vdot(amplitudes, amplitudes).real
    if abs(nrm - 1.0) > NORM_TOL:
        raise NormalizationError(f"norm drifted to {nrm!r} {where}")


def run_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    n = _qubits(state)
    if circuit.num_qubits != n:
        raise ValueError(f"circuit has {circuit.num_qubits} qubits, state has {n}")
    for g in circuit.gates:
        apply_gate(state, g)
    return state


def draw_counts(p: np.ndarray, seed: int,
                shots: int) -> tuple[np.ndarray, np.ndarray]:
    """``shots`` seeded draws of outcome ``i`` with weight ``p[i]``: the drawn
    outcomes, ascending, and how often each was drawn.

    Outcomes of weight zero are never drawn and do not move the others, so
    dropping them from ``p`` renumbers the outcomes but, up to rounding in
    the normalisation, draws the same ones. CapacityError, before drawing,
    past ``MAX_SHOTS`` shots.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise CapacityError(f"{shots} shots exceeds the shot cap {MAX_SHOTS}")
    rng = np.random.default_rng(seed)
    return np.unique(rng.choice(p.size, size=shots, p=p / p.sum()),
                     return_counts=True)


def sample(state: np.ndarray, seed: int, shots: int) -> dict[str, int]:
    """Seeded measurement emulation; counts sum to ``shots``."""
    n = _qubits(state)
    outcomes, counts = draw_counts(np.abs(state) ** 2, seed, shots)
    return {bitstring(i, n): c
            for i, c in zip(outcomes.tolist(), counts.tolist())}
