"""DNA encoding, sliding-window database construction, and register sizing."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParseError

BASE_BITS = {"A": "00", "T": "01", "G": "10", "C": "11"}
_NOT_A_BASE = re.compile("[^ACGTacgt]")


def encode_window(window: str) -> str:
    """2-bit-per-base encoding; leftmost base occupies the highest data bits."""
    return "".join(BASE_BITS[b] for b in window)


def upper_bases(text: str, where: str = "") -> str:
    """``text`` uppercased; ParseError at its first character outside
    ``ACGTacgt``, naming it and its 1-based position (then ``where``). Only
    these eight characters uppercase into ``BASE_BITS``'s keys."""
    bad = _NOT_A_BASE.search(text)
    if bad:
        pos = bad.start() + 1
        raise ParseError(f"invalid base {bad.group()!r} at position {pos}{where}")
    return text.upper()


def parse_sequence(text: str) -> str:
    """Parse plain or FASTA-style text into an uppercase A/T/G/C string.

    Header lines (starting '>') and whitespace are skipped. Any other
    character raises ParseError naming its 1-based position within
    the sequence payload (headers and whitespace excluded from positions).
    ``str.split()`` splits on exactly the characters ``str.isspace`` accepts.
    """
    payload = [line for line in text.splitlines() if not line.startswith(">")]
    seq = upper_bases("".join("".join(payload).split()))
    if not seq:
        raise ParseError("empty sequence")
    return seq


def next_power_of_two(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


@dataclass(frozen=True)
class ReadWindowDatabase:
    """All N-M+1 length-M windows of a genome, in genome order.

    Window i is ``genome[i : i + M]``; nothing else is stored. When the window
    count is not a power of two, slots [count, padded_size) repeat the data
    of window 0; those padding slots are made non-matchable at the oracle
    level by a reserved flag qubit (see RegisterLayout).
    """

    genome: str
    window_length: int

    @property
    def count(self) -> int:
        return len(self.genome) - self.window_length + 1

    @property
    def padded_size(self) -> int:
        return next_power_of_two(self.count)

    @property
    def has_padding(self) -> bool:
        return self.padded_size > self.count

    def window_string(self, i: int) -> str:
        return self.genome[i : i + self.window_length]

    def base_codes(self) -> np.ndarray:
        """The 2-bit ``BASE_BITS`` code of each genome base, as int64."""
        table = np.zeros(256, dtype=np.int64)
        table[list(b"ATGC")] = np.arange(4)
        return table[np.frombuffer(self.genome.encode("ascii"), dtype=np.uint8)]

    def codes(self) -> np.ndarray:
        """Each window's ``encode_window`` bits as an int64, by a rolling shift
        over the base codes; CapacityError past 31 bases (62 bits)."""
        m = self.window_length
        if m > 31:
            raise CapacityError(f"window length {m} > 31 bases has no int64 code")
        base = self.base_codes()
        codes = np.zeros(self.count, dtype=np.int64)
        for k in range(m):
            codes = (codes << 2) | base[k : k + self.count]
        return codes


def build_window_db(genome: str, window_length: int) -> ReadWindowDatabase:
    n = len(genome)
    if not 1 <= window_length <= n:
        raise ValueError(f"window length must be in 1..{n}, got {window_length}")
    return ReadWindowDatabase(genome=genome, window_length=window_length)


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit budget: data register low, optional padding flag, index register high."""

    index_qubits: int
    data_qubits: int
    flag_qubits: int

    @property
    def total(self) -> int:
        return self.index_qubits + self.data_qubits + self.flag_qubits

    @property
    def flag_qubit(self) -> int | None:
        return self.data_qubits if self.flag_qubits else None

    def index_qubit(self, j: int) -> int:
        return self.data_qubits + self.flag_qubits + j


def layout_for(genome_length: int, window_length: int) -> RegisterLayout:
    """Register sizing from lengths alone (no database materialization)."""
    count = genome_length - window_length + 1
    if count < 1:
        raise ValueError("window length exceeds genome length")
    padded = next_power_of_two(count)
    return RegisterLayout(
        index_qubits=padded.bit_length() - 1,
        data_qubits=2 * window_length,
        flag_qubits=1 if padded > count else 0,
    )
