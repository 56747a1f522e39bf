import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genoq.errors import CapacityError, ParseError
from genoq.genome import (
    BASE_BITS,
    build_window_db,
    encode_window,
    layout_for,
    next_power_of_two,
    parse_sequence,
)

genomes = st.text(alphabet="ATGC", min_size=1, max_size=64)


def test_base_codes():
    assert [encode_window(b) for b in "ATGC"] == ["00", "01", "10", "11"]
    assert encode_window("GA") == "1000"  # leftmost base in the high bits


def test_parse_fasta_header():
    assert parse_sequence(">x\nTATG") == "TATG"


def test_parse_case_folding():
    assert parse_sequence("atgc") == "ATGC"


def test_parse_rejects_ambiguity_codes():
    with pytest.raises(ParseError, match="invalid base 'N' at position 3"):
        parse_sequence("ATN")


def test_parse_multiline_whitespace():
    assert parse_sequence(">chr\nAT GC\nTT\n") == "ATGCTT"


def test_parse_empty():
    with pytest.raises(ParseError, match="empty sequence"):
        parse_sequence(">only header\n")


CODE_POINTS = range(sys.maxunicode + 1)
WHITESPACE = [chr(c) for c in CODE_POINTS if chr(c).isspace()]


def test_whitespace_and_case_folding_over_all_code_points():
    # The fast path's two premises: str.split() splits on exactly the
    # characters str.isspace accepts, and only ASCII acgt uppercase into a base.
    assert len(WHITESPACE) == 29
    assert "".join(WHITESPACE).split() == []
    rest = "".join(chr(c) for c in CODE_POINTS if not chr(c).isspace())
    assert rest.split() == [rest]
    assert [chr(c) for c in CODE_POINTS
            if chr(c).upper() in BASE_BITS] == list("ACGTacgt")


def reference_parse(text):
    """The per-character reader: ``(sequence, None)``, or ``(None, message)``
    for the ParseError it raises, which names the 1-based position."""
    bases = []
    pos = 0
    for line in text.splitlines():
        if line.startswith(">"):
            continue
        for ch in line:
            if ch.isspace():
                continue
            pos += 1
            up = ch.upper()
            if up not in BASE_BITS:
                return None, f"invalid base {ch!r} at position {pos}"
            bases.append(up)
    seq = "".join(bases)
    return (seq, None) if seq else (None, "empty sequence")


# Bases, every whitespace character (the line breaks among them end header
# lines), '>' and invalid characters, non-ASCII and case-folding ones included.
FASTA_CHARS = st.one_of(
    st.sampled_from(list("ACGTacgt") + WHITESPACE + [">"]),
    st.sampled_from(list("NnUx-*0\u00df\u0131\u017f\u212a\u00e0\ud800")),
    st.characters())


@settings(max_examples=200)
@given(st.lists(st.one_of(st.text(FASTA_CHARS, max_size=12),
                          st.text(FASTA_CHARS, max_size=12).map(">".__add__)))
       .map("\n".join))
@example(">chr\r\nAT GC\x1cTT\u2028>x N\nG\x85a")
@example("\u00a0ACG\u3000t\nN")
@example(" \n\t>")
def test_parse_equals_per_character_reference(text):
    seq, error = reference_parse(text)
    if error is None:
        assert parse_sequence(text) == seq
    else:
        with pytest.raises(ParseError) as exc:
            parse_sequence(text)
        assert str(exc.value) == error


def test_window_db_toy():
    db = build_window_db("TATG", 1)
    assert db.count == 4
    assert db.codes().tolist() == [0b01, 0b00, 0b01, 0b10]


def test_window_db_single_window():
    db = build_window_db("TATG", 4)
    assert db.count == 1
    assert db.codes().tolist() == [int(encode_window("TATG"), 2)]


def test_window_db_power_of_two_no_padding():
    db = build_window_db("ATGCATGCAT", 3)
    assert db.count == 8
    assert db.padded_size == 8
    assert not db.has_padding


def test_window_db_padding():
    db = build_window_db("ATGCA", 1)
    assert db.count == 5
    assert db.padded_size == 8
    assert db.has_padding


def test_window_db_bad_m():
    with pytest.raises(ValueError):
        build_window_db("ATG", 4)
    with pytest.raises(ValueError):
        build_window_db("ATG", 0)


@settings(max_examples=200)
@given(genomes, st.data())
def test_window_count_and_round_trip(genome, data):
    m = data.draw(st.integers(1, len(genome)))
    db = build_window_db(genome, m)
    assert db.count == len(genome) - m + 1
    if m <= 31:
        codes = [int(encode_window(genome[i : i + m]), 2) for i in range(db.count)]
        assert db.codes().tolist() == codes
    else:
        with pytest.raises(ValueError):
            db.codes()
    assert db.padded_size == next_power_of_two(db.count)
    assert db.padded_size >= db.count
    assert db.padded_size < 2 * max(1, db.count)


def test_codes_stop_at_31_bases():
    genome = "C" * 40
    assert build_window_db(genome, 31).codes().tolist() == [2**62 - 1] * 10
    with pytest.raises(CapacityError, match="32"):
        build_window_db(genome, 32).codes()


def test_layout_human_genome_scale():
    layout = layout_for(3 * 10**9, 100)
    assert layout.index_qubits == 32
    assert layout.data_qubits == 200


def test_layout_window_longer_than_genome_raises():
    with pytest.raises(ValueError, match="window length exceeds genome length"):
        layout_for(3, 5)


def test_layout_toy():
    layout = layout_for(4, 1)
    assert (layout.index_qubits, layout.data_qubits) == (2, 2)
    assert layout.flag_qubits == 0
    assert layout.total == 4


def test_layout_exact_powers():
    layout = layout_for(10, 3)  # 8 windows
    assert (layout.index_qubits, layout.data_qubits) == (3, 6)
    assert layout.flag_qubits == 0


def test_layout_flag_only_with_padding():
    layout = layout_for(7, 1)  # 7 windows -> padded to 8
    assert layout.flag_qubits == 1
    assert layout.flag_qubit == 2
    assert layout.total == 3 + 1 + 2


def test_index_qubit_positions():
    layout = layout_for(7, 1)
    # data low, flag, then index qubits.
    assert [layout.index_qubit(j) for j in range(3)] == [3, 4, 5]
