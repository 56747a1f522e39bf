"""In-process fuzz of every CLI input path: instance JSON, FASTA with
``--key``, config files and the numeric flags of ``runtime``,
``loading-scan``, ``tts-scan`` and ``grover-demo``.

Every case must exit 0, 1, 2 or 3 with no exception escaping ``main``; a
nonzero exit writes exactly one stderr line starting with ``genoq``, and a
success writes none. Argparse's refusals count, as they exit 3 with one line.

File inputs are mutated from the golden inputs under ``tests/data`` (and
from small literals where there are none): each edit inserts a boundary
token or random bytes, deletes bytes or replaces one. Flag values mix the
boundary tokens, small numbers, any float and short text.

Bounds, so that a case stays near 10 ms: the model, slot and shot caps are
lowered for the whole module (``SMALL_CAPS``), so any larger drawn size
takes the cap's exit-2 path instead of allocating, and a file gets at most
``MAX_EDITS`` edits. Two costs have no cap, and their values are bounded
where they are drawn: an SA run time t (``tts-scan`` grids reach 2^63 on
the stub path only) and a ``tts-scan`` grid read from a config file (that
test takes the stub from the command line).
"""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genoq import qubo, sim, solvers
from genoq.cli import main

# ±2^63±1 straddle int64; 1_0 and ٣ are read by int() but are not JSON.
BOUNDARY = ("1e309", "nan", str(2**63 - 1), str(2**63 + 1), str(-2**63 + 1),
            str(-2**63 - 1), "1_0", "٣", "\x00")
MAX_EDITS = 3
SMALL_CAPS = [(qubo, "MODEL_MAX_VARS", 1 << 12), (solvers, "MODEL_MAX_VARS", 1 << 8),
              (sim, "MAX_SLOTS", 1 << 12), (sim, "MAX_SHOTS", 1 << 12)]
FUZZ = settings(derandomize=True, deadline=None, max_examples=50)

DATA = Path(__file__).parent / "data" / "build_golden"
INSTANCES = {problem: (DATA / f"{seed}.json").read_bytes() for problem, seed in [
    ("max-cut", "max-cut"), ("phasing", "phasing"), ("mis", "mis"),
    ("knapsack", "knapsack"), ("assembly-path", "assembly-path"),
    ("tsp-path", "assembly-path")]}
FASTA = [b">toy\nATGATG\n", b"ATGATGCCATG\n",
         b">r1 sample\nGATTACA\nCCGTGATC\n\n>r2\nacgtacgt\n"]
# Each config file with the command line it serves. tts-scan takes the stub
# from the command line: an SA grid read from the file would be unbounded work.
CONFIGS = [
    (b"seed=1\nshots=64\niterations=1\nno_timestamp=true\n", ["grover-demo"]),
    (b"# runtime\nN=3e9\nbudget=60\nfreq=10kHz\nprofile=surface-10kHz\n"
     b"sweep=1e6,1e12\nclassical_seconds=86400\n", ["runtime"]),
    (b"seed=2\nsizes=64,128\nwindow=2\n", ["loading-scan"]),
    (b"seed=3\nsizes=8,12,16\nstub_tau=2\nt_grid=1,4,16\ntarget_p=0.9\n",
     ["tts-scan", "--stub-tau=2"]),
]


@pytest.fixture(scope="module", autouse=True)
def _small_caps():
    with pytest.MonkeyPatch.context() as mp:
        for module, name, cap in SMALL_CAPS:
            mp.setattr(module, name, cap)
        yield


def exits_cleanly(argv, data: bytes | None = None) -> None:
    """Check ``main``'s exit code and stderr on ``argv``. With ``data``,
    ``argv`` is a function of the path of a file holding it."""
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            path = os.path.join(tmp, "input")
            Path(path).write_bytes(data)
            argv = argv(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("genoq")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


# Any number: a boundary token, an integer or a float.
NUMBERS = st.one_of(st.sampled_from(BOUNDARY), st.integers(-3, 70).map(str),
                    st.integers().map(str), st.floats().map(repr))
# Any value: a number or short text.
VALUES = NUMBERS | st.text(max_size=5)
NUMBER = re.compile(rb"-?[0-9][0-9.e+-]*")


@st.composite
def mutated(draw, seeds: list[bytes]) -> bytes:
    """One of ``seeds`` with up to MAX_EDITS of its numbers replaced by any
    number, then perhaps one raw edit: insert a boundary token or 1-3 random
    bytes, delete 1-4 bytes, or replace one byte."""
    data = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(0, MAX_EDITS))):
        numbers = list(NUMBER.finditer(data))
        if numbers:
            number = draw(st.sampled_from(numbers))
            data = data[:number.start()] + draw(NUMBERS).encode() + data[number.end():]
    edit = draw(st.sampled_from([None, "insert", "delete", "replace"]))
    at = draw(st.integers(0, len(data)))
    if edit == "insert":
        piece = draw(st.one_of(st.sampled_from(BOUNDARY).map(str.encode),
                               st.binary(min_size=1, max_size=3)))
        data = data[:at] + piece + data[at:]
    elif edit == "delete":
        data = data[:at] + data[at + draw(st.integers(1, 4)):]
    elif edit == "replace":
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    return data


def listed(values):
    return st.lists(values, min_size=1, max_size=4).map(",".join)


def flag_words(keep=(), **flags) -> st.SearchStrategy[list[str]]:
    """``--flag=value`` words for the keyword flags (an underscore in a
    keyword is a dash in its flag), each given as (valid values, fuzzed
    values). Every flag takes a valid value, except up to two, which take a
    fuzzed one or, unless named in ``keep``, are left out."""
    valid = {name: st.sampled_from(values) for name, (values, _) in flags.items()}
    fuzz = {name: values if name in keep else st.none() | values
            for name, (_, values) in flags.items()}
    picks = st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)

    @st.composite
    def words(draw):
        values = {name: draw(strategy) for name, strategy in valid.items()}
        for name in draw(picks):
            values[name] = draw(fuzz[name])
        return [f"--{name.replace('_', '-')}={value}"
                for name, value in values.items() if value is not None]

    return words()


def fuzzed(*valid: str):
    return valid, VALUES


def fuzzed_list(*valid: str):
    return valid, listed(VALUES)


@FUZZ
@given(case=st.sampled_from(sorted(INSTANCES)).flatmap(
    lambda problem: st.tuples(st.just(problem), mutated([INSTANCES[problem]]))))
@example(case=("max-cut", b'{"n": -9223372036854775809}'))  # was a traceback
@example(case=("mis", b'{"n": 0}'))
def test_qubo_build_any_instance_exits_cleanly(case):
    problem, data = case
    exits_cleanly(lambda path: ["qubo-build", f"--problem={problem}",
                                f"--input={path}"], data)


@FUZZ
@given(genome=mutated(FASTA),
       extra=flag_words(key=(["ATG", "GATTACA", "g", "acgtac"], VALUES),
                        iterations=fuzzed("0", "1", "3"), shots=fuzzed("1", "64")))
def test_grover_search_any_fasta_and_key_exits_cleanly(genome, extra):
    exits_cleanly(lambda path: ["grover-search", f"--genome={path}", "--seed=1",
                                *extra], genome)


@FUZZ
@given(case=st.sampled_from(CONFIGS).flatmap(
    lambda case: st.tuples(mutated([case[0]]), st.just(case[1]))))
def test_any_config_file_exits_cleanly(case):
    config, command = case
    exits_cleanly(lambda path: [f"--config={path}", *command], config)


@FUZZ
@given(extra=flag_words(
    N=fuzzed("3e9", "1000", "1"), budget=fuzzed("60", "1e-3"),
    freq=(["10kHz", "1MHz", "5 ghz", "200"], VALUES),
    classical_seconds=fuzzed("86400", "0.5"), sweep=fuzzed_list("1e6,1e12", "7"),
    profile=(["surface-10kHz"], st.sampled_from(["x", ""]))))
def test_runtime_any_numeric_flags_exit_cleanly(extra):
    exits_cleanly(["runtime", *extra])


@FUZZ
@given(extra=flag_words(sizes=fuzzed_list("64,128", "8,40,1000"),
                        window=fuzzed("1", "2", "8"), seed=fuzzed("0", "2")))
def test_loading_scan_any_numeric_flags_exit_cleanly(extra):
    exits_cleanly(["loading-scan", *extra])


# An SA grid point t runs t sweeps per run, and no cap bounds t, so SA grids
# draw no t above 64; stub grids, which always keep --stub-tau, draw any value.
SA_TIMES = st.one_of(st.sampled_from([b for b in BOUNDARY if b not in (
                         str(2**63 - 1), str(2**63 + 1))]),
                     st.integers(-3, 64).map(str), st.floats(max_value=64).map(repr),
                     st.text(max_size=5))
TTS_FLAGS = dict(sizes=fuzzed_list("8,12,16", "4"), runs=fuzzed("4", "1"),
                 target_p=fuzzed("0.9", "0.5"), density=fuzzed("0.5", "1"),
                 seed=fuzzed("0", "3"))


@FUZZ
@given(extra=st.one_of(
    flag_words(t_grid=(["1,2,4", "1,4,16"], listed(SA_TIMES)), **TTS_FLAGS),
    flag_words(keep=("stub_tau",), t_grid=fuzzed_list("1,2,4", "0.5,1.5"),
               stub_tau=fuzzed("2", "1e-3"), **TTS_FLAGS)))
@example(extra=["--seed=0", "--sizes=4", "--stub-tau=1e-308", "--t-grid=-1"])
@example(extra=["--seed=0", "--sizes=4", "--stub-tau=1", "--t-grid=-1"])
def test_tts_scan_any_numeric_flags_exit_cleanly(extra):
    exits_cleanly(["tts-scan", *extra])


@FUZZ
@given(extra=flag_words(iterations=fuzzed("0", "1", "2"), shots=fuzzed("256", "3"),
                        seed=fuzzed("1", "16")))
@example(extra=["--seed=16", "--iterations=32", "--shots=100"])  # was silent
def test_grover_demo_any_numeric_flags_exit_cleanly(extra):
    exits_cleanly(["grover-demo", *extra])
