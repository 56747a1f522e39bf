import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoq import cli, grover, qubo, sim, solvers, tts
from genoq.cli import main
from genoq.genome import build_window_db


def run_cli(argv, capsys):
    """Invoke the CLI in-process; normalize argparse SystemExit to a code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "grover-demo" in out


def test_missing_subcommand_exits_three(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 3


def test_unknown_flag_exits_three(capsys):
    code, _, _ = run_cli(["grover-demo", "--bogus"], capsys)
    assert code == 3


def test_grover_demo_success(capsys):
    code, out, _ = run_cli(
        ["grover-demo", "--seed", "1", "--no-timestamp"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["p_exact"] >= 0.999
    assert payload["decoded"] == {"index": 1, "base": "A"}
    assert payload["top_outcome"] == "0100"
    assert "timestamp" not in payload["meta"]
    assert payload["circuit"] == {
        "diffusion_gates": 19,
        "oracle": ["X 1", "X 0", "CZ 0 q1=1", "X 0", "X 1"],
        "state_prep": ["H 2", "H 3", "CX 0 q3=0,q2=0", "CX 0 q3=1,q2=0",
                       "CX 1 q3=1,q2=1"],
    }


def test_grover_demo_miss_writes_one_line(capsys):
    code, out, err = run_cli(
        ["grover-demo", "--seed", "16", "--iterations", "32", "--shots", "100",
         "--no-timestamp"], capsys)
    assert code == 1
    assert json.loads(out)["decoded"] == {"index": 2, "base": "T"}
    assert err == ("genoq: error: the search missed: top slot 2, p_exact "
                   "0.2499999999999945; success needs slot 1 and p_exact >= 0.999\n")


def test_grover_demo_overrotation_fails(capsys):
    code, out, _ = run_cli(
        ["grover-demo", "--seed", "1", "--iterations", "2"], capsys)
    assert code == 1
    assert json.loads(out)["p_exact"] < 0.999


@pytest.mark.parametrize("argv", [
    ["grover-demo"],
    ["grover-search", "--key", "ATG"],
], ids=["grover-demo", "grover-search"])
def test_negative_iterations_exit_one(tmp_path, capsys, argv):
    genome = tmp_path / "g.txt"
    genome.write_text("ATGATG\n")
    if argv[0] == "grover-search":
        argv = argv + ["--genome", str(genome)]
    code, out, err = run_cli(argv + ["--seed", "1", "--iterations", "-3"], capsys)
    assert code == 1
    assert out == ""
    assert err == "genoq: error: iterations must be >= 0, got -3\n"


def test_grover_demo_requires_seed(capsys):
    code, _, err = run_cli(["grover-demo"], capsys)
    assert code == 1
    assert "seed" in err


def test_grover_search_agreement(tmp_path, capsys):
    genome = tmp_path / "g.fa"
    genome.write_text(">toy\nATGATG\n")
    code, out, _ = run_cli(
        ["grover-search", "--genome", str(genome), "--key", "ATG",
         "--seed", "5", "--no-timestamp"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["classical_scan"] == [0, 3]
    assert payload["agreement"] is True


# Histograms, matches and classical_scan recorded while searches still
# iterated one amplitude per slot: a padded database with a repeated key, a
# 19-qubit wide-data database with a unique key, and an absent key.
GROVER_GOLDEN = [
    ("ATGATGCCATG", "ATG", "7", [], {
        "iterations": 1,
        "histogram": {
            "00000000110": 339, "00010011000": 5, "00100100001": 5,
            "00110000110": 320, "01000011011": 7, "01010101111": 1,
            "01100111100": 1, "10000000110": 325, "10011000110": 2,
            "10101000110": 4, "10111000110": 2, "11001000110": 1,
            "11011000110": 6, "11101000110": 3, "11111000110": 3},
        "matches": [{"index": 0, "window": "ATG"}, {"index": 3, "window": "ATG"},
                    {"index": 8, "window": "ATG"}],
        "classical_scan": [0, 3, 8]}),
    ("GATTACACCGTGATC", "ACACCGTG", "8", [], {
        "iterations": 2,
        "histogram": {
            "0001000010100110011": 5, "0010001010011001111": 9,
            "0100101001100111110": 11, "0110100110011111001": 4,
            "1000011001111100110": 979, "1011100111110011000": 3,
            "1100011111001100001": 7, "1111111100110000111": 6},
        "matches": [{"index": 4, "window": "ACACCGTG"}],
        "classical_scan": [4]}),
    ("ACGTTGCAAC", "GGG", "9", ["--iterations", "3"], {
        "iterations": 3,
        "histogram": {
            "000001110": 110, "001111001": 143, "010100101": 129,
            "011010110": 136, "100011011": 124, "101101100": 127,
            "110110000": 139, "111000011": 116},
        "matches": [],
        "classical_scan": []}),
]


@pytest.mark.parametrize("genome, key, seed, extra, golden", GROVER_GOLDEN,
                         ids=["padded-repeated", "wide-data-unique", "absent"])
def test_grover_search_golden_output(tmp_path, capsys, genome, key, seed,
                                     extra, golden):
    path = tmp_path / "g.txt"
    path.write_text(genome + "\n")
    code, out, _ = run_cli(
        ["grover-search", "--genome", str(path), "--key", key, "--seed", seed,
         "--no-timestamp"] + extra, capsys)
    assert code == 0
    payload = json.loads(out)
    assert {k: payload[k] for k in golden} == golden
    assert payload["agreement"] is True
    # sin^2((2k+1) theta), sin^2 theta = m/P over the P padded slots.
    slots = 1 << (len(genome) - len(key)).bit_length()
    theta = math.asin(math.sqrt(len(golden["classical_scan"]) / slots))
    expected = math.sin((2 * payload["iterations"] + 1) * theta) ** 2
    assert abs(payload["p_exact"] - expected) <= 1e-12


def test_grover_search_bad_base_exits_three(tmp_path, capsys):
    genome = tmp_path / "g.txt"
    genome.write_text("ATXG\n")
    code, _, err = run_cli(
        ["grover-search", "--genome", str(genome), "--key", "A",
         "--seed", "1"], capsys)
    assert code == 3
    assert "position 3" in err


@pytest.mark.parametrize("key, message", [
    ("AN", "invalid base 'N' at position 2 of --key"),
    ("a t", "invalid base ' ' at position 2 of --key"),
    ("", "empty --key"),
], ids=["non-acgt", "whitespace", "empty"])
def test_grover_search_bad_key_exits_three(tmp_path, capsys, key, message):
    genome = tmp_path / "g.txt"
    genome.write_text("ATGCATGC\n")
    code, _, err = run_cli(
        ["grover-search", "--genome", str(genome), "--key", key,
         "--seed", "1"], capsys)
    assert code == 3
    assert err == f"genoq: parse error: {message}\n"


def test_grover_search_capacity_exits_two(tmp_path, capsys, monkeypatch):
    # 245 windows of 12 bases pad to 256 slots (41 qubits): the search runs
    # at a cap of 256 slots, and one slot below it exits 2 before any
    # slot amplitude is written.
    genome = tmp_path / "g.txt"
    genome.write_text("ATGC" * 64 + "\n")
    argv = ["grover-search", "--genome", str(genome), "--key", "ATGCATGCATGC",
            "--seed", "1", "--shots", "64"]
    monkeypatch.setattr(sim, "MAX_SLOTS", 256)
    assert run_cli(argv, capsys)[0] == 0
    monkeypatch.setattr(sim, "MAX_SLOTS", 255)
    monkeypatch.setattr(grover, "slot_amplitudes", None)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == ("genoq: capacity error: 245 windows pad to 256 slots, "
                   "over the slot cap 255\n")


@pytest.mark.parametrize("genome, key, max_slots, message", [
    ("ATGC" * 6 + "ATG", "ATGCATGCATGC", 8,
     "16 windows pad to 16 slots, over the slot cap 8"),
    ("ATGC" * 50, "ATGC" * 8, sim.MAX_SLOTS,
     "window length 32 > 31 bases has no int64 code"),
], ids=["slots", "key-bases"])
def test_grover_search_over_ceiling_exits_two(tmp_path, capsys, monkeypatch,
                                              genome, key, max_slots, message):
    path = tmp_path / "g.txt"
    path.write_text(genome + "\n")
    monkeypatch.setattr(sim, "MAX_SLOTS", max_slots)
    code, out, err = run_cli(
        ["grover-search", "--genome", str(path), "--key", key, "--seed", "1"],
        capsys)
    assert code == 2
    assert out == ""
    assert err == f"genoq: capacity error: {message}\n"


def test_grover_search_read_length_key(tmp_path, capsys):
    # 181 windows of 20 bases: 8 index + 40 data + 1 flag qubits, past the
    # simulator's ceiling, yet the closed form holds only 256 slots.
    rng = np.random.default_rng(5)
    genome = "".join(rng.choice(list("ATGC"), 200))
    key = genome[57:77]
    path = tmp_path / "g.txt"
    path.write_text(genome + "\n")
    code, out, _ = run_cli(
        ["grover-search", "--genome", str(path), "--key", key, "--seed", "3",
         "--no-timestamp"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["agreement"] is True
    assert payload["classical_scan"] == [57]
    problem = grover.make_problem(build_window_db(genome, 20), key)
    assert problem.layout.total == 49 > sim.MAX_QUBITS
    _, marked, amps = grover.slot_amplitudes(problem, payload["iterations"])
    assert payload["p_exact"] == float((amps ** 2)[marked].sum())


def test_runtime_surface_numbers(capsys):
    code, out, _ = run_cli(
        ["runtime", "--N", "3e9", "--no-timestamp"], capsys)
    assert code == 0
    assert "# max_depth_per_call=10\n" in out
    assert "# calls=54773\n" in out


def test_runtime_optimistic_depth(capsys):
    code, out, _ = run_cli(
        ["runtime", "--N", "3e9", "--profile", "optimistic-10MHz",
         "--no-timestamp"], capsys)
    assert code == 0
    assert "# max_depth_per_call=10954\n" in out


def test_runtime_sweep_rows(capsys):
    code, out, _ = run_cli(
        ["runtime", "--N", "3e9", "--sweep", "1e6,1e12", "--no-timestamp"],
        capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "N,T_classical,T_quantum,crossover_flag"
    assert len(lines) == 3


RUNTIME_GOLDEN = [
    (["--N", "3e9", "--sweep", "1e6,1e12"], """\
# command=runtime
# version=0.1.0
# param.N=3e9
# param.budget=60
# param.classical_seconds=60
# param.profile=surface-10kHz
# param.sweep=1e6,1e12
N,T_classical,T_quantum,crossover_flag
1000000,0.02,1,0
1000000000000,20000,1000,1
# max_depth_per_call=10
# calls=54773
# seconds_per_call=0.001
# seconds_total=54.773000000000003
"""),
    (["--N", "3e9", "--profile", "optimistic-10MHz", "--budget", "3600"], """\
# command=runtime
# version=0.1.0
# param.N=3e9
# param.budget=3600
# param.classical_seconds=60
# param.profile=optimistic-10MHz
N,T_classical,T_quantum,crossover_flag
3000000000,60,3599.9503270073046,0
# max_depth_per_call=657258
# calls=54773
# seconds_per_call=0.065725800000000001
# seconds_total=3599.9992434000001
"""),
    (["--N", "1e6", "--freq", "1MHz"], """\
# command=runtime
# version=0.1.0
# param.N=1e6
# param.budget=60
# param.classical_seconds=60
# param.freq=1MHz
# param.profile=surface-10kHz
N,T_classical,T_quantum,crossover_flag
1000000,60,60,1
# max_depth_per_call=60000
# calls=1000
# seconds_per_call=0.059999999999999998
# seconds_total=60
"""),
]


@pytest.mark.parametrize("argv, golden", RUNTIME_GOLDEN,
                         ids=["sweep", "optimistic-budget", "freq"])
def test_runtime_golden_output(capsys, argv, golden):
    code, out, _ = run_cli(["runtime", *argv, "--no-timestamp"], capsys)
    assert code == 0
    assert out == golden


GROVER_DEMO_GOLDEN = """\
{
  "circuit": {
    "diffusion_gates": 19,
    "oracle": [
      "X 1",
      "X 0",
      "CZ 0 q1=1",
      "X 0",
      "X 1"
    ],
    "state_prep": [
      "H 2",
      "H 3",
      "CX 0 q3=0,q2=0",
      "CX 0 q3=1,q2=0",
      "CX 1 q3=1,q2=1"
    ]
  },
  "decoded": {
    "base": "A",
    "index": 1
  },
  "histogram": {
    "0100": 256
  },
  "iterations": 1,
  "matches": [
    {
      "index": 1,
      "window": "A"
    }
  ],
  "meta": {
    "command": "grover-demo",
    "parameters": {
      "iterations": 1,
      "seed": 1,
      "shots": 256
    },
    "version": "0.1.0"
  },
  "p_exact": 1.0,
  "top_outcome": "0100"
}
"""


def test_grover_demo_golden_output(capsys):
    code, out, _ = run_cli(
        ["grover-demo", "--seed", "1", "--no-timestamp"], capsys)
    assert code == 0
    assert out == GROVER_DEMO_GOLDEN


def test_grover_demo_golden_output_without_diffusion(capsys, monkeypatch):
    def no_diffusion(*args):
        raise AssertionError("grover-demo must count diffusion gates from structure")

    for name in ("build_diffusion", "prepare_circuits"):
        monkeypatch.setattr(grover, name, no_diffusion)
    test_grover_demo_golden_output(capsys)


@pytest.mark.parametrize("argv, flag, value", [
    (["loading-scan", "--sizes", "64,abc"], "--sizes", "abc"),
    (["tts-scan", "--sizes", "8,x"], "--sizes", "x"),
    (["tts-scan", "--t-grid", "1,x"], "--t-grid", "x"),
    (["runtime", "--N", "1e3", "--sweep", "1e3,x"], "--sweep", "x"),
    (["runtime", "--N", "1e3", "--sweep", "1e3,inf"], "--sweep", "inf"),
    (["runtime", "--N", "x"], "--N", "x"),
    (["runtime", "--N", "inf"], "--N", "inf"),
    (["runtime", "--N", "1,2"], "--N", "1,2"),
    (["runtime", "--N", "1e3", "--freq", "10xHz"], "--freq", "10xHz"),
    (["runtime", "--N", "1.5"], "--N", "1.5"),
    (["runtime", "--N", "100", "--sweep", "1.5"], "--sweep", "1.5"),
    (["runtime", "--N", "100", "--freq="], "--freq", ""),
    (["runtime", "--N", "100", "--sweep="], "--sweep", ""),
    (["tts-scan", "--sizes", "8,9,10", "--t-grid", "1,inf", "--stub-tau", "1"],
     "--t-grid", "inf"),
    (["tts-scan", "--t-grid", "nan", "--stub-tau", "1"], "--t-grid", "nan"),
], ids=["loading-sizes", "tts-sizes", "tts-t-grid", "runtime-sweep",
        "runtime-sweep-inf", "runtime-N", "runtime-N-inf", "runtime-N-list",
        "runtime-freq", "runtime-N-fraction", "runtime-sweep-fraction",
        "runtime-freq-empty", "runtime-sweep-empty", "tts-t-grid-inf",
        "tts-t-grid-nan"])
def test_bad_number_in_flag_exits_three(capsys, argv, flag, value):
    code, out, err = run_cli(argv + ["--seed", "1", "--no-timestamp"], capsys)
    assert code == 3
    assert out == ""
    assert err == f"genoq: parse error: bad {flag} value {value!r}\n"


def test_single_size_from_config(tmp_path, capsys):
    # A one-number config value reaches a list flag as the flag's own text.
    cfg = tmp_path / "cfg"
    cfg.write_text("sizes=8\nt_grid=4\n")
    code, out, _ = run_cli(
        ["--config", str(cfg), "tts-scan", "--stub-tau", "1", "--seed", "1",
         "--no-timestamp"], capsys)
    assert code == 0
    assert out.endswith("N,TTS_star,t_star,boundary_flag\n8,20,4,1\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["--N", "0"], "--N", 0),
    (["--N", "100", "--sweep", "-5"], "--sweep", -5),
    (["--N", "100", "--sweep", "0"], "--sweep", 0),
    (["--N", "100", "--sweep", "1e3,0"], "--sweep", 0),
])
def test_runtime_size_below_one_exits_one(capsys, argv, flag, value):
    code, out, err = run_cli(["runtime", *argv, "--no-timestamp"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"genoq: error: {flag} must be >= 1, got {value}\n"


def test_runtime_infeasible_budget_exits_one(capsys):
    code, _, err = run_cli(
        ["runtime", "--N", "3e9", "--budget", "1e-6"], capsys)
    assert code == 1


def test_loading_scan(capsys):
    code, out, _ = run_cli(
        ["loading-scan", "--sizes", "64,128,256", "--seed", "2",
         "--no-timestamp"], capsys)
    assert code == 0
    assert "N,prep_gates,iter_gates,total_gates" in out
    assert "# prep_exponent=" in out


@pytest.mark.parametrize("sizes", ["64", "64,64"])
def test_loading_scan_needs_two_distinct_sizes(capsys, sizes):
    # One size fits no exponent; a repeated one is named as the fault.
    code, out, err = run_cli(
        ["loading-scan", "--sizes", sizes, "--seed", "2", "--no-timestamp"],
        capsys)
    assert code == 1
    assert out == ""
    assert err == {
        "64": "genoq: error: loading scan needs at least two distinct sizes\n",
        "64,64": "genoq: error: --sizes repeats 64\n",
    }[sizes]


@pytest.mark.parametrize("sizes, message", [
    ("64,64,128", "--sizes repeats 64"),
    ("64,128,256,128", "--sizes repeats 128"),
    ("0,64,128", "--sizes must be >= 1, got 0"),
    ("-20,64", "--sizes must be >= 1, got -20"),
])
def test_loading_scan_bad_sizes_exit_one(capsys, sizes, message):
    # A repeated size would print a second row from another random genome.
    code, out, err = run_cli(
        ["loading-scan", f"--sizes={sizes}", "--seed", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"genoq: error: {message}\n"


# Recorded while the scan still built every circuit to count its gates.
# Every row but 65 (window 2) and 135 (window 8) has padding slots, and
# 700 bases at window 8 need 27 qubits, past the simulator's ceiling.
LOADING_GOLDEN = {
    2: ("50,65,200,300", "11", """\
# command=loading-scan
# version=0.1.0
# param.seed=11
# param.sizes=50,65,200,300
# param.window=2
N,prep_gates,iter_gates,total_gates
50,130,288,1570
65,126,282,1818
200,552,1140,13092
300,1454,2944,39726
# prep_exponent=1.351101998094435
# total_exponent=1.8013303339286784
"""),
    8: ("100,135,400,700", "12", """\
# command=loading-scan
# version=0.1.0
# param.seed=12
# param.sizes=100,135,400,700
# param.window=8
N,prep_gates,iter_gates,total_gates
100,1049,2166,16211
135,1093,2256,19141
400,4253,8584,133013
700,8633,17340,355433
# prep_exponent=1.1327566022872593
# total_exponent=1.6439770872417989
"""),
    # Windows past 31 bases; 60 and 200 bases leave padding slots.
    40: ("60,103,200,295", "13", """\
# command=loading-scan
# version=0.1.0
# param.seed=13
# param.sizes=60,103,200,295
# param.window=40
N,prep_gates,iter_gates,total_gates
60,1645,3528,12229
103,2621,5482,35513
200,11378,23012,218486
295,9729,19728,246465
# prep_exponent=1.289060811135375
# total_exponent=2.0281145160760348
"""),
}


@pytest.mark.parametrize("window", [2, 8, 40])
def test_loading_scan_golden_output_without_circuits(capsys, monkeypatch, window):
    def no_circuits(*args):
        raise AssertionError("loading-scan must count gates without circuits")

    for name in ("build_state_prep", "build_oracle", "build_diffusion"):
        monkeypatch.setattr(grover, name, no_circuits)
    sizes, seed, golden = LOADING_GOLDEN[window]
    code, out, _ = run_cli(
        ["loading-scan", "--sizes", sizes, "--window", str(window),
         "--seed", seed, "--no-timestamp"], capsys)
    assert code == 0
    assert out == golden


def test_qubo_build_maxcut_from_json(tmp_path, capsys):
    inst = tmp_path / "g.json"
    inst.write_text(json.dumps(
        {"n": 3, "edges": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]}))
    code, out, _ = run_cli(
        ["qubo-build", "--problem", "max-cut", "--input", str(inst)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "QUBO 3 -1.5 spin"


def test_qubo_build_tsp_path_n4_has_16_variables(capsys):
    code, out, _ = run_cli(
        ["qubo-build", "--problem", "tsp-path", "--n", "4", "--seed", "9"],
        capsys)
    assert code == 0
    header = out.splitlines()[0].split()
    assert header[:2] == ["QUBO", "16"]


def test_qubo_build_random_requires_seed(capsys):
    code, _, err = run_cli(
        ["qubo-build", "--problem", "assembly-path", "--n", "3"], capsys)
    assert code == 1


def test_qubo_build_unknown_problem_exits_three(capsys):
    code, _, _ = run_cli(["qubo-build", "--problem", "sudoku"], capsys)
    assert code == 3


def test_qubo_solve_brute(tmp_path, capsys):
    g = qubo.WeightedGraph(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
    model_file = tmp_path / "m.qubo"
    model_file.write_text(qubo.write_model(qubo.maxcut_to_ising(g).model))
    code, out, _ = run_cli(
        ["qubo-solve", "--model", str(model_file), "--no-timestamp"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["best_energy"] == pytest.approx(-2.0)
    assert len(payload["optimal_assignments"]) == 6


# One seeded model per problem kind at 16-20 variables (assembly-path: 4
# reads; knapsack: 11 items + 7 slack bits; max-cut: 20 nodes, 50 edges;
# phasing: 19 sites, 45 signed edges; MIS: 20 nodes, 45 edges, 44 optima),
# with the stdout recorded from the per-coupling enumeration that the block
# evaluation replaced.
BRUTE_GOLDEN = Path(__file__).parent / "data" / "brute_golden"


@pytest.mark.parametrize("kind", ["assembly-path", "knapsack", "max-cut",
                                  "phasing", "mis"])
def test_qubo_solve_brute_golden_output(capsys, monkeypatch, kind):
    monkeypatch.chdir(BRUTE_GOLDEN)
    code, out, _ = run_cli(
        ["qubo-solve", "--model", f"{kind}.qubo", "--solver", "brute",
         "--no-timestamp"], capsys)
    assert code == 0
    assert out == (BRUTE_GOLDEN / f"{kind}.json").read_text()


# The same five models through SA at the benchmark's 200 sweeps: best
# assignment, energy and the whole best-so-far trace, byte for byte.
@pytest.mark.parametrize("kind", ["assembly-path", "knapsack", "max-cut",
                                  "phasing", "mis"])
def test_qubo_solve_sa_golden_output(capsys, monkeypatch, kind):
    monkeypatch.chdir(BRUTE_GOLDEN)
    code, out, _ = run_cli(
        ["qubo-solve", "--model", f"{kind}.qubo", "--solver", "sa",
         "--sweeps", "200", "--seed", "7", "--no-timestamp"], capsys)
    assert code == 0
    assert out == (BRUTE_GOLDEN / f"{kind}.sa.json").read_text()


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=5))


@settings(max_examples=200, deadline=None)
@given(value=st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=20))
def test_json_emitter_equals_indented_dumps(value):
    # Includes inf and nan, all-number lists split from one encode call, and
    # strings holding ", " beside numbers.
    assert cli._json_text(value) == json.dumps(
        value, indent=2, sort_keys=True)


def test_cli_imports_only_genoq_and_stdlib_past_numpy():
    # Cold set-up compiles and runs every module the CLI imports; any
    # third-party import besides numpy would add to it.
    code = ("import sys, numpy; before = set(sys.modules); import genoq.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    added = set(ast.literal_eval(out))
    assert "genoq" in added
    assert added - {"genoq"} <= sys.stdlib_module_names


BUILD_GOLDEN = Path(__file__).parent / "data" / "build_golden"


@pytest.mark.parametrize("kind", ["assembly-path", "knapsack", "max-cut",
                                  "phasing", "mis"])
def test_qubo_build_golden_output(capsys, kind):
    # Each encoder's serialized model is pinned byte for byte.
    code, out, _ = run_cli(
        ["qubo-build", "--problem", kind, "--input",
         str(BUILD_GOLDEN / f"{kind}.json"), "--no-timestamp"], capsys)
    assert code == 0
    assert out == (BUILD_GOLDEN / f"{kind}.qubo").read_text()


def test_qubo_build_out_then_solve(tmp_path, capsys):
    # The documented pipeline: the built file ends in "# key=value" lines.
    inst = tmp_path / "g.json"
    inst.write_text(json.dumps(
        {"n": 3, "edges": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]}))
    model_file = tmp_path / "m.qubo"
    code, _, _ = run_cli(
        ["qubo-build", "--problem", "max-cut", "--input", str(inst),
         "--out", str(model_file)], capsys)
    assert code == 0
    assert "\n# " in model_file.read_text()
    code, out, _ = run_cli(
        ["qubo-solve", "--model", str(model_file), "--no-timestamp"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["best_energy"] == pytest.approx(-2.0)
    assert len(payload["optimal_assignments"]) == 6


def test_qubo_solve_sa_requires_seed(tmp_path, capsys):
    model_file = tmp_path / "m.qubo"
    model_file.write_text("QUBO 2 0 spin\n0 1 -1\n")
    code, _, _ = run_cli(
        ["qubo-solve", "--model", str(model_file), "--solver", "sa"], capsys)
    assert code == 1


def test_qubo_solve_sa(tmp_path, capsys):
    model_file = tmp_path / "m.qubo"
    model_file.write_text("QUBO 4 0 spin\n0 1 -1\n1 2 -1\n2 3 -1\n")
    code, out, _ = run_cli(
        ["qubo-solve", "--model", str(model_file), "--solver", "sa",
         "--seed", "3", "--sweeps", "200", "--no-timestamp"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["best_energy"] == pytest.approx(-3.0)


@pytest.mark.parametrize("text, message", [
    ("", "empty model file"),
    ("QUBO 2 0 spin\n5 5 1\n", "line 2: bad term: need 0 <= i <= j < 2, got 5 5"),
    ("QUBO 2 0 spin\n-1 -1 2.0\n", "need 0 <= i <= j < 2, got -1 -1"),
    ("QUBO 2 0 spin\n1 0 1\n", "need 0 <= i <= j < 2, got 1 0"),
    ("QUBO 2 0 spin\n0 1 1\n# note\n0 1 2\n", "line 4: bad term: repeated term 0 1"),
    ("QUBO 2 0 spin\n0 0 1\n0 0 1\n", "repeated term 0 0"),
    ("QUBO 2 0 spin\n0 1\n", "expected 'i j value'"),
    ("QUBO 2 0 spin\n0 1 nan\n", "'nan' is not finite"),
    ("NOPE 2 0 spin\n", "line 1: bad model header"),
    ("QUBO 0 0 spin\n", "model needs at least one variable"),
    ("QUBO two 0 spin\n", "bad model header"),
    # int() and float() would read these as J = 10, n = 16 and h = 1, and
    # split() would read "0 1 1" past the no-break space.
    ("QUBO 2 0 spin\n0 1 1_0\n", "line 2: only ASCII characters other than '_'"),
    ("QUBO 1_6 0 binary\n", "line 1: only ASCII characters other than '_'"),
    ("QUBO 2 0 spin\n# ok\n0 0 \u0661\n", "line 3: only ASCII characters"),
    ("QUBO 2 0 spin\n0\u00a01 1\n", "line 2: only ASCII characters"),
], ids=["empty", "index-above-n", "negative-index", "i-above-j", "repeated-coupling",
        "repeated-field", "two-fields", "nan", "bad-magic", "zero-variables",
        "bad-n", "underscore-value", "underscore-header", "arabic-indic-digit",
        "no-break-space"])
def test_qubo_solve_malformed_model_exits_three(tmp_path, capsys, text, message):
    model_file = tmp_path / "m.qubo"
    model_file.write_text(text)
    code, out, err = run_cli(["qubo-solve", "--model", str(model_file)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("genoq: parse error: ") and message in err
    assert err.count("\n") == 1


def test_qubo_solve_model_comments_may_hold_any_text(tmp_path, capsys):
    model_file = tmp_path / "m.qubo"
    model_file.write_text("# snake_case note, \u0661 and \u00e9\nQUBO 2 0 spin\n"
                          "  # 0 1 1_0\n0 1 -1\n")
    code, out, _ = run_cli(["qubo-solve", "--model", str(model_file),
                            "--no-timestamp"], capsys)
    assert code == 0
    assert json.loads(out)["optimal_assignments"] == [[-1, -1], [1, 1]]


@pytest.mark.parametrize("flags", [
    ["--beta-end", "inf"], ["--beta-start", "inf", "--beta-end", "inf"],
    ["--beta-start", "nan"], ["--beta-start", "1e-320"],
    ["--beta-start", "3e-308", "--beta-end", "3e-308"]],
    ids=["end-inf", "both-inf", "start-nan", "start-subnormal", "start-tiny"])
def test_qubo_solve_sa_bad_beta_exits_one(tmp_path, capsys, flags):
    # An infinite beta_end annealed on 0 * inf and wrote "beta_end": Infinity;
    # an Exp(1) draw over a tiny beta_start overflowed.
    model_file = tmp_path / "m.qubo"
    model_file.write_text("QUBO 3 0 spin\n0 1 -1\n1 2 -1\n")
    code, out, err = run_cli(["qubo-solve", "--model", str(model_file),
                              "--solver", "sa", "--seed", "1", "--sweeps", "2000",
                              *flags], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("genoq: error: need 1e-300 <= beta_start <= beta_end")
    assert err.count("\n") == 1


@pytest.mark.parametrize("problem, text, message", [
    ("max-cut", '{"edges": []}', "missing key 'n'"),
    ("max-cut", "[]", "expected a JSON object"),
    ("max-cut", "{", "bad instance JSON"),
    ("max-cut", '{"n": 3, "edges": 5}', "bad instance JSON"),
    ("phasing", '{"n": 2, "edges": [[0, 1]]}', "bad instance JSON"),
    ("mis", '{"n": 2, "edges": [[0, 5, 1.0]]}', "(0, 5)"),
    ("knapsack", '{"values": [1]}', "missing key 'weights'"),
    ("tsp-path", '{"overlaps": []}', "missing key 'n'"),
    ("max-cut", '{"n": 3, "edges": [[0, 1.5, 1.0]]}', "expected an integer, got 1.5"),
    ("knapsack", '{"values": [2.5], "weights": [1], "capacity": 3}',
     "expected an integer, got 2.5"),
    ("assembly-path", '{"n": 3, "overlaps": [[0, 1, 4.0], [0, 1, 9.0], [1, 2, 1.0]]}',
     "repeated overlap 0 1"),
    # json.loads reads NaN, so the graph's own finiteness check refuses it.
    ("max-cut", '{"n": 3, "edges": [[0, 1, NaN]]}', "edge weights must be finite"),
    ("tsp-path", '{"n": 2, "overlaps": [[0, 5, 1.0]]}', "overlap (0, 5) out of range"),
    # Weights are JSON numbers: float() would read "2.5" as 2.5 and true as 1.0.
    ("max-cut", '{"n": 3, "edges": [[0, 1, "2.5"]]}', "expected a number, got '2.5'"),
    ("mis", '{"n": 3, "edges": [[0, 1, true]]}', "expected a number, got True"),
    ("assembly-path", '{"n": 2, "overlaps": [[0, 1, "4"]]}',
     "expected a number, got '4'"),
    ("tsp-path", '{"n": 2, "overlaps": [[0, 1, false]]}',
     "expected a number, got False"),
    ("max-cut", '{"n": 0}', "graph needs at least one node"),
    ("phasing", '{"n": -1, "edges": []}', "graph needs at least one node"),
    ("mis", '{"n": -9223372036854775809}', "graph needs at least one node"),
], ids=["no-n", "not-object", "bad-json", "edges-not-list", "short-edge",
        "edge-out-of-range", "no-weights", "overlaps-no-n", "fractional-index",
        "fractional-value", "repeated-overlap", "nan-weight", "overlap-out-of-range",
        "string-weight", "boolean-weight", "string-overlap", "boolean-overlap",
        "graph-n-0", "graph-n-minus-1", "graph-n-below-int64"])
def test_qubo_build_malformed_instance_exits_three(tmp_path, capsys, problem,
                                                   text, message):
    inst = tmp_path / "i.json"
    inst.write_text(text)
    code, out, err = run_cli(
        ["qubo-build", "--problem", problem, "--input", str(inst)], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("genoq: parse error: ") and message in err
    assert err.count("\n") == 1


def test_qubo_build_knapsack_overflowing_capacity_exits_one(tmp_path, capsys):
    # A valid instance whose penalty terms are past float range.
    inst = tmp_path / "k.json"
    inst.write_text(json.dumps({"values": [4, 5], "weights": [2, 3],
                                "capacity": 10**200}))
    code, out, err = run_cli(
        ["qubo-build", "--problem", "knapsack", "--input", str(inst)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("genoq: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("problem, instance", [
    ("max-cut", {"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]}),
    ("assembly-path", {"n": 3, "overlaps": [[0, 1, 1e308], [1, 2, 1e308]]}),
], ids=["max-cut", "assembly-path"])
def test_qubo_build_non_finite_model_exits_one(tmp_path, capsys, problem,
                                               instance):
    # Finite weights whose encoding overflows: a model file cannot hold the
    # result, so nothing is written.
    inst, model = tmp_path / "i.json", tmp_path / "m.qubo"
    inst.write_text(json.dumps(instance))
    code, out, err = run_cli(["qubo-build", "--problem", problem, "--input",
                              str(inst), "--out", str(model)], capsys)
    assert code == 1
    assert out == ""
    assert err == ("genoq: error: model has a non-finite coefficient; "
                   "model files hold finite numbers only\n")
    assert not model.exists()


def test_qubo_build_needs_input(capsys):
    code, _, err = run_cli(["qubo-build", "--problem", "max-cut"], capsys)
    assert code == 1
    assert err == "genoq: error: max-cut builds need --input\n"


def test_qubo_build_empty_input_is_read_not_skipped(capsys):
    # An empty --input names a file to open, not a missing flag, so a
    # tsp-path build does not fall back to a random instance.
    code, out, err = run_cli(
        ["qubo-build", "--problem", "tsp-path", "--input=", "--n", "3",
         "--seed", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("genoq: error: ") and err.count("\n") == 1


MODEL_LINES = st.one_of(
    st.sampled_from(["QUBO 3 0 spin", "QUBO 2 0.5 binary", "QUBO 1 0 spin"]),
    st.builds("{} {} {}".format, st.integers(-2, 4), st.integers(-2, 4),
              st.sampled_from(["1", "-0.5", "nan", "inf", "1e999", "x"])),
    st.text(max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(
           st.binary(max_size=64),
           st.lists(MODEL_LINES, max_size=6).map(lambda ls: "\n".join(ls).encode())),
       solver=st.sampled_from(["brute", "sa"]))
def test_qubo_solve_any_model_bytes_exits_cleanly(data, solver):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.qubo")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["qubo-solve", "--model", path, "--solver", solver,
                         "--seed", "1", "--sweeps", "2"])
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert json.loads(out.getvalue())["solver"] == solver
    else:
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("solver", ["brute", "sa"])
def test_qubo_solve_brute_overflowing_model_exits_one(tmp_path, capsys, solver):
    # Every value is finite, but the energies' sums overflow a float.
    model_file = tmp_path / "m.qubo"
    model_file.write_text("QUBO 2 0 spin\n0 0 1e308\n1 1 1e308\n0 1 1e308\n")
    code, out, err = run_cli(["qubo-solve", "--model", str(model_file),
                              "--solver", solver, "--seed", "1", "--sweeps", "3"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == ("genoq: error: model energies overflow: the sum of "
                   "|coefficients| is not finite\n")


def test_qubo_solve_missing_model_exits_one(capsys):
    code, _, _ = run_cli(["qubo-solve", "--model", "/nonexistent"], capsys)
    assert code == 1


def test_tts_scan_stub_closed_form(capsys):
    code, out, _ = run_cli(
        ["tts-scan", "--sizes", "8,12,16", "--t-grid", "1,4,16,64,256",
         "--stub-tau", "2.0", "--seed", "1", "--no-timestamp"], capsys)
    assert code == 0
    lines = out.splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert data[0] == "N,t,p_hat,R,TTS"
    import math

    first = data[1].split(",")
    n, t = int(first[0]), float(first[1])
    assert float(first[2]) == 1.0 - math.exp(-t / (2.0 * n))
    assert any(ln.startswith("# power_law_exponent=") for ln in lines)
    assert any(ln.startswith("# exponential_base=") for ln in lines)


def test_tts_scan_sa_small(capsys):
    code, out, _ = run_cli(
        ["tts-scan", "--sizes", "6,8", "--t-grid", "2,8,32", "--runs", "10",
         "--seed", "4", "--no-timestamp"], capsys)
    assert code == 0
    assert "N,TTS_star,t_star,boundary_flag" in out


def test_tts_scan_memory_does_not_grow_with_t(capsys):
    # Runs stop at their first hit within a few sweeps, and the anneal builds
    # one block of betas at a time: a 1e9-sweep ladder alone would be 8 GB.
    tracemalloc.start()
    try:
        code, out, _ = run_cli(
            ["tts-scan", "--sizes", "8", "--t-grid", "1e9", "--runs", "2",
             "--seed", "1", "--no-timestamp"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "8,1000000000,1,1,1000000000" in out
    assert peak < 4 << 20


@pytest.mark.parametrize("t_grid, low", [("-1", "-1"), ("0,1", "0"),
                                         ("1,-2.5", "-2.5")])
@pytest.mark.parametrize("stub", [[], ["--stub-tau", "2"], ["--stub-tau", "1e-308"]],
                         ids=["sa", "stub", "stub-tiny-tau"])
def test_tts_scan_t_not_positive_exits_one(capsys, monkeypatch, t_grid, low, stub):
    # Refused before any model is built, on both paths.
    monkeypatch.setattr(solvers, "planted_ferromagnet", None)
    code, out, err = run_cli(
        ["tts-scan", "--sizes", "4", f"--t-grid={t_grid}", "--seed", "0"]
        + stub, capsys)
    assert code == 1
    assert out == ""
    assert err == f"genoq: error: --t-grid values must be > 0, got {low}\n"


def test_tts_scan_sa_rejects_fractional_t(capsys):
    code, out, err = run_cli(
        ["tts-scan", "--sizes", "8", "--t-grid", "1,2,2.5", "--runs", "4",
         "--seed", "1", "--no-timestamp"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("genoq: error: SA run time t must be a whole number of "
                   "sweeps >= 1, got 2.5\n")


def test_tts_scan_stub_accepts_fractional_t(capsys):
    code, out, _ = run_cli(
        ["tts-scan", "--sizes", "8,9,10", "--t-grid", "1.5,2.5,2.9",
         "--stub-tau", "2.0", "--seed", "1", "--no-timestamp"], capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()
            if ln[:1].isdigit() and ln.count(",") == 4]
    assert [float(r[1]) for r in rows[:3]] == [1.5, 2.5, 2.9]
    for _, t, _, reps, total in rows:
        assert float(total) == pytest.approx(int(reps) * float(t))


# Recorded from the SA kernel that draws an estimate's randomness a block of
# sweeps at a time, for all of its runs from one generator, with the model of
# size n seeded by [seed, n] and its estimate at t by [seed, n, t]; tts-scan
# without brute force must reproduce it byte for byte.
TTS_GOLDEN = """\
# command=tts-scan
# version=0.1.0
# param.density=0.5
# param.runs=8
# param.seed=5
# param.sizes=8,10,12
# param.t_grid=1,2,4,8,16
# param.target_p=0.90000000000000002
N,t,p_hat,R,TTS
8,1,0,excluded,excluded
8,2,0.125,18,36
8,4,0.5,4,16
8,8,0.875,2,16
8,16,1,1,16
10,1,0,excluded,excluded
10,2,0.25,9,18
10,4,0.25,9,36
10,8,1,1,8
10,16,1,1,16
12,1,0,excluded,excluded
12,2,0,excluded,excluded
12,4,0.625,3,12
12,8,0.875,2,16
12,16,1,1,16
N,TTS_star,t_star,boundary_flag
8,16,4,0
10,8,8,0
12,12,4,1
# power_law_exponent=-0.79774656029522306
# power_law_stderr=1.517966224626885
# exponential_base=0.93060485910209956
# exponential_stderr=0.15857102514939136
"""


def test_tts_scan_golden_output_without_brute_force(capsys, monkeypatch):
    def no_brute_force(model):
        raise AssertionError("tts-scan must not brute-force planted instances")

    monkeypatch.setattr(solvers, "brute_force", no_brute_force)
    code, out, _ = run_cli(
        ["tts-scan", "--sizes", "8,10,12", "--t-grid", "1,2,4,8,16",
         "--runs", "8", "--seed", "5", "--no-timestamp"], capsys)
    assert code == 0
    assert out == TTS_GOLDEN


def test_tts_scan_prepares_each_model_once(capsys, monkeypatch):
    # Every t's estimate reads the size's one planted model, which caches
    # the neighbour lists that its SA runs build; every t's estimate still
    # goes through estimate_success_probability.
    models, estimates = [], []

    def planted(*args, original=solvers.planted_ferromagnet, **kwargs):
        models.append(original(*args, **kwargs))
        return models[-1]

    def counted(model, *args, original=tts.estimate_success_probability,
                **kwargs):
        estimates.append(model)
        return original(model, *args, **kwargs)

    monkeypatch.setattr(solvers, "planted_ferromagnet", planted)
    monkeypatch.setattr(tts, "estimate_success_probability", counted)
    code, out, _ = run_cli(
        ["tts-scan", "--sizes", "8,10,12", "--t-grid", "1,2,4,8,16",
         "--runs", "8", "--seed", "5", "--no-timestamp"], capsys)
    assert code == 0
    assert out == TTS_GOLDEN
    assert len(models) == 3
    assert len(estimates) == 15
    assert all(m is models[k // 5] for k, m in enumerate(estimates))
    # Each model caches its neighbour lists once, as ``rises`` alone.
    fields = {f.name for f in dataclasses.fields(models[0])}
    assert all(vars(m).keys() - fields == {"arrays", "scale", "exact", "rises"}
               for m in models)


def test_tts_scan_gives_every_model_and_estimate_its_own_seed(capsys, monkeypatch):
    # With seed + n and seed + n + t, (8, t=4), (10, t=2) and the 12-spin
    # model all drew from seed + 12.
    seeds = []
    for module, name in ((solvers, "planted_ferromagnet"),
                         (tts, "estimate_success_probability")):
        def recorded(*args, original=getattr(module, name), **kwargs):
            seeds.append(tuple(kwargs.get("seed", args[-1])))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    code, _, _ = run_cli(
        ["tts-scan", "--sizes", "8,10,12", "--t-grid", "1,2,4",
         "--runs", "4", "--seed", "5", "--no-timestamp"], capsys)
    assert code == 0
    assert seeds == [s for n in (8, 10, 12)
                     for s in [(5, n)] + [(5, n, t) for t in (1, 2, 4)]]


# The same, at the benchmark's t grid and run count.
TTS_GOLDEN_BENCH_SHAPE = """\
# command=tts-scan
# version=0.1.0
# param.density=0.5
# param.runs=16
# param.seed=3
# param.sizes=14,20
# param.t_grid=1,2,4,8,16,32,64,128
# param.target_p=0.90000000000000002
N,t,p_hat,R,TTS
14,1,0,excluded,excluded
14,2,0.1875,12,24
14,4,0.75,2,8
14,8,1,1,8
14,16,1,1,16
14,32,1,1,32
14,64,1,1,64
14,128,1,1,128
20,1,0,excluded,excluded
20,2,0,excluded,excluded
20,4,0.375,5,20
20,8,1,1,8
20,16,1,1,16
20,32,1,1,32
20,64,1,1,64
20,128,1,1,128
N,TTS_star,t_star,boundary_flag
14,8,4,0
20,8,8,0
"""


def test_tts_scan_golden_output_at_bench_shape(capsys):
    code, out, _ = run_cli(
        ["tts-scan", "--sizes", "14,20", "--t-grid", "1,2,4,8,16,32,64,128",
         "--runs", "16", "--seed", "3", "--no-timestamp"], capsys)
    assert code == 0
    assert out == TTS_GOLDEN_BENCH_SHAPE


def test_determinism_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["tts-scan", "--sizes", "8,12,16", "--t-grid", "1,4,16",
            "--stub-tau", "1.5", "--seed", "7", "--no-timestamp"]
    assert run_cli(argv + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(argv + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("shots=512\niterations=1\n")
    code, out, _ = run_cli(
        ["--config", str(cfg), "grover-demo", "--seed", "1",
         "--no-timestamp"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["parameters"]["shots"] == 512
    assert sum(payload["histogram"].values()) == 512


def test_config_equals_form_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("shots=512\n")
    code, out, _ = run_cli(
        [f"--config={cfg}", "grover-demo", "--seed", "1", "--no-timestamp"],
        capsys)
    assert code == 0
    assert sum(json.loads(out)["histogram"].values()) == 512


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("shots=512\n")
    code, out, _ = run_cli(
        ["--config", str(cfg), "grover-demo", "--seed", "1", "--shots", "64",
         "--no-timestamp"], capsys)
    assert code == 0
    assert sum(json.loads(out)["histogram"].values()) == 64


@pytest.mark.parametrize("line, argv", [
    ("profile=foo", ["runtime", "--N", "3e9"]),
    ("solver=magic", ["qubo-solve", "--model", "unread.qubo", "--seed", "1"]),
], ids=["runtime-profile", "qubo-solve-solver"])
def test_config_value_outside_choices_exits_three(tmp_path, capsys, line, argv):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(["--config", str(cfg)] + argv, capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert f"config value {line.split('=')[0]}=" in err


def test_config_value_gets_the_flag_type(tmp_path, capsys):
    # A bare number reaches --freq as the string the flag would give.
    cfg = tmp_path / "cfg"
    cfg.write_text("freq=10000\n")
    code, out, _ = run_cli(
        ["--config", str(cfg), "runtime", "--N", "3e9", "--no-timestamp"], capsys)
    assert code == 0
    assert "# max_depth_per_call=10\n" in out
    cfg.write_text("shots=2.5\n")
    code, _, err = run_cli(
        ["--config", str(cfg), "grover-demo", "--seed", "1"], capsys)
    assert code == 3
    assert "invalid int value: '2.5'" in err


@pytest.mark.parametrize("key", ["freq", "sweep"])
def test_empty_config_value_is_read_not_skipped(tmp_path, capsys, key):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"{key}=\n")
    code, out, err = run_cli(
        ["--config", str(cfg), "runtime", "--N", "100", "--no-timestamp"],
        capsys)
    assert code == 3
    assert out == ""
    assert err == f"genoq: parse error: bad --{key} value ''\n"


@pytest.mark.parametrize("flag, value", [
    ("--budget", "inf"), ("--budget", "nan"), ("--freq", "inf"), ("--freq", "nan"),
])
def test_runtime_non_finite_value_exits_one(capsys, flag, value):
    code, out, err = run_cli(["runtime", "--N", "3e9", flag, value], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "must be positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
def test_runtime_bad_classical_seconds_exits_one(capsys, value):
    code, out, err = run_cli(
        ["runtime", "--N", "3e9", f"--classical-seconds={value}"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "must be positive and finite" in err


@pytest.mark.parametrize("value", ["nan", "-0.5", "1.5"])
def test_tts_scan_density_outside_unit_interval_exits_one(capsys, value):
    code, out, err = run_cli(
        ["tts-scan", "--sizes", "6,8", "--t-grid", "2,8", "--runs", "4",
         "--seed", "1", f"--density={value}"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"genoq: error: density must be in [0, 1], got {float(value)!r}\n"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_tts_scan_bad_stub_tau_exits_one(capsys, value):
    code, out, err = run_cli(
        ["tts-scan", "--sizes", "6,8", "--t-grid", "2,8", "--seed", "1",
         f"--stub-tau={value}"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("genoq: error: --stub-tau must be positive and finite, "
                   f"got {float(value)!r}\n")


@pytest.mark.parametrize("argv", [
    ["grover-demo"],
    ["grover-search", "--genome", "g.fa", "--key", "ATG"],
    ["loading-scan"],
    ["qubo-build", "--problem", "tsp-path", "--n", "3"],
    ["qubo-solve", "--model", "m.qubo", "--solver", "sa"],
    ["tts-scan", "--sizes", "8", "--t-grid", "1", "--runs", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("seed", ["-1", "-20", "x"])
def test_bad_seed_exits_three(capsys, argv, seed):
    code, out, err = run_cli(argv + [f"--seed={seed}"], capsys)
    assert code == 3
    assert out == ""
    assert err == (f"genoq {argv[0]}: error: argument --seed: expected a "
                   f"non-negative integer, got {seed!r}\n")


def test_config_negative_seed_exits_three(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed=-1\n")
    code, out, err = run_cli(["--config", str(cfg), "grover-demo"], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "argument --seed" in err


@pytest.mark.parametrize("sizes, low", [("-20", -20), ("0,8,12", 0)])
@pytest.mark.parametrize("stub", [[], ["--stub-tau", "2"]], ids=["sa", "stub"])
def test_tts_scan_size_below_one_exits_one(capsys, sizes, low, stub):
    code, out, err = run_cli(
        ["tts-scan", f"--sizes={sizes}", "--t-grid", "1", "--seed", "3"]
        + stub, capsys)
    assert code == 1
    assert out == ""
    assert err == f"genoq: error: --sizes must be >= 1, got {low}\n"


@pytest.mark.parametrize("sizes, repeated", [("8,8,8", 8), ("8,12,16,12", 12)])
@pytest.mark.parametrize("stub", [[], ["--stub-tau", "2"]], ids=["sa", "stub"])
def test_tts_scan_repeated_size_exits_one(capsys, sizes, repeated, stub):
    # A repeated size would print its rows twice and drop the fit.
    code, out, err = run_cli(
        ["tts-scan", "--sizes", sizes, "--t-grid", "1", "--seed", "3"]
        + stub, capsys)
    assert code == 1
    assert out == ""
    assert err == f"genoq: error: --sizes repeats {repeated}\n"


def test_bad_config_exits_three(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("not a pair\n")
    code, _, err = run_cli(
        ["--config", str(cfg), "grover-demo", "--seed", "1"], capsys)
    assert code == 3
    assert "config error" in err


@pytest.mark.parametrize("value, stamped", [
    ("false", True), ("No", True), ("0", True),
    ("true", False), ("YES", False), ("1", False),
])
def test_config_boolean_words(tmp_path, capsys, value, stamped):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"no_timestamp={value}\n")
    code, out, _ = run_cli(
        ["--config", str(cfg), "grover-demo", "--seed", "1"], capsys)
    assert code == 0
    assert ("timestamp" in json.loads(out)["meta"]) is stamped


def test_config_bad_boolean_exits_three(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("no_timestamp=maybe\n")
    code, out, err = run_cli(
        ["--config", str(cfg), "grover-demo", "--seed", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "config value no_timestamp='maybe'" in err


def test_config_defaults_do_not_leak_into_later_calls(tmp_path, capsys):
    # The parser without a config is built once per process; a config run
    # builds its own, so its defaults must not reach the next call.
    cfg = tmp_path / "cfg"
    cfg.write_text("shots=512\nno_timestamp=true\n")
    argv = ["grover-demo", "--seed", "1"]
    code, out, _ = run_cli(["--config", str(cfg)] + argv, capsys)
    assert code == 0
    assert "timestamp" not in json.loads(out)["meta"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert "timestamp" in payload["meta"]
    assert sum(payload["histogram"].values()) == 256


def test_config_unknown_key_exits_three(tmp_path, capsys):
    # A misspelt key would otherwise be dropped and its default used.
    cfg = tmp_path / "cfg"
    cfg.write_text("shot=512\n")
    code, out, err = run_cli(
        ["--config", str(cfg), "grover-demo", "--seed", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err == f"genoq: config error: {cfg}: no subcommand takes the key 'shot'\n"


@pytest.mark.parametrize("form", ["--config {}", "--config={}"])
def test_config_last_file_wins(tmp_path, capsys, form):
    first, last = tmp_path / "first", tmp_path / "last"
    first.write_text("shots=8\n")
    last.write_text("shots=16\n")
    code, out, _ = run_cli(
        [*form.format(first).split(), *form.format(last).split(), "grover-demo",
         "--seed", "1", "--no-timestamp"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["parameters"]["shots"] == 16
    assert sum(payload["histogram"].values()) == 16


@pytest.mark.parametrize("argv, message", [
    (["--config"], "genoq: config error: --config needs a file path\n"),
    (["--config=", "grover-demo"], "genoq: config error: "),
    # Abbreviations of --config are not read as it, so none slips past.
    (["--conf", "cfg", "grover-demo"], "genoq: error: argument command: "),
], ids=["no-path", "empty-path", "abbreviated"])
def test_config_flag_without_a_file_exits_three(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_config_supplies_required_flag_and_skips_other_commands(tmp_path,
                                                               capsys):
    # --N is required by runtime; shots belongs to the Grover commands only,
    # so a file shared between subcommands still works. Comments and blank
    # lines are skipped.
    cfg = tmp_path / "cfg"
    cfg.write_text("# shared settings\n\nN=3e9\nshots=4\n  \nno-timestamp=yes\n")
    code, out, _ = run_cli(["--config", str(cfg), "runtime"], capsys)
    assert code == 0
    _, expected, _ = run_cli(["runtime", "--N", "3e9", "--no-timestamp"], capsys)
    assert out == expected


def test_module_entry_point_exits_with_main_code():
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "genoq.cli", "runtime", "--N", "0"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "genoq: error: --N must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, text", [
    (["qubo-solve", "--model", "{path}"], "QUBO 1000000000 0 spin\n"),
    (["qubo-solve", "--model", "{path}", "--solver", "sa", "--seed", "1"],
     "QUBO 1048577 0 binary\n"),
    (["qubo-build", "--problem", "max-cut", "--input", "{path}"],
     '{"n": 1000000000}'),
    (["qubo-build", "--problem", "phasing", "--input", "{path}"],
     '{"n": 1000000000, "edges": [[0, 1, 1.0]]}'),
    (["qubo-build", "--problem", "mis", "--input", "{path}"],
     '{"n": 1048577}'),
    (["qubo-build", "--problem", "knapsack", "--input", "{path}"],
     json.dumps({"values": [1] * 1500, "weights": [1] * 1500,
                 "capacity": 3})),
    (["tts-scan", "--sizes", "100000", "--t-grid", "1", "--runs", "1",
      "--seed", "1"], ""),
    (["tts-scan", "--sizes", "8", "--t-grid", "1", "--runs", "100000000000",
      "--seed", "1"], ""),
], ids=["model-file", "model-file-sa", "max-cut", "phasing", "mis", "knapsack",
        "tts-scan", "tts-scan-runs"])
def test_model_over_size_cap_exits_two(tmp_path, capsys, argv, text):
    # Each is refused before anything the size of the model is allocated.
    path = tmp_path / "input"
    path.write_text(text)
    argv = [a.format(path=path) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("genoq: capacity error: ") and err.count("\n") == 1
    assert str(qubo.MODEL_MAX_VARS) in err


@pytest.mark.parametrize("argv, cap", [
    (["grover-search", "--genome", "{path}", "--key", "AT", "--shots",
      str(sim.MAX_SHOTS + 1), "--seed", "1"], sim.MAX_SHOTS),
    (["grover-demo", "--shots", "1000000000000", "--seed", "1"], sim.MAX_SHOTS),
    (["loading-scan", "--sizes", f"64,{(1 << 24) + 2}", "--seed", "1"],
     sim.MAX_SLOTS),
], ids=["grover-search-shots", "grover-demo-shots", "loading-scan-sizes"])
def test_over_slot_cap_exits_two(tmp_path, capsys, argv, cap):
    # 2^24 + 2 bases hold 2^24 + 1 windows of 2, past the 2^24-slot cap, and
    # one shot past the shot cap is too many. Each is refused before its
    # shots are drawn or any genome is.
    path = tmp_path / "g.txt"
    path.write_text("ATGCATGC\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli([a.format(path=path) for a in argv], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("genoq: capacity error: ") and err.count("\n") == 1
    assert str(cap) in err
    assert peak < 4 << 20


@pytest.mark.parametrize("text", ["QUBO 20 0 binary\n", "QUBO 25 0 spin\n"],
                         ids=["binary", "mirrored-spin"])
def test_over_optimum_cap_exits_two(tmp_path, capsys, text):
    # Every state is optimal. Brute force is refused as its candidates pass
    # the cap, long before 2^20 or more assignments are listed.
    path = tmp_path / "m.qubo"
    path.write_text(text)
    tracemalloc.start()
    try:
        code, out, err = run_cli(["qubo-solve", "--model", str(path)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("genoq: capacity error: ") and err.count("\n") == 1
    assert f"more than {solvers.BRUTE_FORCE_MAX_OPTIMA} optimal assignments" in err
    assert peak < 8 << 20


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 8.00 GiB"), "Unable to allocate 8.00 GiB"),
], ids=["bare", "numpy"])
def test_memory_error_exits_two(capsys, monkeypatch, exc, message):
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(grover, "loading_cost_scan", exhausted)
    code, out, err = run_cli(["loading-scan", "--seed", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"genoq: capacity error: {message}\n"


def test_random_assembly_without_size_exits_one(capsys):
    code, out, err = run_cli(["qubo-build", "--problem", "tsp-path", "--seed", "1"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == "genoq: error: assembly/tsp builds need --input or --n\n"


def test_tts_scan_runs_that_start_at_the_ground_stop_at_once(capsys):
    # At density 0 every state is a ground state, so every run stops before
    # its first sweep; annealing t = 1e9 sweeps per run would take hours.
    started = time.perf_counter()
    code, out, err = run_cli(
        ["tts-scan", "--sizes", "8", "--density", "0", "--t-grid", "1,1000000000",
         "--runs", "4", "--seed", "5", "--no-timestamp"], capsys)
    elapsed = time.perf_counter() - started
    assert code == 0
    assert err == ""
    assert "8,1,1,1,1\n8,1000000000,1,1,1000000000\n" in out
    assert elapsed < 10


@pytest.mark.parametrize("n, code, message", [
    ("7", 2, "7 reads exceeds the 6-read cap"),
    ("100000", 2, "100000 reads exceeds the 6-read cap"),
    ("-3", 1, "overlap graph needs at least one read"),
])
def test_random_assembly_size_is_checked_first(capsys, n, code, message):
    got, out, err = run_cli(
        ["qubo-build", "--problem", "tsp-path", "--n", n, "--seed", "1"], capsys)
    assert got == code
    assert out == ""
    assert message in err and err.count("\n") == 1
