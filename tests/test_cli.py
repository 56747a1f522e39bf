import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genoq import grover, qubo, solvers, tts
from genoq.cli import main


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
    ("", "empty --key"),
], ids=["non-acgt", "empty"])
def test_grover_search_bad_key_exits_three(tmp_path, capsys, key, message):
    genome = tmp_path / "g.txt"
    genome.write_text("ATGCATGC\n")
    code, _, err = run_cli(
        ["grover-search", "--genome", str(genome), "--key", key,
         "--seed", "1"], capsys)
    assert code == 3
    assert err == f"genoq: parse error: {message}\n"


def test_grover_search_capacity_exits_two(tmp_path, capsys):
    genome = tmp_path / "g.txt"
    genome.write_text("ATGC" * 64 + "\n")
    code, _, err = run_cli(
        ["grover-search", "--genome", str(genome), "--key", "ATGCATGCATGC",
         "--seed", "1"], capsys)
    assert code == 2
    assert "qubits" in err


@pytest.mark.parametrize("max_qubits, ceiling", [("20", "20"), ("64", "26")])
def test_grover_search_over_ceiling_exits_two(tmp_path, capsys, max_qubits, ceiling):
    # 16 windows of 12 bases: 4 index + 24 data qubits.
    genome = tmp_path / "g.txt"
    genome.write_text("ATGC" * 6 + "ATG\n")
    code, out, err = run_cli(
        ["grover-search", "--genome", str(genome), "--key", "ATGCATGCATGC",
         "--seed", "1", "--max-qubits", max_qubits], capsys)
    assert code == 2
    assert out == ""
    assert "28 qubits" in err
    assert err.endswith(f"ceiling is {ceiling}\n") and err.count("\n") == 1


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
], ids=["loading-sizes", "tts-sizes", "tts-t-grid", "runtime-sweep",
        "runtime-sweep-inf", "runtime-N", "runtime-N-inf", "runtime-N-list",
        "runtime-freq", "runtime-N-fraction", "runtime-sweep-fraction"])
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
], ids=["no-n", "not-object", "bad-json", "edges-not-list", "short-edge",
        "edge-out-of-range", "no-weights", "overlaps-no-n", "fractional-index",
        "fractional-value", "repeated-overlap"])
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


def test_qubo_build_needs_input(capsys):
    code, _, err = run_cli(["qubo-build", "--problem", "max-cut"], capsys)
    assert code == 1
    assert err == "genoq: error: max-cut builds need --input\n"


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
# sweeps at a time, for all of its runs from one generator; tts-scan without
# brute force must reproduce it byte for byte.
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
8,1,0.25,9,9
8,2,0,excluded,excluded
8,4,0.875,2,8
8,8,1,1,8
8,16,1,1,16
10,1,0.125,18,18
10,2,0,excluded,excluded
10,4,1,1,4
10,8,1,1,8
10,16,1,1,16
12,1,0,excluded,excluded
12,2,0.25,9,18
12,4,0.625,3,12
12,8,1,1,8
12,16,1,1,16
N,TTS_star,t_star,boundary_flag
8,8,4,0
10,4,4,0
12,8,8,0
# power_law_exponent=-0.11435536231418986
# power_law_stderr=1.9673264407290283
# exponential_base=0.99999999999999978
# exponential_stderr=0.20009435564215772
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
    # Every preparation builds the model's arrays once; every t's estimate
    # still goes through estimate_success_probability.
    calls = {}
    for module, name in ((solvers, "_arrays"),
                         (tts, "estimate_success_probability")):
        def counted(*args, name=name, original=getattr(module, name),
                    **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code, out, _ = run_cli(
        ["tts-scan", "--sizes", "8,10,12", "--t-grid", "1,2,4,8,16",
         "--runs", "8", "--seed", "5", "--no-timestamp"], capsys)
    assert code == 0
    assert out == TTS_GOLDEN
    assert calls == {"_arrays": 3, "estimate_success_probability": 15}


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
14,4,0.5625,3,12
14,8,1,1,8
14,16,1,1,16
14,32,1,1,32
14,64,1,1,64
14,128,1,1,128
20,1,0,excluded,excluded
20,2,0,excluded,excluded
20,4,0.5625,3,12
20,8,1,1,8
20,16,1,1,16
20,32,1,1,32
20,64,1,1,64
20,128,1,1,128
N,TTS_star,t_star,boundary_flag
14,8,8,0
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
], ids=["model-file", "model-file-sa", "max-cut", "phasing", "mis", "knapsack",
        "tts-scan"])
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
