"""The output checks accept real program outputs and reject corrupted ones.

    python3 -m pytest bench/test_checks.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from genoq import qubo  # noqa: E402
from genoq.cli import main  # noqa: E402


def _cli(tmp_path, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--no-timestamp", "--out", str(out)])
    return rc, out.read_text()


def _edit(text, **changes):
    obj = json.loads(text)
    obj.update(changes)
    return json.dumps(obj)


def test_grover_search_check(tmp_path):
    genome, key = "ATGCGTACCTGATTGCAACG", "TG"
    fasta = tmp_path / "g.fa"
    fasta.write_text(f">g\n{genome}\n")
    rc, text = _cli(tmp_path, ["grover-search", "--genome", str(fasta),
                               "--key", key, "--seed", "3"])
    assert checks.grover_search(rc, text, genome, key, None) == []
    p = json.loads(text)["p_exact"]
    assert checks.grover_search(rc, _edit(text, p_exact=p + 1e-6), genome, key, None)
    stray = {"index": 0, "window": key}  # window 0 is "AT", not a match
    assert checks.grover_search(rc, _edit(text, matches=[stray]), genome, key, None)
    assert checks.grover_search(1, text, genome, key, None)
    assert checks.absent_key(None) == []
    assert checks.absent_key(object())


def test_qubo_checks(tmp_path):
    graph = qubo.WeightedGraph(5, {(0, 1): 3.0, (1, 2): 2.0, (2, 3): 4.0,
                                   (3, 4): 1.0, (0, 4): 5.0, (1, 3): 2.0})
    enc = qubo.maxcut_to_ising(graph)
    model_path = tmp_path / "m.qubo"
    model_path.write_text(qubo.write_model(enc.model))
    optimum = checks.native_optimum("max-cut", graph)
    rc, text = _cli(tmp_path, ["qubo-solve", "--model", str(model_path)])
    assert checks.qubo_brute(rc, text, enc, "max-cut", optimum) == []
    best = json.loads(text)
    wrong = _edit(text, best_energy=best["best_energy"] + 1.0)
    assert checks.qubo_brute(rc, wrong, enc, "max-cut", optimum)
    fewer = _edit(text, optimal_assignments=best["optimal_assignments"][:1])
    assert checks.qubo_brute(rc, fewer, enc, "max-cut", optimum)

    rc, text = _cli(tmp_path, ["qubo-solve", "--model", str(model_path),
                               "--solver", "sa", "--seed", "1"])
    assert checks.qubo_sa(rc, text, enc.model, optimum[0]) == []
    sa = json.loads(text)
    assert checks.qubo_sa(rc, _edit(text, best_energy=sa["best_energy"] - 0.5),
                          enc.model, optimum[0])


def test_knapsack_and_roundtrip_checks(tmp_path):
    inst = qubo.KnapsackInstance((4, 5, 3, 7), (2, 3, 1, 4), 6)
    enc = qubo.knapsack_to_qubo(inst)
    model_path = tmp_path / "k.qubo"
    model_path.write_text(qubo.write_model(enc.model))
    optimum = checks.native_optimum("knapsack", inst)
    rc, text = _cli(tmp_path, ["qubo-solve", "--model", str(model_path)])
    assert checks.qubo_brute(rc, text, enc, "knapsack", optimum) == []
    assert checks.qubo_brute(rc, text, enc, "knapsack", (optimum[0] - 1, optimum[1]))
    read_back = qubo.read_model(qubo.write_model(enc.model))
    assert checks.model_roundtrip(enc.model, read_back) == []
    h = (read_back.h[0] + 1e-9,) + read_back.h[1:]
    assert checks.model_roundtrip(enc.model, qubo.BinaryModel(
        read_back.n, h, read_back.J, read_back.offset))


def test_cost_model_checks(tmp_path):
    sizes = [64, 128, 256, 512, 1024, 2048, 4096]
    rc, text = _cli(tmp_path, ["loading-scan", "--sizes", ",".join(map(str, sizes)),
                               "--window", "2", "--seed", "9"])
    assert checks.loading_scan(rc, text, sizes, 2, 9) == []
    row = text.split("\n64,")[1].split("\n")[0]
    assert checks.loading_scan(rc, text.replace(f"\n64,{row}", f"\n64,{row}1"),
                               sizes, 2, 9)
    argv = ["runtime", "--N", "3000000000", "--budget", "60", "--sweep", "1000,1000000"]
    rc, text = _cli(tmp_path, argv)
    assert checks.runtime(rc, text, 3 * 10**9, 60.0, 1e4, 60.0, [1000, 10**6]) == []
    assert checks.runtime(rc, text.replace("# calls=54773", "# calls=54772"),
                          3 * 10**9, 60.0, 1e4, 60.0, [1000, 10**6])


def test_tts_checks(tmp_path):
    rc, text = _cli(tmp_path, ["tts-scan", "--sizes", "8", "--t-grid", "1,2,4,8",
                               "--runs", "6", "--seed", "4"])
    assert checks.tts_scan(rc, text, [8], [1, 2, 4, 8], 6, 0.9) == []
    assert checks.planted_ground(8, 0.5, 4 + 8) == []
    lines = text.splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("8,8,"))
    lines[i] = "8,8,1,2,16"  # p_hat = 1 needs one repetition, not two
    assert checks.tts_scan(rc, "\n".join(lines), [8], [1, 2, 4, 8], 6, 0.9)


def test_cli_exit_is_a_failed_operation():
    import run
    from workloads import Job

    job = Job(label="bad argument", kind="cli", check=lambda rc: [],
              run=lambda: main(["grover-search", "--no-such-flag"]))
    outcomes = run.Outcomes([job])
    outcomes.run(0)
    outcomes.check()
    assert outcomes.failed() == 1
    assert outcomes.errors[(0, "raised")] == ["SystemExit: 3"]
