"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(run with ``pytest -s`` to see them inline). Budgets are wall-clock upper
bounds; all randomness is fixed-seeded.
"""

import json
import math
import time

import numpy as np
import pytest

from genoq import grover, qubo, runtime, solvers, tts
from genoq.cli import main
from genoq.genome import build_window_db, encode_window, layout_for


def _report(name: str, ok: bool, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s / {budget:.0f}s budget)")
    assert ok, name
    assert elapsed < budget, f"{name}: {elapsed:.2f}s over {budget}s budget"


def test_acceptance_1_toy_demo(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "demo.json"
    code = main(["grover-demo", "--seed", "1", "--no-timestamp",
                 "--out", str(out)])
    payload = json.loads(out.read_text())
    ok = (
        code == 0
        and payload["iterations"] == 1
        and payload["top_outcome"] == "0100"
        and payload["p_exact"] >= 0.999
    )
    code0 = main(["grover-demo", "--seed", "1", "--iterations", "0",
                  "--no-timestamp", "--out", str(out)])
    p0 = json.loads(out.read_text())["p_exact"]
    ok = ok and code0 == 1 and abs(p0 - 0.25) < 1e-12
    _report("toy 4-element search demo", ok, t0, budget=1.0)


def test_acceptance_2_register_sizing():
    t0 = time.perf_counter()
    layout = layout_for(3 * 10**9, 100)
    ok = layout.index_qubits == 32 and layout.data_qubits == 200
    _report("register sizing N=3e9, M=100", ok, t0, budget=5.0)


def test_acceptance_3_loading_scaling():
    t0 = time.perf_counter()
    sizes = [64, 128, 256, 512, 1024, 2048, 4096]
    _, prep_exponent, total_exponent = grover.loading_cost_scan(
        sizes, 2, seed=2024)
    ok = (
        abs(prep_exponent - 1.0) <= 0.15
        and abs(total_exponent - 1.5) <= 0.15
    )
    _report(
        f"loading scaling (prep {prep_exponent:.3f}, "
        f"total {total_exponent:.3f})", ok, t0, budget=60.0)


def test_acceptance_4_runtime_numbers():
    t0 = time.perf_counter()
    n = 3 * 10**9
    calls, _ = runtime.quantum_runtime(n, 1, runtime.SURFACE_10KHZ)
    depth_khz = runtime.max_depth_per_call(n, 60.0, runtime.SURFACE_10KHZ)
    depth_mhz = runtime.max_depth_per_call(n, 60.0, runtime.OPTIMISTIC_10MHZ)
    ok = (
        calls == 54773
        and 5.4e4 <= calls <= 6.0e4
        and depth_khz == 10
        and depth_mhz == 10954
        and math.floor(math.log10(depth_mhz)) == 4  # order 1e4
    )
    _report("runtime crossover arithmetic", ok, t0, budget=5.0)


def _argmax_decode(problem, iterations):
    """The most probable slot after ``iterations``, and its window code."""
    codes, _, amps = grover.slot_amplitudes(problem, iterations)
    best = int(np.argmax(amps ** 2))
    return best, int(codes[best]) if best < codes.size else None


def test_acceptance_5_grover_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    checked = 0
    agree = True
    while checked < 200:
        n = int(rng.integers(8, 65))
        m = int(rng.integers(1, 5))
        genome = "".join(rng.choice(list("ATGC"), size=n))
        db = build_window_db(genome, m)
        start = int(rng.integers(0, db.count))
        key = genome[start : start + m]
        scan = grover.classical_scan(db, key)
        if len(scan) != 1:
            continue  # unique planted key only
        problem = grover.make_problem(db, key)
        k = grover.optimal_iterations(db.padded_size, 1)
        index, data = _argmax_decode(problem, k)
        agree &= scan == [index] and data == int(encode_window(key), 2)
        checked += 1

    # Closed form: s matches among padded_size slots, theta = asin(sqrt(s/P)).
    formula_ok = True
    for n in range(2, 33):
        db_padded = build_window_db("A" * n, 1).padded_size
        for s in range(1, n + 1):
            problem = grover.make_problem(
                build_window_db("A" * s + "T" * (n - s), 1), "A")
            theta = math.asin(math.sqrt(s / db_padded))
            for k in range(11):
                _, marked, amps = grover.slot_amplitudes(problem, k)
                p = float((amps[marked] ** 2).sum())
                expected = math.sin((2 * k + 1) * theta) ** 2
                formula_ok &= abs(p - expected) <= 1e-9
    _report(
        f"search correctness ({checked} instances, closed form n<=32)",
        agree and formula_ok, t0, budget=120.0)


def _all_bits(n):
    idx = np.arange(1 << n, dtype=np.int64)
    return (idx[:, None] >> np.arange(n)) & 1


def test_acceptance_6_encoder_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6006)
    ok = True

    def random_edges(n, signed):
        lo = -5 if signed else 1
        return {
            (i, j): float(rng.integers(lo, 6))
            for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.6 and (signed or True)
        }

    for _ in range(100):  # max-cut
        n = int(rng.integers(2, 13))
        edges = {e: w for e, w in random_edges(n, signed=True).items() if w != 0}
        g = qubo.WeightedGraph(n, edges)
        enc = qubo.maxcut_to_ising(g)
        best_e, best = solvers.brute_force(enc.model)
        bits = _all_bits(n)
        cuts = np.zeros(1 << n)
        for (i, j), w in edges.items():
            cuts += w * (bits[:, i] != bits[:, j])
        native = float(cuts.max()) if edges else 0.0
        ok &= abs(best_e + native) < 1e-9
        ok &= all(
            abs(qubo.cut_weight(g, enc.decode(s)) - native) < 1e-9 for s in best)

    for _ in range(100):  # haplotype phasing
        n = int(rng.integers(2, 13))
        edges = {e: w for e, w in random_edges(n, signed=True).items() if w != 0}
        fg = qubo.WeightedGraph(n, edges)
        enc = qubo.phasing_to_ising(fg)
        _, best = solvers.brute_force(enc.model)
        bits = _all_bits(n)
        agreements = np.zeros(1 << n)
        for (i, j), w in edges.items():
            agreements += w * np.where(bits[:, i] == bits[:, j], 1.0, -1.0)
        native = float(agreements.max())
        ok &= all(
            abs(qubo.phasing_agreement(fg, enc.decode(s)) - native) < 1e-9
            for s in best)

    for _ in range(100):  # assembly path
        n = int(rng.integers(2, 5))
        overlaps = {
            (u, v): float(rng.integers(0, 9))
            for u in range(n) for v in range(n) if u != v
        }
        inst = qubo.OverlapInstance(n, overlaps)
        enc = qubo.assembly_to_qubo(inst)
        ok &= enc.model.n == n * n  # exactly n^2 variables
        _, best = solvers.brute_force(enc.model)
        native, _ = qubo.best_assembly_path(inst)
        for assignment in best:
            path = enc.decode(assignment)  # raises if native-infeasible
            ok &= abs(qubo.path_overlap(inst, path) - native) < 1e-9

    for _ in range(100):  # knapsack
        n = int(rng.integers(2, 7))
        inst = qubo.KnapsackInstance(
            values=tuple(int(v) for v in rng.integers(1, 16, size=n)),
            weights=tuple(int(w) for w in rng.integers(1, 10, size=n)),
            capacity=int(rng.integers(2, 20)),
        )
        enc = qubo.knapsack_to_qubo(inst)
        ok &= enc.model.n <= 16
        _, best = solvers.brute_force(enc.model)
        best_val, best_sets = qubo.best_knapsack(inst)
        for assignment in best:
            items = enc.decode(assignment)
            ok &= sum(inst.weights[i] for i in items) <= inst.capacity
            ok &= items in best_sets

    for _ in range(100):  # maximum independent set
        n = int(rng.integers(2, 17))
        g = qubo.WeightedGraph(n, {
            (i, j): 1.0 for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.4
        })
        enc = qubo.mis_to_qubo(g)
        _, best = solvers.brute_force(enc.model)
        bits = _all_bits(n)
        feasible = np.ones(1 << n, dtype=bool)
        for (i, j) in g.edges:
            feasible &= ~((bits[:, i] == 1) & (bits[:, j] == 1))
        native = int(bits[feasible].sum(axis=1).max())
        for assignment in best:
            chosen = enc.decode(assignment)
            ok &= qubo.is_independent_set(g, chosen)
            ok &= len(chosen) == native

    _report("encoder soundness (5 x 100 instances)", ok, t0, budget=300.0)


def test_acceptance_7_sa_tts_protocol():
    t0 = time.perf_counter()
    ok = tts.repetitions_needed(0.5, 0.9) == 4

    # Synthetic stub within 1 ulp of the closed form.
    tau, p_d = 7.0, 0.9
    curve = tts.tts_curve(lambda t: 1.0 - math.exp(-t / tau),
                          [1.0, 3.0, 9.0, 27.0, 81.0], p_d)
    for t, _, _, tts_t in curve:
        p = 1.0 - math.exp(-t / tau)
        expected = (1 if p >= p_d
                    else math.ceil(math.log(1 - p_d) / math.log(1 - p))) * t
        ok &= abs(tts_t - expected) <= math.ulp(expected)

    # Injected scaling exponents recovered within 1%.
    sizes = (8, 12, 16, 20, 24)
    _, (log_base, _) = tts.scaling_fit({n: 0.5 * 2 ** (0.3 * n) for n in sizes})
    (exponent, _), _ = tts.scaling_fit({n: 3.0 * n**2.0 for n in sizes})
    ok &= abs(math.exp(log_base) - 2**0.3) / 2**0.3 < 0.01
    ok &= abs(exponent - 2.0) / 2.0 < 0.01

    # Planted ferromagnets: full SA protocol, interior optimum at >= 1 size.
    interior = False
    t_grid = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    for n in (8, 12, 16, 20, 24):
        model = solvers.planted_ferromagnet(n, density=0.5, seed=700 + n)
        ground = -float(len(model.J))  # planted configuration is certified
        estimator = tts.sa_probability_estimator(
            model, threshold=ground, runs=30, seed=7000 + n)
        curve = tts.tts_curve(estimator, t_grid, 0.9)
        ok &= any(row[3] is not None for row in curve)
        interior |= not tts.optimum_at_boundary(curve)
    ok &= interior
    _report("SA + TTS protocol", ok, t0, budget=600.0)


def test_acceptance_8_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True
    experiments = [
        ["tts-scan", "--sizes", "8,12,16", "--t-grid", "1,4,16,64",
         "--stub-tau", "2.0", "--seed", "11", "--no-timestamp"],
        ["tts-scan", "--sizes", "8,12,16", "--t-grid", "1,4,16,64",
         "--runs", "16", "--seed", "11", "--no-timestamp"],
        ["loading-scan", "--sizes", "64,128,256", "--seed", "3",
         "--no-timestamp"],
        ["grover-demo", "--seed", "5", "--no-timestamp"],
        ["qubo-build", "--problem", "tsp-path", "--n", "3", "--seed", "2",
         "--no-timestamp"],
    ]
    for i, argv in enumerate(experiments):
        a = tmp_path / f"a{i}"
        b = tmp_path / f"b{i}"
        ok &= main(argv + ["--out", str(a)]) in (0, 1)
        ok &= main(argv + ["--out", str(b)]) in (0, 1)
        ok &= a.read_bytes() == b.read_bytes()
    _report("CLI rerun determinism (byte-identical)", ok, t0, budget=60.0)
