"""Output checks for the benchmark workloads.

Each function takes one output of the program plus the inputs that produced
it and returns a list of problems; an empty list means the output is correct.
The checks recompute the expected values independently where that is cheap
(closed forms, replayed generators, native enumeration), so they also hold
when the program's internals change.
"""

from __future__ import annotations

import json
import math
from itertools import permutations

import numpy as np

from genoq import qubo, solvers

P_TOL = 1e-9
EXPONENT_TOL = 0.15  # acceptance test 3: prep ~ N^1, total ~ N^1.5
REL_TOL = 1e-12

# 2-bit encoding A=00, T=01, G=10, C=11: set bits per base.
BASE_POPCOUNT = {"A": 0, "T": 1, "G": 1, "C": 2}


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def _optimal_iterations(count: int, solutions: int) -> int:
    return max(1, math.floor((math.pi / 4.0) * math.sqrt(count / solutions)))


def _csv_sections(text: str) -> tuple[dict[str, str], list[list[list[str]]]]:
    """Split CLI CSV output into ``# key=value`` lines and header-led tables."""
    comments: dict[str, str] = {}
    tables: list[list[list[str]]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            comments[key] = value
        elif line:
            cells = line.split(",")
            if cells[0] == "N":
                tables.append([])
            if not tables:
                raise ValueError(f"data row before any header: {line!r}")
            tables[-1].append(cells)
    return comments, tables


# --------------------------------------------------------------------------
# grover_search


def grover_search(rc: int, text: str, genome: str, key: str,
                  iterations: int | None) -> list[str]:
    """``grover-search`` JSON: closed-form p_exact, scan and sampled matches."""
    if rc != 0:
        return [f"exit code {rc}"]
    out = json.loads(text)
    problems = []
    m = len(key)
    count = len(genome) - m + 1
    truth = [i for i in range(count) if genome[i : i + m] == key]
    if out["classical_scan"] != truth:
        problems.append(f"classical_scan {out['classical_scan']} != {truth}")
    k = iterations if iterations is not None else _optimal_iterations(
        count, max(1, len(truth)))
    if out["iterations"] != k:
        problems.append(f"iterations {out['iterations']} != {k}")
    theta = math.asin(math.sqrt(len(truth) / _next_pow2(count)))
    expected = math.sin((2 * out["iterations"] + 1) * theta) ** 2
    if not abs(out["p_exact"] - expected) <= P_TOL:
        problems.append(f"p_exact {out['p_exact']!r} != closed form {expected!r}")
    sampled = [mt["index"] for mt in out["matches"]]
    if not set(sampled) <= set(truth):
        problems.append(f"sampled matches {sampled} not within scan {truth}")
    if any(mt["window"] != key for mt in out["matches"]):
        problems.append("a sampled match window differs from the key")
    return problems


def absent_key(result) -> list[str]:
    """``search_unknown_count`` on a key that occurs nowhere must give None."""
    return [] if result is None else ["absent key returned a run"]


# --------------------------------------------------------------------------
# cost_model


def loading_rows(sizes: list[int], window: int, seed: int) -> list[dict]:
    """Gate counts of ``loading-scan`` from closed forms.

    Replays the scan's seeded genome and key draws, then counts gates from
    structure: Hadamards on the index register plus one multicontrolled X per
    set data bit per slot (padding slots repeat window 0 and set the flag).
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in sorted(sizes):
        genome = "".join(rng.choice(list("ATGC"), size=n))
        count = n - window + 1
        start = int(rng.integers(0, count))
        key = genome[start : start + window]
        pops = np.cumsum([0] + [BASE_POPCOUNT[b] for b in genome])
        window_pop = pops[window : window + count] - pops[:count]
        padded = _next_pow2(count)
        index_qubits = padded.bit_length() - 1
        flag = int(padded > count)
        prep = (index_qubits + int(window_pop.sum())
                + (padded - count) * (int(window_pop[0]) + 1))
        qubits = index_qubits + 2 * window + flag
        key_zero_bits = 2 * window - sum(BASE_POPCOUNT[b] for b in key)
        oracle = 2 * (key_zero_bits + flag) + 1
        per_iter = oracle + 2 * prep + 2 * qubits + 1
        k = _optimal_iterations(count, 1)
        rows.append({"N": n, "prep": prep, "iter": per_iter,
                     "total": prep + k * per_iter, "oracle": oracle,
                     "qubits": qubits, "k": k})
    return rows


def loading_scan(rc: int, text: str, sizes: list[int], window: int,
                 seed: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    comments, tables = _csv_sections(text)
    if len(tables) != 1 or tables[0][0] != ["N", "prep_gates", "iter_gates",
                                            "total_gates"]:
        return ["unexpected loading-scan table layout"]
    got = [[int(c) for c in row] for row in tables[0][1:]]
    problems = []
    expected = loading_rows(sizes, window, seed)
    if len(got) != len(expected):
        return [f"{len(got)} rows for {len(expected)} sizes"]
    for (n, prep, per_iter, total), row in zip(got, expected):
        if (n, prep, per_iter, total) != (row["N"], row["prep"], row["iter"],
                                          row["total"]):
            problems.append(
                f"N={n}: got prep={prep} iter={per_iter} total={total}, "
                f"closed form {row['prep']}/{row['iter']}/{row['total']}")
        if total != prep + row["k"] * per_iter:
            problems.append(f"N={n}: total != prep + k*iter")
        if per_iter != row["oracle"] + 2 * prep + 2 * row["qubits"] + 1:
            problems.append(f"N={n}: iter != oracle + 2*prep + 2*qubits + 1")
    for name, target in (("prep_exponent", 1.0), ("total_exponent", 1.5)):
        value = float(comments.get(name, "nan"))
        if not abs(value - target) <= EXPONENT_TOL:
            problems.append(f"{name}={value} outside {target} +- {EXPONENT_TOL}")
    return problems


def runtime(rc: int, text: str, n: int, budget: float, freq_hz: float,
            classical_seconds: float, sweep: list[int]) -> list[str]:
    """``runtime`` CSV: ceil(sqrt(N)) calls, depth budget and sweep rows."""
    if rc != 0:
        return [f"exit code {rc}"]
    comments, tables = _csv_sections(text)
    calls = math.isqrt(n) + (math.isqrt(n) ** 2 < n)
    depth = math.floor(budget / calls * freq_hz)
    problems = []
    if int(comments.get("calls", -1)) != calls:
        problems.append(f"calls {comments.get('calls')} != ceil(sqrt({n})) = {calls}")
    if int(comments.get("max_depth_per_call", -1)) != depth:
        problems.append(f"max_depth_per_call {comments.get('max_depth_per_call')} "
                        f"!= {depth}")
    if not _close(float(comments.get("seconds_total", "nan")),
                  calls * depth / freq_hz):
        problems.append("seconds_total != calls * depth / frequency")
    rows = tables[0][1:] if tables else []
    if [int(r[0]) for r in rows] != sorted(sweep):
        return problems + ["sweep sizes differ from the request"]
    for size, t_c, t_q, flag in rows:
        want_c = classical_seconds / n * int(size)
        want_q = depth / freq_hz * int(size) ** 0.5
        if not (_close(float(t_c), want_c) and _close(float(t_q), want_q)):
            problems.append(f"N={size}: runtimes {t_c},{t_q} != {want_c},{want_q}")
        if int(flag) != int(float(t_q) <= float(t_c)):
            problems.append(f"N={size}: crossover flag {flag} is wrong")
    return problems


# --------------------------------------------------------------------------
# tts_scan


def planted_ground(n: int, density: float, seed: int) -> list[str]:
    """Brute force on the planted instance finds the certified -len(J)."""
    model = solvers.planted_ferromagnet(n, density, seed)
    best_e, _ = solvers.brute_force(model)
    certified = -float(len(model.J))
    if best_e != certified:
        return [f"n={n}: brute-force ground {best_e} != certified {certified}"]
    return []


def _repetitions(p: float, p_d: float) -> int:
    if p >= p_d:
        return 1
    return math.ceil(math.log(1.0 - p_d) / math.log(1.0 - p))


def tts_scan(rc: int, text: str, sizes: list[int], t_grid: list[int],
             runs: int, target_p: float) -> list[str]:
    """``tts-scan`` CSV: R(t), TTS(t), TTS* and the boundary flag agree."""
    if rc != 0:
        return [f"exit code {rc}"]
    comments, tables = _csv_sections(text)
    if len(tables) != 2:
        return [f"expected 2 tables, got {len(tables)}"]
    curve_rows, star_rows = tables[0][1:], tables[1][1:]
    problems = []
    if [(int(r[0]), int(float(r[1]))) for r in curve_rows] != [
            (n, t) for n in sizes for t in t_grid]:
        return ["curve rows do not cover sizes x t grid"]
    for n, star in zip(sizes, star_rows):
        valid = []
        for _, t, p_hat, reps, tts in (r for r in curve_rows if int(r[0]) == n):
            p, t = float(p_hat), float(t)
            if not (0.0 <= p <= 1.0 and _close(p * runs, round(p * runs), 1e-9)):
                problems.append(f"n={n} t={t}: p_hat {p} is not k/{runs}")
                continue
            if p == 0.0:
                if (reps, tts) != ("excluded", "excluded"):
                    problems.append(f"n={n} t={t}: p_hat=0 not excluded")
                continue
            want = _repetitions(p, target_p)
            if int(reps) != want or float(tts) != want * t:
                problems.append(f"n={n} t={t}: R={reps} TTS={tts}, want {want}")
            valid.append((want * t, t))
        if not valid:
            problems.append(f"n={n}: every point excluded")
            continue
        best_tts, best_t = min(valid)
        boundary = best_t in (valid[0][1], valid[-1][1])
        if (int(star[0]), float(star[1]), float(star[2]), int(star[3])) != (
                n, best_tts, best_t, int(boundary)):
            problems.append(f"n={n}: TTS* row {star} != {best_tts},{best_t}")
    has_fit = "power_law_exponent" in comments
    if has_fit != (len(sizes) >= 3):
        problems.append("scaling fit present/absent contrary to size count")
    if has_fit and not all(math.isfinite(float(comments[k])) for k in (
            "power_law_exponent", "exponential_base")):
        problems.append("scaling fit is not finite")
    return problems


# --------------------------------------------------------------------------
# qubo_exact


def _bit_table(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.int8)


def _argmax_rows(bits: np.ndarray, score: np.ndarray) -> tuple[float, set]:
    best = float(score.max())
    rows = bits[np.abs(score - best) <= 1e-9]
    return best, {tuple(int(v) for v in r) for r in rows}


def native_optimum(kind: str, inst) -> tuple[float, set]:
    """(best QUBO energy, set of optimal native solutions) without the encoder.

    Native solutions are the decoder's output type for each problem kind.
    """
    if kind == "knapsack":
        value, sets = qubo.best_knapsack(inst)
        return -float(value), set(sets)
    if kind == "assembly-path":
        value, _ = qubo.best_assembly_path(inst)
        paths = {p for p in permutations(range(inst.n))
                 if abs(qubo.path_overlap(inst, p) - value) <= 1e-9}
        return -value, paths
    bits = _bit_table(inst.n)
    score = np.zeros(1 << inst.n)
    if kind == "mis":
        feasible = np.ones(1 << inst.n, dtype=bool)
        for (i, j) in inst.edges:
            feasible &= ~((bits[:, i] == 1) & (bits[:, j] == 1))
        score = np.where(feasible, bits.sum(axis=1), -1).astype(float)
        best, rows = _argmax_rows(bits, score)
        return -best, {frozenset(i for i, b in enumerate(r) if b) for r in rows}
    for (i, j), w in inst.edges.items():
        differ = bits[:, i] != bits[:, j]
        score += w * (differ if kind == "max-cut" else np.where(differ, -1.0, 1.0))
    best, rows = _argmax_rows(bits, score)
    if kind == "max-cut":
        return -best, rows
    # Phasing: E = (W - agreement) / 2 for total evidence weight W.
    return (sum(inst.edges.values()) - best) / 2.0, rows


def qubo_brute(rc: int, text: str, encoding, kind: str,
               optimum: tuple[float, set]) -> list[str]:
    """``qubo-solve --solver brute`` JSON against the native oracle."""
    if rc != 0:
        return [f"exit code {rc}"]
    out = json.loads(text)
    best_e, native = optimum
    problems = []
    if not abs(out["best_energy"] - best_e) <= 1e-9:
        problems.append(f"best_energy {out['best_energy']} != native {best_e}")
    try:
        decoded = {encoding.decode(a) for a in out["optimal_assignments"]}
    except ValueError as exc:
        return problems + [f"an optimal assignment does not decode: {exc}"]
    if decoded != native:
        problems.append(f"{kind}: decoded optima differ from the native optima")
    return problems


def qubo_sa(rc: int, text: str, model, best_e: float) -> list[str]:
    """``qubo-solve --solver sa``: energy recomputes exactly, never below optimum."""
    if rc != 0:
        return [f"exit code {rc}"]
    out = json.loads(text)
    problems = []
    assignment = tuple(out["best_assignment"])
    if out["best_energy"] < best_e - 1e-9:
        problems.append(f"SA energy {out['best_energy']} below optimum {best_e}")
    if qubo.energy(model, assignment) != out["best_energy"]:
        problems.append("SA best_energy does not recompute from its assignment")
    return problems


def model_roundtrip(model, read_back) -> list[str]:
    """``write_model`` then ``read_model`` gives back the same model, bit-exact."""
    return [] if read_back == model else ["model changed in write/read round trip"]


def optima_digest_text(text: str) -> str:
    """Canonical text of the set of brute-force optimal assignments."""
    return json.dumps(sorted(json.loads(text)["optimal_assignments"]))
