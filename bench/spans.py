"""Span tracer for the traced run, installed from outside the genoq package.

Each traced function is replaced by a wrapper at every name that resolves to
it, in every genoq module: ``genoq.grover.run_circuit`` (imported by name from
``sim``) and ``genoq.solvers.simulated_annealing`` (called from inside
``estimate_success_probability``) are both caught. Spans and work counts stay
in memory and are written once, when the run ends. Nothing under ``src/``
changes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

# Layer-boundary functions of each layer (module). Helpers called once per
# gate, window, sample or permutation (apply_gate, encode_window, bitstring,
# path_overlap, ...) stay inside their caller's span, so that wrapping them
# cannot distort the timings.
TRACED = {
    "sim": ("init_state", "run_circuit", "sample"),
    "genome": ("parse_sequence", "build_window_db", "layout_for"),
    "grover": ("make_problem", "prepare_circuits", "build_state_prep",
               "build_oracle", "build_diffusion", "run_search", "classical_scan",
               "success_probability", "search_unknown_count", "loading_cost_scan"),
    "runtime": ("quantum_runtime", "max_depth_per_call", "runtime_sweep"),
    "qubo": ("maxcut_to_ising", "phasing_to_ising", "mis_to_qubo",
             "knapsack_to_qubo", "assembly_to_qubo", "write_model", "read_model",
             "weighted_graph_from_json", "fragment_graph_from_json",
             "knapsack_from_json", "overlap_from_json"),
    "solvers": ("brute_force", "simulated_annealing",
                "estimate_success_probability", "planted_ferromagnet"),
    "tts": ("sa_probability_estimator", "tts_curve", "optimal_tts",
            "optimum_at_boundary", "scaling_fit"),
    "cli": ("main",),
}

CIRCUIT_BUILDERS = {"grover.prepare_circuits", "grover.build_state_prep",
                    "grover.build_oracle", "grover.build_diffusion"}
ENCODERS = {"qubo.maxcut_to_ising", "qubo.phasing_to_ising", "qubo.mis_to_qubo",
            "qubo.knapsack_to_qubo", "qubo.assembly_to_qubo"}
RUNTIME = {f"runtime.{f}" for f in TRACED["runtime"]}

# Span record fields; the fifth is the job id.
NAME, START, END, PARENT = range(4)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Wraps the TRACED functions while installed; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: Counter[str] = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "genoq" or name.startswith("genoq.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"genoq.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.job])
            if name == "tts.tts_curve":
                args = (self._counting_estimator(args[0]),) + args[1:]
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][START] = start
                spans[index][END] = end
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- work counters, one per traced function that does countable work ----

    def _counting_estimator(self, estimator):
        def counted(t):
            self.counts["tts.estimator_calls"] += 1
            return estimator(t)
        return counted

    def _count_sim_run_circuit(self, args, kwargs, result):
        circuit = _arg(args, kwargs, 0, "circuit")
        self.counts["sim.gates_applied"] += len(circuit.gates)
        self.counts["sim.amplitudes_touched"] += len(circuit.gates) << circuit.num_qubits

    def _count_genome_build_window_db(self, args, kwargs, result):
        self.counts["genome.windows"] += result.count

    def _count_gates_built(self, args, kwargs, result):
        self.counts["grover.gates_built"] += len(result)

    _count_grover_build_state_prep = _count_gates_built
    _count_grover_build_oracle = _count_gates_built
    _count_grover_build_diffusion = _count_gates_built

    def _count_grover_run_search(self, args, kwargs, result):
        self.counts["grover.iterations"] += _arg(args, kwargs, 1, "iterations")

    def _count_solvers_simulated_annealing(self, args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        schedule = _arg(args, kwargs, 1, "schedule")
        self.counts["solvers.sa_flip_attempts"] += schedule.sweeps * model.n

    def _count_solvers_estimate_success_probability(self, args, kwargs, result):
        self.counts["solvers.sa_runs"] += result.runs
        self.counts["solvers.sa_successes"] += result.successes

    def _count_solvers_brute_force(self, args, kwargs, result):
        self.counts["solvers.brute_force.calls"] += 1
        self.counts["solvers.bf_states"] += 1 << _arg(args, kwargs, 0, "model").n

    def _count_encoded(self, args, kwargs, result):
        if not any(self.spans[i][NAME] in ENCODERS for i in self._stack):
            model = result.model
            self.counts["qubo.terms"] += sum(1 for h in model.h if h) + len(model.J)

    _count_qubo_maxcut_to_ising = _count_encoded
    _count_qubo_phasing_to_ising = _count_encoded
    _count_qubo_mis_to_qubo = _count_encoded
    _count_qubo_knapsack_to_qubo = _count_encoded
    _count_qubo_assembly_to_qubo = _count_encoded

    def _count_cli_main(self, args, kwargs, result):
        argv = list(_arg(args, kwargs, 0, "argv") or ())
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            if out.exists():
                self.counts["cli.output_bytes"] += out.stat().st_size

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def total(self, names: set[str]) -> float:
        """Time in spans named in ``names`` that no other such span encloses."""
        total = 0.0
        for s in self.spans:
            if s[NAME] in names and not self._enclosed(s, names):
                total += s[END] - s[START]
        return total

    def _enclosed(self, span, names) -> bool:
        parent = span[PARENT]
        while parent is not None:
            if self.spans[parent][NAME] in names:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def self_total(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times())
                   if s[NAME] == name)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **meta, "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans, "counts": dict(self.counts)}))


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer(tracer: Tracer, passes: int, overhead_s: float) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value per pass, unit)}."""
    c, t = tracer.counts, tracer.total
    run_circuit = t({"sim.run_circuit"})
    sa = t({"solvers.simulated_annealing"})
    brute = t({"solvers.brute_force"})
    per_pass = {
        "sim.run_circuit.s": (run_circuit, "s"),
        "sim.gates_applied": (c["sim.gates_applied"], "count"),
        "sim.amplitudes_touched": (c["sim.amplitudes_touched"], "count"),
        "sim.sample.s": (t({"sim.sample"}), "s"),
        "grover.prepare_circuits.s": (t(CIRCUIT_BUILDERS), "s"),
        "grover.gates_built": (c["grover.gates_built"], "count"),
        "grover.loading_cost_scan.s": (t({"grover.loading_cost_scan"}), "s"),
        "grover.run_search.self_s": (tracer.self_total("grover.run_search"), "s"),
        "grover.classical_scan.s": (t({"grover.classical_scan"}), "s"),
        "grover.success_probability.s": (t({"grover.success_probability"}), "s"),
        "grover.iterations": (c["grover.iterations"], "count"),
        "genome.parse_sequence.s": (t({"genome.parse_sequence"}), "s"),
        "genome.build_window_db.s": (t({"genome.build_window_db"}), "s"),
        "genome.windows": (c["genome.windows"], "count"),
        "solvers.simulated_annealing.s": (sa, "s"),
        "solvers.sa_flip_attempts": (c["solvers.sa_flip_attempts"], "count"),
        "solvers.brute_force.s": (brute, "s"),
        "solvers.bf_states": (c["solvers.bf_states"], "count"),
        "solvers.brute_force.calls": (c["solvers.brute_force.calls"], "count"),
        "tts.tts_curve.self_s": (tracer.self_total("tts.tts_curve"), "s"),
        "tts.estimator_calls": (c["tts.estimator_calls"], "count"),
        "qubo.encode.s": (t(ENCODERS), "s"),
        "qubo.terms": (c["qubo.terms"], "count"),
        "qubo.write_model.s": (t({"qubo.write_model"}), "s"),
        "qubo.read_model.s": (t({"qubo.read_model"}), "s"),
        "runtime.s": (t(RUNTIME), "s"),
        "cli.self_s": (tracer.self_total("cli.main"), "s"),
        "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
    }
    metrics = {name: (value / passes, unit) for name, (value, unit) in per_pass.items()}
    metrics["sim.amplitudes_per_s"] = (
        _rate(c["sim.amplitudes_touched"], run_circuit), "1/s")
    metrics["solvers.sa_flips_per_s"] = (_rate(c["solvers.sa_flip_attempts"], sa), "1/s")
    metrics["solvers.sa_success_ratio"] = (
        _rate(c["solvers.sa_successes"], c["solvers.sa_runs"]), "ratio")
    metrics["solvers.bf_states_per_s"] = (_rate(c["solvers.bf_states"], brute), "1/s")
    metrics["trace_overhead_s"] = (overhead_s, "s")
    return metrics
