"""The bench tracer wraps library functions by name; each name must exist,
and each must be its own function, since the tracer wraps by identity and
would wrap a function reached by two names twice. Its work counters read
arguments by position or name, so those parameters must keep both, and
some read fields of the result, so those results must keep their shape."""

import ast
import functools
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

from genoq import grover, qubo, solvers
from genoq.genome import build_window_db

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@functools.cache
def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced():
    return {f"{layer}.{name}": getattr(importlib.import_module(f"genoq.{layer}"),
                                       name, None)
            for layer, names in _spans().TRACED.items() for name in names}


def _counted_arguments(traced) -> dict[str, set[tuple[int, str]]]:
    """{traced name: {(position, parameter)}} for each ``_arg(args, kwargs,
    position, "parameter")`` call in a ``_count_<layer>_<function>`` method."""
    methods = {"_count_" + name.replace(".", "_"): name for name in traced}
    read: dict[str, set[tuple[int, str]]] = {}
    for node in ast.walk(ast.parse(SPANS.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name in methods:
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "_arg"):
                    position, parameter = (a.value for a in call.args[2:4])
                    read.setdefault(methods[node.name], set()).add(
                        (position, parameter))
    return read


def test_every_traced_name_resolves():
    missing = [name for name, obj in _traced().items() if not callable(obj)]
    assert missing == []


def test_no_two_traced_names_share_a_function():
    seen: dict[int, str] = {}
    shared = []
    for name, obj in _traced().items():
        if id(obj) in seen:
            shared.append((seen[id(obj)], name))
        else:
            seen[id(obj)] = name
    assert shared == []


def test_counted_parameters_keep_their_position_and_name():
    traced = _traced()
    read = _counted_arguments(traced)
    assert read.keys() >= {"sim.run_circuit", "grover.run_search",
                           "solvers.simulated_annealing", "solvers.brute_force",
                           "cli.main"}
    moved = [(name, position, parameter)
             for name, uses in sorted(read.items())
             for position, parameter in sorted(uses)
             if list(inspect.signature(traced[name]).parameters)[position:position + 1]
             != [parameter]]
    assert moved == []


def _reads_result(method) -> bool:
    body = ast.parse(textwrap.dedent(inspect.getsource(method)))
    return any(isinstance(node, ast.Name) and node.id == "result"
               and isinstance(node.ctx, ast.Load) for node in ast.walk(body))


def _small_calls():
    """{traced name: (args, kwargs)} of one small call of each function
    whose work counter reads its result."""
    db = build_window_db("ATGATG", 3)
    prep = grover.build_state_prep(db)
    graph = qubo.weighted_graph_from_json('{"n": 3, "edges": [[0, 1, 2.5]]}')
    model = solvers.planted_ferromagnet(4, 1.0, 1)
    return {
        "genome.build_window_db": (("ATGATG", 3), {}),
        "grover.build_state_prep": ((db,), {}),
        "grover.build_oracle": ((grover.make_problem(db, "ATG"),), {}),
        "grover.build_diffusion": ((prep,), {}),
        "solvers.estimate_success_probability": (
            (model, solvers.AnnealSchedule(sweeps=2)),
            {"runs": 3, "threshold": -float(len(model.J)), "seed": 1}),
        "qubo.maxcut_to_ising": ((graph,), {}),
        "qubo.phasing_to_ising": ((graph,), {}),
        "qubo.mis_to_qubo": ((graph,), {}),
        "qubo.knapsack_to_qubo": ((qubo.knapsack_from_json(
            '{"values": [6, 10], "weights": [2, 2], "capacity": 3}'),), {}),
        "qubo.assembly_to_qubo": ((qubo.overlap_from_json(
            '{"n": 2, "overlaps": [[0, 1, 4.0]]}'),), {}),
    }


def test_result_reading_counters_count_a_real_result():
    tracer_class = _spans().Tracer
    counters = {name: getattr(tracer_class, "_count_" + name.replace(".", "_"),
                              None)
                for name in _traced()}
    reading = {name for name, method in counters.items()
               if method is not None and _reads_result(method)}
    calls = _small_calls()
    assert reading == calls.keys()
    still = []
    for name, (args, kwargs) in sorted(calls.items()):
        result = _traced()[name](*args, **kwargs)
        tracer = tracer_class()
        counters[name](tracer, args, kwargs, result)
        if not any(tracer.counts.values()):
            still.append(name)
    assert still == []
