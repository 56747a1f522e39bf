"""The bench tracer wraps library functions by name; each name must exist,
and each must be its own function, since the tracer wraps by identity and
would wrap a function reached by two names twice. Its work counters read
arguments by position or name, so those parameters must keep both."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{layer}.{name}": getattr(importlib.import_module(f"genoq.{layer}"),
                                       name, None)
            for layer, names in spans.TRACED.items() for name in names}


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
