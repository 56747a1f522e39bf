"""The bench tracer wraps library functions by name; each name must exist,
and each must be its own function, since the tracer wraps by identity and
would wrap a function reached by two names twice."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{layer}.{name}": getattr(importlib.import_module(f"genoq.{layer}"),
                                       name, None)
            for layer, names in spans.TRACED.items() for name in names}


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
