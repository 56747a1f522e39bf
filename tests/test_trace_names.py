"""The bench tracer wraps library functions by name; each name must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{name}"
               for layer, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"genoq.{layer}"),
                                       name, None))]
    assert missing == []
