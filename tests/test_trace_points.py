"""The benchmark's span tracer (perfbench/spans.py) patches library
functions by module and attribute name; a rename there would silently drop
a span from the per-layer trace.  This keeps every wrap point resolvable."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    """spans.py executed from its source, so no bytecode is written next to it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_wrap_point_resolves():
    wrap_points = _load_spans().WRAP_POINTS
    assert wrap_points
    missing = [
        f"{module_name}.{attr}"
        for _, module_name, attr in wrap_points
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
