"""The benchmark's traced run wraps scminor functions by module attribute.

A renamed or removed call site would make ``Tracer.install`` raise
``AttributeError`` during ``bench/run.py --trace 1``; this test finds it first.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable():
    spans = _load_spans()
    targets = [(module, attr) for module, attr, _name, _record in spans.TARGETS]
    targets.append((spans.PHASE_MODULE, spans.PHASE_ATTR))
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing
