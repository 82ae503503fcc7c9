"""The benchmark's traced run wraps scminor functions by module attribute.

A renamed or removed call site would make ``Tracer.install`` raise
``AttributeError`` during ``bench/run.py --trace 1``; this test finds it first.
A verb that stopped calling a wrapped function through that attribute would
leave its spans silently empty; the second test finds that.
"""

import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import scminor.cli

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


# the verb that calls each function the tracer wraps on scminor.cli
VERB = {
    "parse_graph6": ["check"],
    "write_graph6": ["enum", "--n", "5"],
    "find_antimorphism": ["check"],
    "build_plan": ["minor"],
    "realize_minor": ["minor"],
    "hadwiger": ["hadwiger"],
    "enumerate_sc": ["enum", "--n", "5"],
    "report": ["topo"],
}
CLI_TARGETS = [attr for module, attr, _name, _record in _load_spans().TARGETS if module == "scminor.cli"]


@pytest.mark.parametrize("attr", CLI_TARGETS)
def test_each_cli_trace_target_is_called_through_its_attribute(attr, monkeypatch, capsys):
    calls = []
    original = getattr(scminor.cli, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scminor.cli, attr, counted)
    monkeypatch.setattr(sys, "stdin", io.StringIO("Dhc\n"))  # C5
    assert scminor.cli.main(VERB[attr]) == 0
    capsys.readouterr()
    assert calls
