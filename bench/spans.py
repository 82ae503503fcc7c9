"""In-memory spans around scminor's public functions, for the traced run.

Each wrapper replaces a function at the module attribute its caller looks
up (``scminor.cli.find_antimorphism``, ``scminor.topology.has_minor``, ...),
so spans nest by call.  A span's layer is the part of its name before the
first dot.  Nothing is wrapped unless a ``Tracer`` is installed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

LAYERS = ("cli", "graphs", "antimorphism", "construction", "oracle", "generators", "topology")


def _found(span, args, result):
    span["found"] = result is not None


def _hadwiger_outcome(span, args, result):
    span["expansions"] = result.expansions
    span["exhausted"] = not result.exact


def _has_minor_outcome(span, args, result):
    span["expansions"] = result.expansions
    span["exhausted"] = result.answer == "budget_exceeded"


def _certificate_outcome(span, args, result):
    span["expansions"] = result.expansions
    span["indeterminate"] = result.status == "indeterminate"


def _enumeration_outcome(span, args, result):
    span["n"] = args[0]
    span["classes"] = len(result)


# (module, attribute, span name, records extra fields from the result)
TARGETS = (
    ("scminor.cli", "parse_graph6", "graphs.parse_graph6", None),
    ("scminor.cli", "write_graph6", "graphs.write_graph6", None),
    ("scminor.cli", "find_antimorphism", "antimorphism.find_antimorphism", _found),
    ("scminor.cli", "build_plan", "construction.build_plan", None),
    ("scminor.cli", "realize_minor", "construction.realize_minor", None),
    ("scminor.cli", "hadwiger", "oracle.hadwiger", _hadwiger_outcome),
    ("scminor.cli", "enumerate_sc", "generators.enumerate_sc", _enumeration_outcome),
    ("scminor.cli", "report", "topology.report", None),
    ("scminor.generators", "canonical_form", "graphs.canonical_form", None),
    ("scminor.graphs", "canonical_form", "graphs.canonical_form", None),
    ("scminor.graphs", "parse_graph6", "graphs.parse_graph6", None),
    ("scminor.topology", "find_antimorphism", "antimorphism.find_antimorphism", _found),
    ("scminor.topology", "build_plan", "construction.build_plan", None),
    ("scminor.topology", "realize_minor", "construction.realize_minor", None),
    ("scminor.topology", "has_minor", "oracle.has_minor", _has_minor_outcome),
    ("scminor.topology", "is_planar", "topology.planarity", None),
    ("scminor.topology", "is_n_apex", "topology.apex", None),
    ("scminor.topology", "il_certificate", "topology.certificate", _certificate_outcome),
    ("scminor.topology", "ik_certificate", "topology.certificate", _certificate_outcome),
)

# hadwiger() runs one anchored clique search per order k on a shared meter.
# The search that finds no model, or runs out of budget, is the refutation
# of K_{h+1}; the others are the yes side.  This is the one private hook.
PHASE_MODULE, PHASE_ATTR = "scminor.oracle", "_clique_minor_sets"


class Tracer:
    """Records spans as dicts: name, start, end, parent index, item index."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.item = -1
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> dict:
        span = {
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "item": self.item,
            "start": time.perf_counter(),
        }
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        for module_name, attr, name, record in TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(getattr(module, attr), name, record))
        oracle = importlib.import_module(PHASE_MODULE)
        self._patch(oracle, PHASE_ATTR, self._wrap_phase(getattr(oracle, PHASE_ATTR)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, record):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                record(span, args, result)
            return result

        return traced

    def _wrap_phase(self, fn):
        @functools.wraps(fn)
        def traced(graph, k, meter):
            span = self.open("oracle.refute")
            before = meter.spent
            try:
                result = fn(graph, k, meter)
            finally:
                self.close(span)
                span["expansions"] = meter.spent - before
            if result is not None:
                span["name"] = "oracle.yes"
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# Span fields that count work; they do not depend on the machine.
COUNT_FIELDS = ("found", "expansions", "exhausted", "indeterminate", "n", "classes")


def call_shape(spans: list[dict], window: slice) -> list[tuple]:
    """The calls in ``window`` with their counts and without their times."""
    def parent(span):
        return None if span["parent"] is None else span["parent"] - window.start

    return [(span["name"], parent(span), *(span.get(f) for f in COUNT_FIELDS)) for span in spans[window]]


def layer_metrics(spans: list[dict], indices: list[int]) -> dict[str, float]:
    """Per-layer metrics of the finished spans at ``indices``, one call of
    every input.  A span's self time is its duration minus that of its children."""
    child_time = defaultdict(float)
    for i in indices:
        span = spans[i]
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_s = defaultdict(float)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for i in indices:
        span = spans[i]
        self_s[span["name"].split(".")[0]] += span["end"] - span["start"] - child_time[i]
        by_name[span["name"]].append(span)

    def calls(name):
        return len(by_name[name])

    def seconds(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def max_ms(name):
        return max((s["end"] - s["start"] for s in by_name[name]), default=0.0) * 1e3

    def total(name, field):
        return sum(s.get(field, 0) for s in by_name[name])

    m: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for name in ("graphs.parse_graph6", "graphs.canonical_form", "antimorphism.find_antimorphism"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = seconds(name)
    for name in ("graphs.canonical_form", "antimorphism.find_antimorphism"):
        m[f"{name}.max_ms"] = max_ms(name)
    searches = calls("antimorphism.find_antimorphism")
    m["antimorphism.find_antimorphism.found_ratio"] = (
        total("antimorphism.find_antimorphism", "found") / searches if searches else 0.0
    )
    m["construction.build_plan.s"] = seconds("construction.build_plan")
    m["construction.realize_minor.s"] = seconds("construction.realize_minor")
    for side in ("yes", "refute"):
        m[f"oracle.{side}.expansions"] = total(f"oracle.{side}", "expansions")
        m[f"oracle.{side}.s"] = seconds(f"oracle.{side}")
    oracle_calls = ("oracle.hadwiger", "oracle.has_minor")
    oracle_s = sum(seconds(name) for name in oracle_calls)
    oracle_expansions = sum(total(name, "expansions") for name in oracle_calls)
    m["oracle.expansions_per_s"] = oracle_expansions / oracle_s if oracle_s else 0.0
    m["oracle.budget_exhausted"] = sum(total(name, "exhausted") for name in oracle_calls)
    m["generators.enumerate_sc.s"] = seconds("generators.enumerate_sc")
    assignments = sum(_assignments(s["n"]) for s in by_name["generators.enumerate_sc"])
    classes = total("generators.enumerate_sc", "classes")
    m["generators.enumerate_sc.assignments"] = assignments
    m["generators.enumerate_sc.classes"] = classes
    m["generators.enumerate_sc.class_yield"] = classes / assignments if assignments else 0.0
    m["topology.planarity.calls"] = calls("topology.planarity")
    m["topology.planarity.s"] = seconds("topology.planarity")
    m["topology.apex.s"] = seconds("topology.apex")
    m["topology.certificate.s"] = seconds("topology.certificate")
    m["topology.certificate.expansions"] = total("topology.certificate", "expansions")
    m["topology.certificate.indeterminate"] = total("topology.certificate", "indeterminate")
    return m


@functools.cache
def _assignments(n: int) -> int:
    """Orbit assignments enumerate_sc(n) builds: sum of 2^|pair orbits|."""
    from scminor import generators

    return sum(
        1 << len(generators.pair_orbits(generators.permutation_with_cycle_type(n, t)))
        for t in generators.sachs_cycle_types(n)
    )
