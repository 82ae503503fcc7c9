"""The four workloads: seeded inputs, the CLI call for each, and its check.

Every input is one call: a CLI verb with the graph6 text on stdin, or, for
canonical forms (no CLI verb), one library call on the parsed graph6 text.
Each ``check`` compares the program's answer with truth the benchmark
established on its own (see truth.py) and never calls scminor's checks.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import scminor

import gen
import truth

# Per-input expansion budget of the hadwiger workload.  It must exceed the
# 1,502,284 expansions of sharp_4n_plus_1(3) as built.
HADWIGER_BUDGET = 1_600_000
# Oracle budget for topo; K6 and K7 searches on at most 13 vertices stay far below it.
TOPO_BUDGET = 10_000_000
# Expansion counts of the as-built sharp families at this budget, from the
# ROADMAP baseline table.  A change to the oracle's search moves them.
ROADMAP_PINS = {"sharp_4n(3)": 701_593, "sharp_4n_plus_1(3)": 1_502_284}


class Answer(NamedTuple):
    error: str | None
    decided: bool = True
    expansions: int = 0


@dataclass
class Item:
    family: str
    line: str
    argv: tuple[str, ...] | None  # None: a library canonical_form call
    check: Callable[[int, str], Answer]


@dataclass
class Workload:
    items: list[Item]
    warmup: Item
    # Checks across items of one pass; returns error messages.
    cross_check: Callable[[list[str]], list[str]] = field(default=lambda outputs: [])


def _json(rc: int, out: str, want_rc: tuple[int, ...]) -> tuple[dict | None, str | None]:
    if rc not in want_rc:
        return None, f"exit code {rc}"
    lines = out.splitlines()
    if len(lines) != 1:
        return None, f"{len(lines)} output lines, expected 1"
    try:
        return json.loads(lines[0]), None
    except ValueError:
        return None, "output is not JSON"


# -- certify -------------------------------------------------------------------


def _certify_check(adj):
    n = len(adj)

    def check(rc: int, out: str) -> Answer:
        data, err = _json(rc, out, (0,))
        if err:
            return Answer(err)
        if data.get("self_complementary") is not True:
            return Answer("an SC input was called not self-complementary")
        err = truth.antimorphism_error(adj, truth.parse_cycles(data["rho"], n))
        model = data["model"]
        if err is None and model["k"] != (n + 1) // 2:
            err = f"model order {model['k']}, expected {(n + 1) // 2}"
        return Answer(err or truth.clique_model_error(adj, model["branch_sets"], (n + 1) // 2))

    return check


def _sc_item(family: str, adj, argv) -> Item:
    return Item(family, truth.encode_graph6(adj), argv, _certify_check(adj))


# The antimorphism search on relabelled graphs has a heavy-tailed cost.
# Over 300 draws per family on one core, the slowest random_sc(n) took
# 0.3 s at n = 24 and 113 s at n = 32, the slowest SC circulant 0.23 s at
# order 37 and 5.2 s at order 61, and Paley graphs of order 49 to 61 took
# 2 ms to 0.2 s.  Those families are left out, because a handful of draws
# would then decide a run's wall time and tail (see README.md).
CERTIFY_RANDOM_SIZES = (12, 13, 16, 17, 20, 21)
CERTIFY_RANDOM_EACH = 32
CERTIFY_PALEY = {13: 16, 17: 16, 25: 16, 29: 16, 37: 96, 41: 96}
CERTIFY_CIRCULANTS = {13: 16, 17: 16}


def certify(seed: int) -> Workload:
    rng = random.Random(f"certify/{seed}")
    argv = ("minor", "--json")
    items = []
    for n in CERTIFY_RANDOM_SIZES:
        for _ in range(CERTIFY_RANDOM_EACH):
            items.append(_sc_item(f"random_sc({n})", gen.relabel(gen.random_sc(n, rng), rng), argv))
    for q, count in CERTIFY_PALEY.items():
        base = gen.paley(q)
        items += [_sc_item(f"paley({q})", gen.relabel(base, rng), argv) for _ in range(count)]
    for p, count in CERTIFY_CIRCULANTS.items():
        for _ in range(count):
            items.append(_sc_item(f"sc_circulant({p})", gen.relabel(gen.sc_circulant(p, rng), rng), argv))
    rng.shuffle(items)
    warmup = _sc_item("random_sc(13)", gen.from_library(scminor.random_sc(13, 0)), argv)
    return Workload(items, warmup)


# -- refute --------------------------------------------------------------------


def _refute_check(rc: int, out: str) -> Answer:
    data, err = _json(rc, out, (1,))
    if err:
        return Answer(err)
    if data.get("self_complementary") is not False:
        return Answer("a non-SC input was called self-complementary")
    return Answer(None)


# Measured over 200 draws per family on one core, a refutation of a
# relabelled non-SC circulant of order 13 or 17 costs at most 4 times its
# median, but one of order 29 takes 0.3 s to 1.4 s, and swapped graphs
# have a heavy tail from n = 24 on (up to 6.4 s at n = 24, 2.2 s at 28).
# Those are left out: a few draws would decide a run (see README.md).
REFUTE_CIRCULANTS = {13: 96, 17: 64}
REFUTE_SWAP_SIZES = (12, 16, 20)
REFUTE_SWAP_EACH = 16
REFUTE_SWAPS = 3


def refute(seed: int) -> Workload:
    """Non-SC inputs that pass every cheap filter: n = 0 or 1 mod 4,
    n(n-1)/4 edges and a complement-symmetric degree sequence."""
    rng = random.Random(f"refute/{seed}")
    argv = ("check", "--json")
    items = []
    for p, count in REFUTE_CIRCULANTS.items():
        for _ in range(count):
            adj = gen.relabel(gen.non_sc_circulant(p, rng), rng)
            items.append(Item(f"non_sc_circulant({p})", truth.encode_graph6(adj), argv, _refute_check))
    for n in REFUTE_SWAP_SIZES:
        for _ in range(REFUTE_SWAP_EACH):
            adj = gen.relabel(gen.swapped_sc(n, REFUTE_SWAPS, rng), rng)
            items.append(Item(f"swapped_sc({n})", truth.encode_graph6(adj), argv, _refute_check))
    rng.shuffle(items)
    warmup_adj = gen.non_sc_circulant(13, random.Random(0))
    return Workload(items, Item("warmup", truth.encode_graph6(warmup_adj), argv, _refute_check))


# -- hadwiger ------------------------------------------------------------------


def _hadwiger_check(adj, exact_value: int | None):
    """``exact_value`` is the paper's value for the sharp families; other
    inputs are SC, so an exact value is at least floor((n+1)/2)."""
    n = len(adj)

    def check(rc: int, out: str) -> Answer:
        data, err = _json(rc, out, (0, 3))
        if err:
            return Answer(err)
        value, exact = data["hadwiger"], data["exact"]
        if exact != (rc == 0) or (exact and data["upper_bound"] != value):
            return Answer("exactness, exit code and upper bound disagree")
        witness = data["witness"]
        err = truth.clique_model_error(adj, witness["branch_sets"], value) if witness else "no witness"
        if err is None and exact_value is not None and value > exact_value:
            err = f"K{value} found, but the largest complete minor is K{exact_value}"
        elif err is None and exact and value != (exact_value or value):
            err = f"exact value {value}, expected {exact_value}"
        elif err is None and exact and value < (n + 1) // 2:
            err = f"exact value {value} is below the guaranteed {(n + 1) // 2}"
        return Answer(err, exact, data["expansions"])

    return check


# Relabellings per family member.  The seven inputs with m = 3 or n >= 12
# take nearly all of the time, so wall_s is the refutation metric; the
# latency percentiles fall on the 26 small sharp graphs.  One relabelling
# of sharp_4n(3) costs 0.07 to 0.52 million expansions, and a random_sc(12)
# 0.05 to 0.42 million, so wall_s depends on the seed by about a quarter
# and this workload is not in BENCHMARK.json (see README.md).
HADWIGER_RELABELLINGS = {"sharp_4n": {2: 12, 3: 1}, "sharp_4n_plus_1": {2: 12, 3: 1}}
HADWIGER_RANDOM = {12: 1, 13: 1}


def hadwiger(seed: int) -> Workload:
    rng = random.Random(f"hadwiger/{seed}")
    argv = ("hadwiger", "--json", "--budget", str(HADWIGER_BUDGET))
    graphs = []  # (family, adjacency, the paper's value or None)
    for family, build, value in (
        ("sharp_4n", scminor.sharp_4n, lambda m: 2 * m),
        ("sharp_4n_plus_1", scminor.sharp_4n_plus_1, lambda m: 2 * m + 1),
    ):
        for m, relabellings in HADWIGER_RELABELLINGS[family].items():
            built = gen.from_library(build(m))
            graphs.append((f"{family}({m})", built, value(m)))
            graphs += [(f"{family}({m}) relabelled", gen.relabel(built, rng), value(m)) for _ in range(relabellings)]
    for n, count in HADWIGER_RANDOM.items():
        graphs += [(f"random_sc({n})", gen.relabel(gen.random_sc(n, rng), rng), None) for _ in range(count)]
    graphs.append(("random_sc(16)", gen.relabel(gen.random_sc(16, rng), rng), None))
    items = [
        Item(family, truth.encode_graph6(adj), argv, _hadwiger_check(adj, value))
        for family, adj, value in graphs
    ]
    rng.shuffle(items)
    c5 = truth.adjacency(5, [(i, (i + 1) % 5) for i in range(5)])
    return Workload(items, Item("C5", truth.encode_graph6(c5), argv, _hadwiger_check(c5, 3)))


# -- census --------------------------------------------------------------------

CLASS_COUNTS = {8: 10, 9: 36}  # OEIS A000171


def _enum_check(n: int):
    def check(rc: int, out: str) -> Answer:
        lines = out.splitlines()
        if rc != 0 or len(lines) != CLASS_COUNTS[n]:
            return Answer(f"exit code {rc}, {len(lines)} classes, expected {CLASS_COUNTS[n]}")
        for line in lines:
            adj = truth.decode_graph6(line)
            if len(adj) != n or 4 * truth.edge_count(adj) != n * (n - 1):
                return Answer(f"class {line} has the wrong size")
        return Answer(None)

    return check


def _verify_theorem_check(rc: int, out: str) -> Answer:
    data, err = _json(rc, out, (0,))
    want = {"n": 9, "graphs": 36, "verified": 36, "clique_order": 5, "ok": True}
    return Answer(err or (None if data == want else f"got {data}"))


def _topo_check(adj):
    n, m = len(adj), truth.edge_count(adj)

    def check(rc: int, out: str) -> Answer:
        data, err = _json(rc, out, (0, 3))
        if err:
            return Answer(err)
        if data["planar"] and m > 3 * n - 6 and n >= 3:
            return Answer("planar with more than 3n - 6 edges")
        if data["outerplanar"] and m > 2 * n - 3 and n >= 2:
            return Answer("outerplanar with more than 2n - 3 edges")
        if data["apex_numbers"]["0"] != data["planar"]:
            return Answer("0-apex and planarity disagree")
        for key, k in (("il_certificate", 6), ("ik_certificate", 7)):
            cert = data[key]
            if cert["status"] == "certificate":
                err = truth.clique_model_error(adj, cert["model"]["branch_sets"], k)
                if err or data["planar"]:
                    return Answer(f"{key}: {err or 'K' + str(k) + ' minor in a planar graph'}")
            elif (n + 1) // 2 >= k:
                return Answer(f"{key}: no K{k} certificate for an SC graph on {n} vertices")
        return Answer(None, rc == 0)

    return check


def _canonical_check(adj):
    def check(rc: int, out: str) -> Answer:
        form = truth.decode_graph6(out)
        if len(form) != len(adj) or truth.edge_count(form) != truth.edge_count(adj):
            return Answer("canonical form has the wrong size")
        return Answer(None)

    return check


CENSUS_RANDOM_TOPO = 12
CENSUS_CANONICAL = {12: 4, 13: 4}


def census(seed: int) -> Workload:
    """Enumeration, topology reports and canonical forms.

    Canonical forms come in groups of three: a graph, a relabelling of it
    and its complement, which must all get the same form.  Regular graphs
    are left out: at n = 13 their canonical form takes from 0.01 s to over
    18 s depending on the graph and its labelling (see README.md).
    """
    rng = random.Random(f"census/{seed}")
    topo = ("topo", "--apex", "2", "--json", "--budget", str(TOPO_BUDGET))
    items = [
        Item("enum(8)", "", ("enum", "--n", "8"), _enum_check(8)),
        Item("enum(9)", "", ("enum", "--n", "9"), _enum_check(9)),
        Item("verify-theorem(9)", "", ("verify-theorem", "--n", "9", "--json"), _verify_theorem_check),
    ]
    for n in (1, 4, 5, 8, 9):
        for g in scminor.enumerate_sc(n):
            adj = gen.relabel(gen.from_library(g), rng)
            items.append(Item(f"topo class({n})", truth.encode_graph6(adj), topo, _topo_check(adj)))
    for _ in range(CENSUS_RANDOM_TOPO):
        adj = gen.relabel(gen.random_sc(13, rng), rng)
        items.append(Item("topo random_sc(13)", truth.encode_graph6(adj), topo, _topo_check(adj)))
    bases = []
    for n, count in CENSUS_CANONICAL.items():
        while sum(len(a) == n for _, a in bases) < count:
            adj = gen.random_sc(n, rng)
            degrees = {m.bit_count() for m in adj}
            if len(degrees) > 1:
                bases.append((f"random_sc({n})", adj))
    groups = []
    for family, adj in bases:
        start = len(items)
        for variant, g in (("", adj), (" relabelled", gen.relabel(adj, rng)), (" complement", truth.complement(adj))):
            items.append(Item(f"canonical {family}{variant}", truth.encode_graph6(g), None, _canonical_check(g)))
        groups.append(range(start, start + 3))

    def cross_check(outputs: list[str]) -> list[str]:
        return [
            f"canonical forms differ within {items[group[0]].family}"
            for group in groups
            if len({outputs[i] for i in group}) != 1
        ]

    c5 = truth.adjacency(5, [(i, (i + 1) % 5) for i in range(5)])
    return Workload(items, Item("C5", truth.encode_graph6(c5), topo, _topo_check(c5)), cross_check)


WORKLOADS = {"certify": certify, "refute": refute, "hadwiger": hadwiger, "census": census}
