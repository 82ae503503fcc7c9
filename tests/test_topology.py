import dataclasses
import functools
import itertools
from collections import Counter

import pytest

import scminor.construction
import scminor.topology
from scminor.graphs import iter_bits
from scminor.topology import _planar_masks
from scminor import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    find_antimorphism,
    hadwiger,
    is_n_apex,
    is_outerplanar,
    is_planar,
    ik_certificate,
    il_certificate,
    nonouterplanarity_witness,
    nonplanarity_witness,
    path_graph,
    random_sc,
    report,
    sharp_4n,
    verify_minor_model,
)
from conftest import (
    all_labeled_graphs,
    iso_classes_up_to,
    random_graph,
    reference_counted_planar,
    reference_is_n_apex,
    reference_kuratowski_witness,
    reference_report,
    sc_classes,
)
from hypothesis import given, settings, strategies as st
import networkx as nx
import random


def test_is_planar_fixed_cases():
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5))
    assert not is_planar(complete_bipartite(3, 3))
    assert is_planar(cycle_graph(5))
    assert is_planar(Graph(0))


def test_is_outerplanar_fixed_cases():
    assert is_outerplanar(cycle_graph(5))
    assert is_outerplanar(path_graph(4))
    assert not is_outerplanar(complete_graph(4))
    assert not is_outerplanar(complete_bipartite(2, 3))


def test_is_outerplanar_at_the_vertex_cap():
    path = [(v, v + 1) for v in range(63)]
    assert is_outerplanar(Graph(64, path))
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert not is_outerplanar(Graph(64, path + k4))


def test_outerplanarity_below_six_edges_runs_no_planarity_test(monkeypatch):
    """A non-outerplanar graph has a K4 or K2,3 minor, each with 6 edges, so
    no graph with at most 5 edges reaches ``_planar_masks``: every labelled
    one on at most 7 vertices, and 5-edge ones up to the 64-vertex cap."""
    calls = []
    planar = scminor.topology._planar_masks

    def counted(adj):
        calls.append(adj)
        return planar(adj)

    monkeypatch.setattr(scminor.topology, "_planar_masks", counted)
    for n in range(8):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(6):
            for edges in itertools.combinations(pairs, m):
                assert is_outerplanar(Graph(n, edges))
    for n in (9, 16, 64):
        cycle = [(n - 5 + i, n - 5 + (i + 1) % 5) for i in range(5)]
        star = [(0, v) for v in range(1, 6)]
        assert is_outerplanar(Graph(n, cycle)) and is_outerplanar(Graph(n, star))
    assert not calls
    assert not is_outerplanar(complete_graph(4))
    assert len(calls) == 1


def test_nonplanarity_witness():
    w = nonplanarity_witness(complete_graph(6))
    assert w.status == "certificate" and w.target == "K5"
    assert verify_minor_model(complete_graph(6), w.model, complete_graph(5)) is None

    w = nonplanarity_witness(complete_bipartite(3, 3))
    assert w.status == "certificate" and w.target == "K3,3"
    assert verify_minor_model(
        complete_bipartite(3, 3), w.model, complete_bipartite(3, 3)
    ) is None

    assert nonplanarity_witness(complete_graph(4)).status == "none_found"


def test_nonouterplanarity_witness():
    w = nonouterplanarity_witness(complete_graph(4))
    assert w.status == "certificate" and w.target == "K4"

    w = nonouterplanarity_witness(complete_bipartite(2, 3))
    assert w.status == "certificate" and w.target == "K2,3"
    assert verify_minor_model(
        complete_bipartite(2, 3), w.model, complete_bipartite(2, 3)
    ) is None

    assert nonouterplanarity_witness(cycle_graph(5)).status == "none_found"


def test_witnesses_match_the_planarity_test():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(3, 9), 0.5)
        planar = is_planar(g)
        w = nonplanarity_witness(g)
        assert (w.status == "none_found") == planar
        outer = is_outerplanar(g)
        ow = nonouterplanarity_witness(g)
        assert (ow.status == "none_found") == outer


def test_il_ik_certificates_trees_have_none():
    assert il_certificate(path_graph(4)).status == "none_found"
    assert ik_certificate(path_graph(4)).status == "none_found"


def test_il_ik_certificates_on_complete_graphs():
    il = il_certificate(complete_graph(6))
    assert il.status == "certificate" and il.model.k == 6
    ik = ik_certificate(complete_graph(7))
    assert ik.status == "certificate" and ik.model.k == 7
    assert ik_certificate(complete_graph(6)).status == "none_found"


def test_il_ik_certificates_on_random_sc():
    for seed in range(5):
        g12 = random_sc(12, seed)
        il = il_certificate(g12)
        assert il.status == "certificate"
        assert verify_minor_model(g12, il.model, complete_graph(6)) is None
        g13 = random_sc(13, seed)
        ik = ik_certificate(g13)
        assert ik.status == "certificate"
        assert verify_minor_model(g13, ik.model, complete_graph(7)) is None


def test_is_n_apex():
    assert is_n_apex(complete_graph(5), 1) == (True, frozenset({0}))
    assert is_n_apex(complete_graph(6), 1) == (False, None)
    assert is_n_apex(complete_graph(6), 2)[0]
    assert is_n_apex(complete_graph(4), 0) == (True, frozenset())
    with pytest.raises(ValueError):
        is_n_apex(complete_graph(4), 4)
    with pytest.raises(ValueError):
        is_n_apex(complete_graph(4), -1)


def test_zero_apex_equals_planarity():
    rng = random.Random(8)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9), 0.5)
        assert is_n_apex(g, 0)[0] == is_planar(g)


def test_two_apex_twelve_vertex_self_complementary_graph_exists():
    # a concrete 12-vertex self-complementary graph that loses its
    # non-planarity after deleting two vertices, hence is not intrinsically
    # knotted; consistently, no complete minor of order 7 exists in it
    g = sharp_4n(3)
    assert find_antimorphism(g) is not None
    ok, deleted = is_n_apex(g, 2)
    assert ok and len(deleted) == 2
    assert ik_certificate(g).status == "none_found"
    # searched examples also appear among random ones
    g = random_sc(12, 1)
    assert is_n_apex(g, 2)[0]


def test_euler_bounds_respected():
    rng = random.Random(77)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(3, 11), 0.5)
        if is_planar(g):
            assert g.num_edges <= 3 * g.n - 6 or g.n < 3
        if is_outerplanar(g):
            assert g.num_edges <= 2 * g.n - 3 or g.n < 2


def test_report_c5():
    rep = report(cycle_graph(5), apex=1)
    assert rep.outerplanar and rep.planar
    assert rep.il_certificate.status == "none_found"
    assert rep.ik_certificate.status == "none_found"
    assert rep.apex_numbers == (True, True)
    data = rep.to_json_dict()
    assert data["outerplanar"] is True
    assert data["apex_numbers"] == {"0": True, "1": True}
    assert data["il_certificate"]["status"] == "none_found"


def test_report_is_hashable_with_one_apex_answer_per_j():
    for g in (cycle_graph(5), sharp_4n(2), random_sc(13, 3)):
        reports = [report(g, apex) for apex in range(4)]
        assert [len(rep.apex_numbers) for rep in reports] == [1, 2, 3, 4]
        assert all(type(rep.apex_numbers) is tuple for rep in reports)
        assert len(set(reports)) == 4
        assert hash(report(g, 2)) == hash(reports[2])


def test_report_sharp_eight():
    rep = report(sharp_4n(2), apex=0)
    assert not rep.outerplanar
    assert rep.planar  # all self-complementary graphs on 8 vertices embed
    assert rep.il_certificate.status == "none_found"


def test_report_random_sc_13():
    rep = report(random_sc(13, 3), apex=0)
    assert not rep.planar and not rep.outerplanar
    assert rep.il_certificate.status == "certificate"
    assert rep.ik_certificate.status == "certificate"
    assert rep.apex_numbers[0] is False


def test_outerplanar_implies_planar_battery():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 10), 0.4)
        if is_outerplanar(g):
            assert is_planar(g)


def test_hadwiger_of_sc_eight_vertex_graphs_is_exactly_four():
    # cross-check used by the planarity result: no 8-vertex
    # self-complementary graph reaches a complete minor of order 5
    for g in sc_classes(8):
        assert hadwiger(g).value == 4


def test_report_rejects_bad_apex_parameters_despite_a_certificate():
    g = random_sc(13, 3)
    assert report(g, apex=0).ik_certificate.status == "certificate"
    with pytest.raises(ValueError, match="capped at j <= 3, got 4"):
        report(g, apex=4)
    with pytest.raises(ValueError, match="must be >= 0, got -1"):
        report(g, apex=-1)


def test_report_apex_numbers_equal_per_j_searches(monkeypatch):
    calls = []
    search = scminor.topology.is_n_apex

    def counted(g, j):
        calls.append(j)
        return search(g, j)

    monkeypatch.setattr(scminor.topology, "is_n_apex", counted)
    rng = random.Random(61)
    graphs = [g for n in (1, 4, 5, 8, 9) for g in sc_classes(n)]
    # dense enough that some K6 and K7 certificates settle j without search
    graphs += [random_graph(rng, rng.randrange(6, 12), 0.7) for _ in range(20)]
    for g in graphs:
        calls.clear()
        rep = report(g)
        assert rep.apex_numbers == tuple(search(g, j)[0] for j in (0, 1, 2))
        assert len(calls) <= 1


def _count_construction_calls(monkeypatch):
    """Count antimorphism searches, plans and realisations by name.

    Searches are counted in construction too, so that one hidden inside
    ``guaranteed_minor`` is caught.  Each module keeps its own reference, so
    no call is counted twice.
    """
    calls = Counter()
    for module in (scminor.topology, scminor.construction):
        for name in ("find_antimorphism", "build_plan", "realize_minor"):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_report_builds_the_constructive_model_once(monkeypatch):
    calls = _count_construction_calls(monkeypatch)
    once = {"find_antimorphism": 1, "build_plan": 1, "realize_minor": 1}
    for g, apex in ((random_sc(13, 1), 2), (random_sc(61, 1), 3)):
        calls.clear()
        report(g, apex)
        assert calls == once
    # below floor((n+1)/2) = 6 the model could settle nothing: no search at all
    for g in (g for n in (1, 4, 5, 8, 9) for g in sc_classes(n)):
        for apex in (2, 0):
            calls.clear()
            report(g, apex)
            assert not calls
    # a host that is not SC is searched once, and the oracle answers the rest
    rng = random.Random(19)
    for _ in range(6):
        calls.clear()
        report(random_graph(rng, rng.randrange(11, 14), 0.7))
        assert calls == {"find_antimorphism": 1}


def test_report_certificates_equal_the_certificate_functions():
    rng = random.Random(43)
    graphs = [g for n in (1, 4, 5, 8, 9) for g in sc_classes(n)]
    assert len(graphs) == 50
    graphs += [random_sc(n, s) for n in (12, 13) for s in range(5)]
    graphs += [complete_graph(6), complete_graph(7)]
    graphs += [random_graph(rng, rng.randrange(8, 14), 0.8) for _ in range(10)]
    for g in graphs:
        rep = report(g)
        pairs = (rep.il_certificate, il_certificate(g)), (rep.ik_certificate, ik_certificate(g))
        for got, want in pairs:
            assert (got.status, got.target, got.model) == (want.status, want.target, want.model)


def test_none_found_targets_are_pinned():
    data = report(cycle_graph(5)).to_json_dict()
    assert data["il_certificate"] == {"status": "none_found", "target": "K6", "model": None}
    assert data["ik_certificate"] == {"status": "none_found", "target": "K7", "model": None}
    assert nonplanarity_witness(complete_graph(4)).target is None
    assert nonouterplanarity_witness(cycle_graph(5)).target is None


def _with_apex(adj: list[int]) -> list[int]:
    """The adjacency masks ``adj`` plus a vertex joined to all of them."""
    return [m | 1 << len(adj) for m in adj] + [(1 << len(adj)) - 1]


def _masks(g: Graph, apex: bool = False) -> list[int]:
    """The adjacency masks of g, plus a vertex joined to all of g if ``apex``."""
    return _with_apex(list(g._adj)) if apex else list(g._adj)


def reference_planar_masks(adj: list[int]) -> bool:
    """networkx's planarity test on the graph with adjacency masks ``adj``."""
    h = nx.Graph()
    h.add_nodes_from(range(len(adj)))
    h.add_edges_from((u, w) for u, m in enumerate(adj) for w in iter_bits(m) if u < w)
    return nx.check_planarity(h)[0]


def reference_planar(g: Graph, apex: bool = False) -> bool:
    """networkx's planarity test on g, plus a vertex joined to all of g if
    ``apex`` (outerplanarity), with no edge-count shortcut."""
    return reference_planar_masks(_masks(g, apex))


def test_counting_rules_agree_with_networkx_on_every_small_labelled_graph():
    for n in range(6):
        for g in all_labeled_graphs(n):
            assert is_planar(g) == reference_planar(g), g
            assert is_outerplanar(g) == reference_planar(g, apex=True), g


def _maximal_edges(rng: random.Random, n: int, outer: bool) -> list[tuple[int, int]]:
    """A random maximal outerplanar (2n - 3 edges) or maximal planar (3n - 6
    edges) graph: start from a triangle, and join each further vertex to both
    ends of an outer-cycle edge, or to the three corners of a face."""
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1), (1, 2), (2, 0)] if outer else [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        face = faces.pop(rng.randrange(len(faces)))
        edges += [(u, v) for u in face]
        faces += [face[:i] + (v,) + face[i + 1:] for i in range(len(face))]
    return edges


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 64),
    st.integers(0, 7),
    st.sampled_from(("empty", "outerplanar", "planar")),
    st.randoms(use_true_random=False),
)
def test_counting_rules_agree_with_networkx_at_each_threshold(n, which, base, rng):
    """m edges at or next to a threshold, taken from or added to a random
    empty, maximal outerplanar or maximal planar graph, so that the graphs
    at 2n - 3 and 3n - 6 edges can be outerplanar and planar."""
    m = (5, 6, 8, 9, 2 * n - 3, 2 * n - 2, 3 * n - 6, 3 * n - 5)[which]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if m > len(pairs):
        return
    g = Graph(n) if base == "empty" else Graph(n, _maximal_edges(rng, n, base == "outerplanar"))
    edges = g.edges()
    if len(edges) > m:
        edges = rng.sample(edges, m)
    else:
        edges += rng.sample([e for e in pairs if not g.has_edge(*e)], m - len(edges))
    g = Graph(n, edges)
    assert is_planar(g) == reference_planar(g)
    assert is_outerplanar(g) == reference_planar(g, apex=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.integers(0, 3), st.randoms(use_true_random=False))
def test_planarity_next_to_each_count_threshold_equals_the_reference(core, isolated, rng):
    """Each base (no edges, maximal outerplanar, maximal planar, K5, K3,3)
    on ``core`` vertices, cut or filled to m edges at or next to a count
    rule: m = 8/9/10 and m = 3n' - 6, n' the vertices that have a
    neighbour, for planarity; m + n = 8/9/10 and m = 2n - 3 on g plus an
    apex.  ``isolated`` more vertices take no edges, and the labels are
    shuffled."""
    n = core + isolated
    pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
    bases = [[]]
    if core >= 3:
        bases += [_maximal_edges(rng, core, outer) for outer in (True, False)]
    if core >= 5:
        bases.append(complete_graph(5).edges())
    if core >= 6:
        bases.append(complete_bipartite(3, 3).edges())
    counts = (8, 9, 10, 3 * core - 7, 3 * core - 6, 3 * core - 5)
    counts += (8 - n, 9 - n, 10 - n, 2 * n - 4, 2 * n - 3, 2 * n - 2)
    label = rng.sample(range(n), n)
    for base in bases:
        for m in counts:
            if not 0 <= m <= len(pairs):
                continue
            if len(base) > m:
                edges = rng.sample(base, m)
            else:
                edges = base + rng.sample([e for e in pairs if e not in base], m - len(base))
            g = Graph(n, [(label[u], label[v]) for u, v in edges])
            assert is_planar(g) == reference_counted_planar(g, False), g
            assert is_outerplanar(g) == reference_counted_planar(g, True), g


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 12),
    st.floats(0.0, 1.0),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_apex_deletion_sets_equal_the_induced_subgraph_reference(n, p, pendants, isolated, j, rng):
    # pendant and isolated vertices are added, and the labels shuffled, so
    # that deleted and edgeless vertices fall anywhere among the labels
    g = random_graph(rng, n, p)
    k = min(pendants, 12 - n) if n else 0
    edges = g.edges() + [(rng.randrange(w), w) for w in range(n, n + k)]
    total = n + k + min(isolated, 12 - n - k)
    label = rng.sample(range(total), total)
    g = Graph(total, [(label[u], label[v]) for u, v in edges])
    assert is_n_apex(g, j) == reference_is_n_apex(g, j)


def test_mask_planarity_agrees_with_networkx_on_every_small_labelled_graph():
    """``_planar_masks`` on every labelled graph with at most 6 vertices,
    with and without an apex.  networkx runs once per isomorphism class,
    and the relabellings of the class representatives make up every
    labelled graph."""
    for n, reps in iso_classes_up_to(6).items():
        seen = set()
        for rep in reps:
            want = reference_planar(rep), reference_planar(rep, apex=True)
            for perm in itertools.permutations(range(n)):
                g = Graph(n, [(perm[u], perm[v]) for u, v in rep.edges()])
                if g not in seen:
                    seen.add(g)
                    assert (_planar_masks(_masks(g)), _planar_masks(_masks(g, True))) == want, g
        assert len(seen) == 2 ** (n * (n - 1) // 2)


def _maximal_masks(rng: random.Random, n: int, outer: bool) -> list[int]:
    """``_maximal_edges`` as adjacency masks, relabelled at random; n may
    exceed the 64 vertices a Graph holds."""
    label = rng.sample(range(n), n)
    adj = [0] * n
    for u, v in _maximal_edges(rng, n, outer):
        adj[label[u]] |= 1 << label[v]
        adj[label[v]] |= 1 << label[u]
    return adj


@settings(max_examples=100, deadline=None)
@given(
    st.integers(7, 65),
    st.sampled_from(("outerplanar", "outerplanar+apex", "planar")),
    st.integers(0, 3),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
)
def test_mask_planarity_agrees_with_networkx_near_maximal_graphs(n, base, cut, extra, rng):
    """A random maximal outerplanar graph (with an apex: a maximal planar
    graph on one vertex more) or maximal planar graph on n vertices, with
    ``cut`` of its edges removed and ``extra`` non-edges added."""
    if base == "outerplanar+apex":
        adj = _with_apex(_maximal_masks(rng, n - 1, outer=True))
    else:
        adj = _maximal_masks(rng, n, outer=base == "outerplanar")
    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if adj[u] >> w & 1]
    others = [(u, w) for u in range(n) for w in range(u + 1, n) if not adj[u] >> w & 1]
    for u, w in rng.sample(edges, cut) + rng.sample(others, min(extra, len(others))):
        adj[u] ^= 1 << w
        adj[w] ^= 1 << u
    assert _planar_masks(adj) == reference_planar_masks(adj)


def _glued(*parts: Graph) -> Graph:
    """The parts laid side by side, the last vertex of each identified with
    the first vertex of the next, so each joint is a cut vertex."""
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n - 1
    return Graph(offset + 1, edges)


@pytest.mark.parametrize(
    "g, planar",
    [
        (_glued(complete_graph(5), complete_graph(5)), False),
        (_glued(complete_graph(4), complete_graph(4)), True),
        (_glued(complete_graph(4), cycle_graph(6), complete_graph(4), path_graph(3)), True),
        # K3,3 with a pendant path and a pendant star on two of its vertices
        (_glued(path_graph(4), complete_bipartite(3, 3), complete_bipartite(1, 3)), False),
        (_glued(path_graph(4), complete_bipartite(2, 3), path_graph(5)), True),
    ],
)
def test_mask_planarity_on_graphs_with_several_blocks(g, planar):
    flipped = Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])
    for adj in (_masks(g), _masks(flipped)):
        assert _planar_masks(adj) == reference_planar_masks(adj) == planar


def test_report_planarity_agrees_with_networkx():
    rng = random.Random(97)
    graphs = [g for n in (1, 4, 5, 8, 9) for g in sc_classes(n)]
    assert len(graphs) == 50
    graphs += [random_graph(rng, rng.randrange(6, 12), 0.7) for _ in range(20)]
    for g in graphs:
        want = reference_planar(g), reference_planar(g, apex=True)
        for apex in (2, 0):
            rep = report(g, apex)
            assert (rep.planar, rep.outerplanar) == want


def test_report_tests_the_planarity_of_its_graph_once(monkeypatch):
    calls = []
    planar = scminor.topology.is_planar

    def counted(h):
        calls.append(h)
        return planar(h)

    monkeypatch.setattr(scminor.topology, "is_planar", counted)
    for g in (g for n in (1, 4, 5, 8, 9) for g in sc_classes(n)):
        calls.clear()
        report(g, apex=2)
        assert sum(h == g for h in calls) == 1


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_apex_first_report_equals_the_oracle_first_reference(monkeypatch):
    """The same report, with no more oracle expansions, at every apex parameter.

    Where the apex search settles K6 or K7 the reference's exhaustive oracle
    answer is replaced by none found with 0 expansions; everything else,
    expansion counts included, must be equal.  The oracle and the apex
    search are deterministic, so both share their answers through a cache."""
    for name in ("has_minor", "is_n_apex"):
        monkeypatch.setattr(scminor.topology, name, functools.cache(getattr(scminor.topology, name)))
    rng = random.Random(23)
    graphs = [_relabelled(g, rng) for n in (1, 4, 5, 8, 9) for g in sc_classes(n)]
    assert len(graphs) == 50
    graphs += [random_sc(n, s) for n in (12, 13) for s in range(20)]
    graphs += [random_graph(rng, rng.randrange(6, 12), 0.7) for _ in range(20)]
    for g in graphs:
        for apex in range(4):
            got, want = report(g, apex), reference_report(g, tuple(range(apex + 1)))
            # the reference keeps its answers in a dict keyed by j
            want = dataclasses.replace(want, apex_numbers=tuple(want.apex_numbers.values()))
            assert got.to_json_dict() == want.to_json_dict()
            for mine, theirs in ((got.il_certificate, want.il_certificate), (got.ik_certificate, want.ik_certificate)):
                assert mine == theirs or (mine.expansions == 0 and mine.status == "none_found")


def test_report_asks_no_oracle_on_the_nine_vertex_classes(monkeypatch):
    calls = []
    oracle = scminor.topology.has_minor

    def counted(query):
        calls.append(query)
        return oracle(query)

    monkeypatch.setattr(scminor.topology, "has_minor", counted)
    for g in sc_classes(9):
        rep = report(g, apex=2)
        assert rep.il_certificate.status == rep.ik_certificate.status == "none_found"
    assert len(sc_classes(9)) == 36 and not calls


def _subdivided(h: Graph, times: int) -> Graph:
    """h with every edge replaced by a path of ``times`` inner vertices."""
    edges, n = [], h.n
    for u, v in h.edges():
        walk = [u, *range(n, n + times), v]
        edges += zip(walk, walk[1:])
        n += times
    return Graph(n, edges)


def test_kuratowski_witnesses_of_subdivisions():
    g = _subdivided(complete_bipartite(3, 3), 2)
    assert (g.n, g.num_edges) == (24, 27)
    w = nonplanarity_witness(g)
    assert (w.status, w.target, w.expansions) == ("certificate", "K3,3", 0)
    assert verify_minor_model(g, w.model, complete_bipartite(3, 3)) is None
    ow = nonouterplanarity_witness(g)
    assert ow.status == "certificate"

    g = _subdivided(complete_graph(5), 1)
    w = nonplanarity_witness(g)
    assert (w.status, w.target) == ("certificate", "K5")
    assert verify_minor_model(g, w.model, complete_graph(5)) is None
    # a subdivided cycle stays outerplanar, a subdivided K4 does not
    assert nonouterplanarity_witness(_subdivided(cycle_graph(5), 3)).status == "none_found"
    w = nonouterplanarity_witness(_subdivided(complete_graph(4), 2))
    assert w.status == "certificate" and w.target in ("K4", "K2,3")


_WITNESS_TARGETS = {
    "K5": complete_graph(5),
    "K3,3": complete_bipartite(3, 3),
    "K4": complete_graph(4),
    "K2,3": complete_bipartite(2, 3),
}


def _check_kuratowski_witnesses(g: Graph) -> None:
    for witness, apex, names in (
        (nonplanarity_witness, False, ("K5", "K3,3")),
        (nonouterplanarity_witness, True, ("K4", "K2,3")),
    ):
        w = witness(g)
        assert (w.status == "none_found") == reference_planar(g, apex)
        if w.status == "none_found":
            assert (w.target, w.model) == (None, None)
        else:
            assert w.status == "certificate" and w.target in names
            assert verify_minor_model(g, w.model, _WITNESS_TARGETS[w.target]) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_kuratowski_witnesses_agree_with_networkx(n, p, seed):
    _check_kuratowski_witnesses(random_graph(random.Random(seed), n, p))


def test_kuratowski_witnesses_on_every_graph_up_to_six_vertices():
    # includes K2,4 plus the edge between its two hubs: planar, and reduced
    # to a single edge, where the 3n - 6 bound does not hold
    for graphs in iso_classes_up_to(6).values():
        for g in graphs:
            _check_kuratowski_witnesses(g)


def _same_witnesses_as_the_dict_reference(g: Graph) -> None:
    for witness, apex in ((nonplanarity_witness, False), (nonouterplanarity_witness, True)):
        new, old = witness(g), reference_kuratowski_witness(g, apex)
        assert (new.status, new.target, new.model) == (old.status, old.target, old.model)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 12),
    st.floats(0.0, 1.0),
    st.integers(0, 12),
    st.integers(0, 3),
    st.integers(0, 2**32),
)
def test_kuratowski_witnesses_equal_the_dict_of_sets_reference(n, p, cuts, pendants, seed):
    # some edges subdivided and some pendant vertices added, so that the
    # pruning to the 2-core and the smoothing of degree-2 paths both run
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    edges = g.edges()
    rng.shuffle(edges)
    cut = edges[: min(cuts, 12 - n)]
    edges = [e for e in edges if e not in cut]
    edges += [e for i, (u, v) in enumerate(cut) for e in ((u, n + i), (n + i, v))]
    m = n + len(cut)
    k = min(pendants, 12 - m) if m else 0
    edges += [(rng.randrange(w), w) for w in range(m, m + k)]
    g = Graph(m + k, edges)
    _same_witnesses_as_the_dict_reference(g)


def test_kuratowski_witnesses_equal_the_dict_of_sets_reference_on_fixed_graphs():
    # the last: vertex 2 has degree 2 once its pendant neighbour 9 is pruned,
    # so it is smoothed only when the 2-core is taken first
    hanging = [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 10), (1, 3), (1, 4)]
    hanging += [(1, 6), (1, 7), (1, 8), (2, 3), (2, 6), (2, 9), (3, 4), (3, 5), (3, 6)]
    hanging += [(3, 7), (4, 6), (4, 7), (6, 7)]
    for g in (
        _subdivided(complete_bipartite(3, 3), 2),
        _subdivided(complete_graph(5), 1),
        _subdivided(complete_graph(4), 2),
        _subdivided(cycle_graph(5), 3),
        sharp_4n(3),
        Graph(11, hanging),
    ):
        _same_witnesses_as_the_dict_reference(g)
