import random
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from scminor import (
    CapacityError,
    Graph,
    Graph6Error,
    MinorModel,
    canonical_form,
    complement,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    parse_graph6,
    path_graph,
    random_sc,
    write_graph6,
)
from scminor.graphs import iter_bits, neighbourhood
from conftest import (
    all_labeled_graphs,
    are_isomorphic,
    blocks_of_form,
    iso_classes_up_to,
    random_graph,
    reference_canonical_form,
    reference_parse_graph6,
    reference_tied_labelings,
    reference_write_graph6,
)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(CapacityError):
        Graph(65)


def test_iter_bits_rejects_a_negative_mask():
    # a negative int has infinitely many set bits; the loop must not start
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    with pytest.raises(ValueError, match="negative mask -1"):
        next(iter_bits(-1))
    with pytest.raises(ValueError):
        MinorModel((-1,)).to_json()
    with pytest.raises(ValueError):
        neighbourhood(path_graph(3)._adj, -1)


def test_basic_queries():
    g = path_graph(4)
    assert g.n == 4
    assert g.num_edges == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.neighbors(2) == (1, 3)
    assert Graph(4, [(0, 1), (1, 0)]).num_edges == 1  # duplicates collapse


@pytest.mark.parametrize("v", [-1, 3])
def test_vertex_queries_reject_a_vertex_out_of_range(v):
    # a negative v would otherwise index the adjacency masks from the end
    g = Graph(3, [(0, 1), (1, 2)])
    for query in (g.degree, g.neighbors, g.neighbor_mask):
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range for n=3$"):
            query(v)
    for u, w in ((v, 0), (0, v)):
        with pytest.raises(ValueError, match=rf"^vertex pair \({u}, {w}\) out of range for n=3$"):
            g.has_edge(u, w)


def test_complement_fixed_cases():
    assert complement(complete_graph(4)) == Graph(4)
    p4c = complement(path_graph(4))
    assert p4c.edges() == [(0, 2), (0, 3), (1, 3)]
    assert canonical_form(p4c) == canonical_form(path_graph(4))


def test_complement_is_involution_and_edge_counts():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n)
        assert complement(complement(g)) == g
        assert g.num_edges + complement(g).num_edges == n * (n - 1) // 2


def test_induced_subgraph():
    k3, relabel = induced_subgraph(complete_graph(4), [0, 1, 2])
    assert k3 == complete_graph(3)
    assert relabel == {0: 0, 1: 1, 2: 2}

    sub, relabel = induced_subgraph(path_graph(4), [0, 1, 3])
    assert relabel == {0: 0, 1: 1, 3: 2}
    assert sub.edges() == [(0, 1)]
    assert sub.degree(2) == 0

    same, _ = induced_subgraph(path_graph(4), range(4))
    assert same == path_graph(4)

    with pytest.raises(ValueError):
        induced_subgraph(path_graph(4), [0, 4])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 64), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_induced_subgraph_equals_the_edge_list_build(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    keep = [v for v in range(n) if rng.random() < p]
    relabel = {old: new for new, old in enumerate(keep)}
    want = Graph(len(keep), [(relabel[u], relabel[v]) for u, v in g.edges() if u in relabel and v in relabel])
    assert induced_subgraph(g, reversed(keep)) == (want, relabel)


def test_graph6_fixed_strings():
    assert parse_graph6("@") == Graph(1)
    assert parse_graph6("C~") == complete_graph(4)
    assert write_graph6(path_graph(4)) == "Ch"
    assert parse_graph6("Ch") == path_graph(4)


def test_graph6_roundtrip_random():
    rng = random.Random(99)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 13))
        assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 62), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_graph6_roundtrip_up_to_the_cap(n, p, rng):
    g = random_graph(rng, n, p)
    text = write_graph6(g)
    assert len(text) == 1 + (n * (n - 1) // 2 + 5) // 6
    assert parse_graph6(text) == g


def test_write_graph6_rejects_63_and_64_vertices():
    for n in (63, 64):
        with pytest.raises(CapacityError):
            write_graph6(Graph(n))


def test_graph6_rejects_malformed():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # missing data byte
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")  # extra data byte
    with pytest.raises(Graph6Error):
        parse_graph6("B~")  # nonzero padding bits for n=3
    with pytest.raises(Graph6Error):
        parse_graph6("C" + chr(30))  # byte below the graph6 range
    with pytest.raises(Graph6Error):
        parse_graph6("~??")  # long-form count not supported
    err = None
    try:
        parse_graph6("C" + chr(30))
    except Graph6Error as exc:
        err = exc
    assert err is not None and err.offset == 1


@pytest.mark.parametrize(
    "text, offset, message",
    [
        (">", 0, "invalid vertex-count byte"),
        ("C~\x1e", 3, "expected 1 data bytes"),
        ("\x1fC~", 0, "invalid vertex-count byte"),
        ("\x1cCh", 0, "invalid vertex-count byte"),
        ("C\x1e", 1, "invalid graph6 byte"),
        ("\xa0C~", 0, "invalid vertex-count byte"),
        ("C~\x85", 3, "expected 1 data bytes"),
    ],
)
def test_graph6_rejects_bytes_outside_its_range(text, offset, message):
    # none of these is stripped: str.strip() would drop 0x1c-0x1f, 0x85 and
    # 0xa0 and read K4 or P4
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(text)
    assert exc.value.offset == offset and message in str(exc.value)


def test_graph6_ignores_surrounding_ascii_whitespace():
    assert parse_graph6(" \t\x0b\x0cC~\r\n ") == complete_graph(4)


def test_graph6_empty_graph():
    assert write_graph6(Graph(0)) == "?"
    assert parse_graph6("?") == Graph(0)


def test_canonical_fixed_cases():
    assert canonical_form(path_graph(4)) == canonical_form(complement(path_graph(4)))
    assert canonical_form(complete_graph(4)) != canonical_form(cycle_graph(4))
    with pytest.raises(CapacityError):
        canonical_form(Graph(17))


def test_canonical_invariant_under_relabeling():
    rng = random.Random(21)
    g = random_graph(rng, 8)
    base = canonical_form(g)
    for _ in range(50):
        perm = list(range(8))
        rng.shuffle(perm)
        relabeled = Graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(relabeled) == base


def test_canonical_separates_all_small_graphs():
    # Exhaustive ground truth at n <= 6: representatives of distinct canonical
    # classes must be non-isomorphic (independent backtracking search), and
    # members must be isomorphic to their representative.
    classes = iso_classes_up_to(6)
    expected_counts = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, reps in classes.items():
        assert len(reps) == expected_counts[n]
        buckets: dict[tuple, list[Graph]] = {}
        for rep in reps:
            key = (rep.num_edges, tuple(sorted(rep.degree(v) for v in range(n))))
            buckets.setdefault(key, []).append(rep)
        for group in buckets.values():
            for a_idx in range(len(group)):
                for b_idx in range(a_idx + 1, len(group)):
                    assert not are_isomorphic(group[a_idx], group[b_idx])


def test_canonical_matches_isomorphism_on_labeled_graphs():
    rng = random.Random(7)
    reps = {canonical_form(g): g for n in (4, 5) for g in iso_classes_up_to(6)[n]}
    for n in (4, 5):
        for _ in range(120):
            g = random_graph(rng, n)
            rep = reps[canonical_form(g)]
            assert are_isomorphic(g, rep)


def test_canonical_form_is_the_least_block_string():
    # The twin and open-cell rules cut the search, never the minimum: the
    # form is the one a search that follows every tie to a leaf finds.
    graphs = [g for n in range(6) for g in all_labeled_graphs(n)]
    for n in (8, 9, 12, 13):
        for seed in range(10):
            g = random_sc(n, seed)
            graphs += [g, complement(g)]
    for g in graphs:
        assert blocks_of_form(canonical_form(g)) == reference_canonical_form(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_canonical_form_least_and_invariant_on_random_graphs(n, p, rng):
    g = random_graph(rng, n, p)
    # the reference follows all 10! tied labelings of the empty and the
    # complete graph on 10 vertices, tens of seconds each; those two are
    # pinned in the next test, and the reference runs where at most 9! are
    # tied
    assume(reference_tied_labelings(g) <= factorial(9))
    form = canonical_form(g)
    assert blocks_of_form(form) == reference_canonical_form(g)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_form(relabeled) == form


def test_canonical_form_of_the_edgeless_and_complete_graphs_on_ten_vertices():
    # every labeling of these gives the same graph6 string
    for g in (Graph(10), complete_graph(10)):
        assert canonical_form(g) == write_graph6(g).encode()


def test_canonical_form_splits_open_cells():
    # Split graphs: an independent set of 6, a clique of 6, and a 3-regular
    # bipartite graph between them.  Refinement keeps the two classes, the
    # independent set is placed as one open cell, and the least string needs
    # that cell split by each clique vertex.  They have 518,400 labelings.
    rng = random.Random(3)
    for _ in range(6):
        image = list(range(6, 12))
        rng.shuffle(image)
        edges = [(u, v) for u in range(6, 12) for v in range(u + 1, 12)]
        edges += [(i, image[(i + k) % 6]) for i in range(6) for k in range(3)]
        g = Graph(12, edges)
        perm = list(range(12))
        rng.shuffle(perm)
        relabeled = Graph(12, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(relabeled) == canonical_form(g)
        assert blocks_of_form(canonical_form(g)) == reference_canonical_form(g)


def relabelled(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def paley_13() -> Graph:
    squares = {x * x % 13 for x in range(1, 13)}
    return Graph(13, [(u, v) for u in range(13) for v in range(u + 1, 13) if (v - u) % 13 in squares])


REGULAR_SC_13 = [paley_13()] + [random_sc(13, s) for s in (3, 8, 18, 22, 29, 46, 54, 55, 57, 70, 78)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(REGULAR_SC_13),
    st.permutations(range(13)),
    st.permutations(range(13)),
    st.permutations(range(13)),
)
def test_canonical_form_of_regular_sc_graphs(base, p0, p1, p2):
    # Refinement leaves a regular graph one colour class, so the twin and
    # open-cell rules carry the whole search.  A relabelling and the
    # complement of a relabelling must get the graph's own form.
    assert len({base.degree(v) for v in range(13)}) == 1
    g = relabelled(base, p0)
    form = canonical_form(g)
    assert canonical_form(relabelled(g, p1)) == form
    assert canonical_form(complement(relabelled(g, p2))) == form


# -- mask-built operations against their edge-list references ---------------


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class, text and offset it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # compared as data below
        return "raised", type(exc), str(exc), getattr(exc, "offset", None)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 62), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_graph6_round_trip_matches_the_edge_list_reference(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    text = write_graph6(g)
    assert text == reference_write_graph6(g)
    assert parse_graph6(text) == reference_parse_graph6(text) == g


_GRAPH6_BYTES = st.one_of(
    st.characters(min_codepoint=63, max_codepoint=126),
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0"),
    st.characters(max_codepoint=0x2FF),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 62), st.floats(0.0, 1.0), st.integers(0, 2**32), st.data())
def test_malformed_graph6_raises_as_the_edge_list_reference(n, p, seed, data):
    text = write_graph6(random_graph(random.Random(seed), n, p))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        byte = data.draw(_GRAPH6_BYTES)
        edit = data.draw(st.sampled_from(("insert", "replace", "delete", "cut")))
        if edit == "insert":
            text = text[:at] + byte + text[at:]
        elif edit == "replace":
            text = text[:at] + byte + text[at + 1 :]
        elif edit == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at]
    assert _outcome(parse_graph6, text) == _outcome(reference_parse_graph6, text)
