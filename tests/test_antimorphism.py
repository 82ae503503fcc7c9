import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import scminor.antimorphism
from scminor import (
    ConsistencyError,
    Graph,
    Permutation,
    canonical_form,
    check_sachs,
    complement,
    complete_graph,
    cycle_decomposition,
    cycle_graph,
    cycle_side_counts,
    find_antimorphism,
    is_antimorphism,
    path_graph,
    random_sc,
    sharp_4n,
    side_partition,
)
from conftest import all_labeled_graphs, random_graph, reference_cycle_side_counts, sc_classes


def test_permutation_basics():
    p = Permutation([1, 3, 0, 2])
    assert p(0) == 1 and p(3) == 2
    assert p.inverse().image == (2, 0, 3, 1)
    assert p.orbit(0) == (0, 1, 3, 2)
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_permutation_entries_are_plain_ints():
    p = Permutation([True, False])
    assert p.image == (1, 0) and all(type(v) is int for v in p.image)
    assert p.cycle_notation() == "(0 1)"
    assert repr(p) == "Permutation([1, 0])"
    with pytest.raises(TypeError):
        Permutation([1.0, 0.0])


def test_cycle_decomposition_ordering():
    dec = cycle_decomposition(Permutation(range(5)))
    assert dec.cycles == () and dec.fixed_points == (0, 1, 2, 3, 4)

    dec = cycle_decomposition(Permutation([1, 2, 3, 0]))
    assert dec.cycles == ((0, 1, 2, 3),) and dec.fixed_points == ()

    dec = cycle_decomposition(Permutation([0, 2, 4, 1, 3]))
    assert dec.cycles == ((1, 2, 4, 3),)
    assert dec.fixed_points == (0,)

    # longest cycles first, ties by least label
    mixed = Permutation([1, 2, 3, 0, 5, 6, 7, 8, 9, 10, 11, 4])
    dec = cycle_decomposition(mixed)
    assert [len(c) for c in dec.cycles] == [8, 4]
    assert dec.cycles[0][0] == 4 and dec.cycles[1][0] == 0


def test_cycle_notation():
    assert Permutation([0, 2, 4, 1, 3]).cycle_notation() == "(0)(1 2 4 3)"
    assert Permutation([1, 3, 0, 2]).cycle_notation() == "(0 1 3 2)"


def test_find_antimorphism_fixed_cases():
    rho = find_antimorphism(path_graph(4))
    assert rho == Permutation([1, 3, 0, 2])
    rho5 = find_antimorphism(cycle_graph(5))
    assert rho5 == Permutation([0, 2, 4, 1, 3])  # x -> 2x mod 5
    assert find_antimorphism(complete_graph(4)) is None
    assert find_antimorphism(complete_graph(2)) is None  # n = 2 mod 4
    assert find_antimorphism(cycle_graph(6)) is None  # n = 2 mod 4
    assert find_antimorphism(cycle_graph(7)) is None  # n = 3 mod 4


def test_find_antimorphism_returns_lex_least():
    # brute-force all antimorphisms of the 4- and 5-vertex fixtures
    for g in (path_graph(4), cycle_graph(5)):
        found = find_antimorphism(g)
        all_images = [
            perm
            for perm in permutations(range(g.n))
            if is_antimorphism(g, Permutation(perm))
        ]
        assert all_images, "fixture should be self-complementary"
        assert found.image == min(all_images)


def test_antimorphism_defining_property():
    for n in (4, 5, 8):
        for g in sc_classes(n):
            rho = find_antimorphism(g)
            assert rho is not None
            assert is_antimorphism(g, rho)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert g.has_edge(u, v) != g.has_edge(rho(u), rho(v))


def test_is_antimorphism_rejects_a_permutation_of_another_order():
    p4 = path_graph(4)
    rho = find_antimorphism(p4)
    assert is_antimorphism(p4, rho)
    # rho extended by a fixed point maps P4's pairs exactly as rho does
    longer = Permutation(list(rho.image) + [4])
    assert not is_antimorphism(p4, longer)
    assert not is_antimorphism(p4, Permutation([1, 0, 2]))


def test_find_antimorphism_exhaustive_small():
    # Independent self-complementarity oracle: the edge count must be
    # n(n-1)/4 and the canonical forms of g and its complement must match.
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            expected = 4 * g.num_edges == n * (n - 1) and (
                canonical_form(g) == canonical_form(complement(g))
            )
            assert (find_antimorphism(g) is not None) == expected


def test_check_sachs():
    assert check_sachs(cycle_decomposition(find_antimorphism(path_graph(4)))) is None
    assert check_sachs(cycle_decomposition(find_antimorphism(cycle_graph(5)))) is None

    fault = check_sachs(cycle_decomposition(Permutation([1, 0, 3, 2])))
    assert fault == "cycle length 2 is not divisible by 4"

    # one 4-cycle plus one fixed point is fine at n=5
    assert check_sachs(cycle_decomposition(Permutation([1, 2, 3, 0, 4]))) is None

    # n is read off the decomposition: every vertex lies on a cycle or is fixed
    fault = check_sachs(cycle_decomposition(Permutation([1, 2, 3, 0, 4, 5])))
    assert fault == "n=6 is not 0 or 1 mod 4"

    fault = check_sachs(cycle_decomposition(Permutation([1, 2, 3, 0, 4, 5, 6, 7, 8])))
    assert fault == "expected 1 fixed point(s) for n=9, found 5"


def test_every_found_antimorphism_passes_sachs():
    for n in (4, 5, 8, 9):
        for g in sc_classes(n):
            rho = find_antimorphism(g)
            assert check_sachs(cycle_decomposition(rho)) is None


def test_side_partition_p4():
    g = path_graph(4)
    part = side_partition(g, find_antimorphism(g))
    assert part.high == frozenset({1, 2})
    assert part.low == frozenset({0, 3})
    assert part.cross.edges() == [(0, 1), (2, 3)]
    assert part.cross.num_edges == 2


def test_side_partition_counts_and_complement_pairing():
    for n in (4, 8):
        for g in sc_classes(n):
            rho = find_antimorphism(g)
            part = side_partition(g, rho)
            assert len(part.high) == len(part.low) == n // 2
            assert part.cross.num_edges == n * n // 8
            assert {rho(v) for v in part.high} == part.low
            # the high half maps onto the complement of the low half
            for u in part.high:
                for v in part.high:
                    if u < v:
                        assert g.has_edge(u, v) != g.has_edge(rho(u), rho(v))
    part = side_partition(sharp_4n(2), find_antimorphism(sharp_4n(2)))
    assert part.cross.num_edges == 8


def test_side_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        side_partition(cycle_graph(5), find_antimorphism(cycle_graph(5)))
    with pytest.raises(ValueError):
        side_partition(path_graph(4), Permutation([0, 1, 2, 3]))


def test_cycle_side_counts_fixed_cases():
    g = path_graph(4)
    rho = find_antimorphism(g)
    cyc = cycle_decomposition(rho).cycles[0]
    assert cycle_side_counts(g, rho, cyc) == (2, 2, (1, 1, 1, 1))

    c5 = cycle_graph(5)
    rho5 = find_antimorphism(c5)
    counts = cycle_side_counts(c5, rho5, cycle_decomposition(rho5).cycles[0])
    assert counts == (2, 2, (1, 1, 1, 1))


def test_cycle_side_counts_all_small_sc():
    for n in (4, 5, 8, 9):
        for g in sc_classes(n):
            rho = find_antimorphism(g)
            for cyc in cycle_decomposition(rho).cycles:
                in_high, in_low, per_vertex = cycle_side_counts(g, rho, cyc)
                assert in_high == in_low == len(cyc) // 2
                assert all(c == len(cyc) // 4 for c in per_vertex)


def test_cycle_side_counts_rejects_non_cycle():
    g = path_graph(4)
    rho = find_antimorphism(g)
    with pytest.raises(ValueError):
        cycle_side_counts(g, rho, (0, 1, 2, 3))


def _same_side_counts_as_the_reference(g: Graph) -> None:
    # rho and its inverse: both are antimorphisms, with other cycles
    rho = find_antimorphism(g)
    for p in (rho, rho.inverse()):
        for cyc in cycle_decomposition(p).cycles:
            assert cycle_side_counts(g, p, cyc) == reference_cycle_side_counts(g, p, cyc)


def test_cycle_side_counts_equal_the_reference_on_every_small_sc_class():
    for n in (4, 5, 8, 9):
        for g in sc_classes(n):
            _same_side_counts_as_the_reference(g)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((12, 13, 61)), st.integers(0, 2**16), st.randoms(use_true_random=False))
def test_cycle_side_counts_equal_the_reference_on_relabelled_random_sc(n, seed, rng):
    g = random_sc(n, seed)
    perm = list(range(n))
    rng.shuffle(perm)
    _same_side_counts_as_the_reference(Graph(n, [(perm[u], perm[v]) for u, v in g.edges()]))


def test_cycle_side_counts_reject_a_permutation_that_misses_the_fixed_point():
    # P4 plus an isolated vertex: rho swaps P4 with its complement but keeps
    # vertex 4 isolated in both, so it is no antimorphism of the graph
    g = Graph(5, path_graph(4).edges())
    rho = Permutation([*find_antimorphism(path_graph(4)).image, 4])
    with pytest.raises(ValueError, match="not an antimorphism"):
        cycle_side_counts(g, rho, cycle_decomposition(rho).cycles[0])


def test_consecutive_neighbor_property():
    # every vertex neighbours exactly one of rho(a), rho^-1(a)
    for n in (4, 5, 8, 9):
        for g in sc_classes(n):
            rho = find_antimorphism(g)
            inv = rho.inverse()
            for a in range(g.n):
                if rho(a) == a:
                    continue
                hits = int(g.has_edge(a, rho(a))) + int(g.has_edge(a, inv(a)))
                assert hits == 1


def test_fixed_point_neighbors_one_parity_class():
    # the fixed point neighbours exactly every other vertex of each cycle,
    # and those neighbours form one parity class of the cycle
    for n in (5, 9):
        for g in sc_classes(n):
            rho = find_antimorphism(g)
            dec = cycle_decomposition(rho)
            (fixed,) = dec.fixed_points
            for cyc in dec.cycles:
                flags = [g.has_edge(fixed, v) for v in cyc]
                assert sum(flags) == len(cyc) // 2
                assert flags == [flags[0], not flags[0]] * (len(cyc) // 2)


def test_random_graphs_mostly_not_sc():
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng, 8)
        rho = find_antimorphism(g)
        if rho is not None:
            assert is_antimorphism(g, rho)


def test_side_partition_raises_consistency_error_not_assert(monkeypatch):
    # With the antimorphism precondition forced through, the re-checks must
    # still fire under ``python -O``: they raise instead of asserting.
    monkeypatch.setattr(scminor.antimorphism, "is_antimorphism", lambda g, p: True)
    with pytest.raises(ConsistencyError, match="swap the degree sides"):
        side_partition(path_graph(4), Permutation([0, 1, 2, 3]))
    # high = K4 on 0..3 plus one pendant edge each: rho swaps the sides, but
    # there are 4 cross edges instead of 2k^2 = 8
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = Graph(8, k4 + [(i, 4 + i) for i in range(4)])
    with pytest.raises(ConsistencyError, match="across 2k\\^2 cross edges"):
        side_partition(g, Permutation([4, 5, 6, 7, 0, 1, 2, 3]))
