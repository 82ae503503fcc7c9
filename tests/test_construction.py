import pytest
from hypothesis import given, settings, strategies as st

from scminor import (
    ConsistencyError,
    Graph,
    MinorModel,
    Permutation,
    build_plan,
    choose_generator,
    complete_graph,
    cycle_decomposition,
    cycle_graph,
    cycle_matching,
    cycle_side_counts,
    find_antimorphism,
    guaranteed_minor,
    has_minor,
    path_graph,
    realize_minor,
    sharp_4n,
    side_partition,
    verify_minor_model,
)
from conftest import random_graph, random_sc_batch, reference_verify_minor_model, sc_classes


def _rho_and_cycles(g):
    rho = find_antimorphism(g)
    return rho, cycle_decomposition(rho).cycles


def test_choose_generator_fixed_cases():
    g = path_graph(4)
    rho, cycles = _rho_and_cycles(g)
    assert choose_generator(g, rho, cycles[0]) == 0
    c5 = cycle_graph(5)
    rho5, cycles5 = _rho_and_cycles(c5)
    assert choose_generator(c5, rho5, cycles5[0]) == 1


def test_choose_generator_property():
    for n in (4, 5, 8, 9):
        for g in sc_classes(n):
            rho, cycles = _rho_and_cycles(g)
            for cyc in cycles:
                a = choose_generator(g, rho, cyc)
                assert a in cyc
                assert g.has_edge(a, rho(a))
                for smaller in cyc:
                    if smaller < a:
                        assert not g.has_edge(smaller, rho(smaller))


def test_choose_generator_rejects_open_cycle():
    g = path_graph(4)
    rho, _ = _rho_and_cycles(g)
    with pytest.raises(ValueError):
        choose_generator(g, rho, (0, 1, 2, 3))


def test_choose_generator_raises_when_no_cycle_vertex_neighbours_its_image():
    rho = Permutation([1, 2, 3, 0])
    with pytest.raises(ConsistencyError, match="cannot be an antimorphism"):
        choose_generator(Graph(4), rho, (0, 1, 2, 3))


def test_cycle_matching_fixed_cases():
    g = path_graph(4)
    rho, cycles = _rho_and_cycles(g)
    assert cycle_matching(g, rho, cycles[0]) == ((0, 1), (3, 2))

    c5 = cycle_graph(5)
    rho5, cycles5 = _rho_and_cycles(c5)
    assert cycle_matching(c5, rho5, cycles5[0]) == ((1, 2), (4, 3))


def test_cycle_matching_properties():
    for n in (4, 5, 8, 9):
        for g in sc_classes(n):
            rho, cycles = _rho_and_cycles(g)
            for cyc in cycles:
                matching = cycle_matching(g, rho, cyc)
                assert len(matching) == len(cyc) // 2
                covered = [v for pair in matching for v in pair]
                assert sorted(covered) == sorted(cyc)
                for u, v in matching:
                    assert g.has_edge(u, v)


def test_cycle_matching_edges_cross_the_degree_split():
    for n in (4, 8):
        for g in sc_classes(n):
            rho, cycles = _rho_and_cycles(g)
            part = side_partition(g, rho)
            for cyc in cycles:
                for u, v in cycle_matching(g, rho, cyc):
                    assert (u in part.high) != (v in part.high)


def test_cycle_matching_detects_broken_antimorphism():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    fake = Permutation([1, 2, 3, 0])
    with pytest.raises(ConsistencyError):
        cycle_matching(star, fake, (0, 1, 2, 3))


_CYCLE_FUNCTIONS = (choose_generator, cycle_matching, cycle_side_counts)
# (0 1) is a closed cycle of rho = (0 1)(2 3), but no antimorphism has it;
# vertex 9 would index P4's least antimorphism, (0 1 3 2), past its end
_BAD_CYCLES = (
    ("", Permutation([1, 0, 3, 2]), (0, 1), "^cycle length 2 is not divisible by 4$"),
    ("-vertex-9", Permutation([1, 3, 0, 2]), (9, 1, 2, 3), "^vertex 9 out of range for n=4$"),
    ("-empty", Permutation([1, 0, 3, 2]), (), "^empty cycle$"),
)


@pytest.mark.parametrize(
    ("cycle_function", "rho", "cycle", "message"),
    [pytest.param(f, *case, id=f.__name__ + suffix) for suffix, *case in _BAD_CYCLES for f in _CYCLE_FUNCTIONS],
)
def test_every_cycle_function_rejects_a_cycle_of_length_2(cycle_function, rho, cycle, message):
    with pytest.raises(ValueError, match=message):
        cycle_function(path_graph(4), rho, cycle)


def test_build_plan_fixed_cases():
    g = path_graph(4)
    plan = build_plan(g, find_antimorphism(g))
    assert plan.fixed_vertex is None
    assert len(plan.per_cycle) == 1
    assert plan.per_cycle[0].matching == ((0, 1), (3, 2))

    c5 = cycle_graph(5)
    plan5 = build_plan(c5, find_antimorphism(c5))
    assert plan5.fixed_vertex == 0
    assert plan5.per_cycle[0].matching == ((1, 2), (4, 3))

    k1 = Graph(1)
    plan1 = build_plan(k1, find_antimorphism(k1))
    assert plan1.per_cycle == () and plan1.fixed_vertex == 0


def test_build_plan_covers_non_fixed_vertices():
    for n in (4, 5, 8, 9):
        for g in sc_classes(n):
            rho = find_antimorphism(g)
            plan = build_plan(g, rho)
            covered = [v for e in plan.matching_edges() for v in e]
            expected = set(range(n))
            if plan.fixed_vertex is not None:
                expected.discard(plan.fixed_vertex)
            assert sorted(covered) == sorted(expected)
            assert len(covered) == len(set(covered))


def test_build_plan_rejects_non_antimorphism():
    with pytest.raises(ValueError):
        build_plan(path_graph(4), Permutation([0, 1, 2, 3]))


def test_realize_minor_fixed_cases():
    g = path_graph(4)
    model = realize_minor(g, build_plan(g, find_antimorphism(g)))
    assert model.masks == (0b11, 0b1100)

    c5 = cycle_graph(5)
    model5 = realize_minor(c5, build_plan(c5, find_antimorphism(c5)))
    assert model5.masks == (0b110, 0b11000, 0b1)


def test_realize_minor_agrees_with_oracle_on_sharp_family():
    g = sharp_4n(2)
    model = realize_minor(g, build_plan(g, find_antimorphism(g)))
    assert model.k == 4
    assert verify_minor_model(g, model, complete_graph(4)) is None
    assert has_minor(g, complete_graph(4)).answer == "yes"


def test_verify_minor_model_negative_cases():
    g = path_graph(4)
    k2 = complete_graph(2)
    cases = [
        ((0b1, 0b100), "no host edge between branch sets at target edge (0, 1)"),
        ((0b11, 0b110), "branch set 1 overlaps an earlier one"),
        ((0b1001, 0b10), "branch set 0 is not connected"),
        ((0b1,), "1 branch sets for a 2-vertex target"),
        ((0, 0b10), "branch set 0 is empty"),
        ((0b1, 1 << 9), "branch set 1 leaves the host range"),
        # a bit at g.n, and a negative mask, on which iter_bits raises
        ((0b1, 1 << 4), "branch set 1 leaves the host range"),
        ((-1, 0b10), "branch set 0 leaves the host range"),
    ]
    for masks, fault in cases:
        assert verify_minor_model(g, MinorModel(masks), k2) == fault


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(0, 5), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
def test_verify_minor_model_equals_the_vertex_by_vertex_check(n, k, p, rng):
    """Same fault, or None, as the reference, on random sets: mostly a random
    partition of the vertices into connected or disconnected pieces,
    sometimes overlapping, empty or out of range (a mask holds no vertex
    below 0, so out of range means n or n + 1)."""
    g = random_graph(rng, n, p)
    target = random_graph(rng, k, rng.random())
    owner = [rng.randrange(k + 1) for _ in range(n)]
    sets = [{v for v in range(n) if owner[v] == i} for i in range(k)]
    for s in sets:
        if rng.random() < 0.1:
            s.add(rng.randrange(0, n + 2))
    if rng.random() < 0.1:
        sets.append({rng.randrange(n)})
    model = MinorModel(tuple(sum(1 << v for v in s) for s in sets))
    assert verify_minor_model(g, model, target) == reference_verify_minor_model(g, model, target)
    # singletons pass every set test, so only a target edge can fail
    model = MinorModel(tuple(1 << v for v in range(n)))
    other = random_graph(rng, n, rng.random())
    assert verify_minor_model(g, model, other) == reference_verify_minor_model(g, model, other)


def test_verify_minor_model_positive_cases():
    g = path_graph(4)
    assert verify_minor_model(g, MinorModel((0b11, 0b1100)), complete_graph(2)) is None
    c5 = cycle_graph(5)
    assert verify_minor_model(c5, MinorModel((0b110, 0b11000, 0b1)), complete_graph(3)) is None


def test_guaranteed_minor_small_and_absent():
    assert guaranteed_minor(path_graph(4)).k == 2
    assert guaranteed_minor(cycle_graph(5)).k == 3
    assert guaranteed_minor(complete_graph(4)) is None
    assert guaranteed_minor(Graph(1)).k == 1


def test_guaranteed_minor_branch_set_shape():
    for n in (4, 5, 8, 9):
        for g in sc_classes(n):
            model = guaranteed_minor(g)
            assert model is not None and model.k == (n + 1) // 2
            sizes = sorted(m.bit_count() for m in model.masks)
            if n % 4 == 1:
                assert sizes == [1] + [2] * (model.k - 1)
            else:
                assert sizes == [2] * model.k
            assert verify_minor_model(g, model, complete_graph(model.k)) is None


def test_fixed_vertex_adjacent_to_exactly_one_endpoint():
    for n, count in ((5, 0), (9, 0), (13, 20)):
        graphs = sc_classes(n) if count == 0 else random_sc_batch(n, count)
        for g in graphs:
            rho = find_antimorphism(g)
            plan = build_plan(g, rho)
            fixed = plan.fixed_vertex
            assert fixed is not None
            for u, v in plan.matching_edges():
                assert int(g.has_edge(fixed, u)) + int(g.has_edge(fixed, v)) == 1


def test_model_json_shape():
    model = guaranteed_minor(cycle_graph(5))
    import json

    data = json.loads(model.to_json())
    assert data == {"k": 3, "branch_sets": [[1, 2], [3, 4], [0]]}


def test_minor_model_holds_its_masks_as_a_tuple_of_ints():
    with pytest.raises(TypeError):
        MinorModel((1.0, 2, 4))
    model = MinorModel([True, 2])
    assert model.masks == (1, 2) and [type(m) for m in model.masks] == [int, int]
    assert hash(model) == hash(MinorModel((1, 2)))
    assert model.to_json_dict() == {"k": 2, "branch_sets": [[0], [1]]}
