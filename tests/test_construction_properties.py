"""Property-based checks of the guaranteed-minor construction."""

from hypothesis import given, settings, strategies as st

from scminor import (
    Graph,
    build_plan,
    choose_generator,
    complete_graph,
    find_antimorphism,
    guaranteed_minor,
    random_sc,
    verify_minor_model,
)

SC_SIZES = (4, 5, 8, 9, 12, 13)
FEW = settings(max_examples=30, deadline=None)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def relabelled_sc(draw):
    n = draw(st.sampled_from(SC_SIZES))
    seed = draw(st.integers(0, 10**6))
    perm = draw(st.permutations(range(n)))
    return relabel(random_sc(n, seed), perm)


@FEW
@given(relabelled_sc())
def test_guaranteed_minor_has_the_promised_order(g):
    model = guaranteed_minor(g)
    k = (g.n + 1) // 2
    assert model is not None and model.k == k
    assert verify_minor_model(g, model, complete_graph(k)) is None


@FEW
@given(relabelled_sc())
def test_plan_generator_is_the_chosen_generator(g):
    rho = find_antimorphism(g)
    for part in build_plan(g, rho).per_cycle:
        assert part.generator == choose_generator(g, rho, part.cycle)
