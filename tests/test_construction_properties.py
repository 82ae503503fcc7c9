"""Property-based checks of the guaranteed-minor construction."""

from hypothesis import given, settings, strategies as st

from scminor import (
    Graph,
    Permutation,
    build_plan,
    choose_generator,
    complete_graph,
    cycle_matching,
    find_antimorphism,
    guaranteed_minor,
    odd_shift_matching,
    pair_orbits,
    permutation_with_cycle_type,
    random_sc,
    sc_from_assignment,
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


@st.composite
def single_cycle_sc(draw):
    """An SC graph on 4, 8 or 12 vertices with a one-cycle antimorphism, relabelled."""
    n = draw(st.sampled_from((4, 8, 12)))
    sigma = permutation_with_cycle_type(n, (n,))
    orbits = pair_orbits(sigma)
    bits = draw(st.integers(0, (1 << len(orbits)) - 1))
    g = sc_from_assignment(sigma, orbits, bits)
    perm = draw(st.permutations(range(n)))
    rho = [0] * n
    for v in range(n):
        rho[perm[v]] = perm[sigma(v)]
    return relabel(g, perm), Permutation(rho)


@FEW
@given(single_cycle_sc())
def test_odd_shift_one_is_the_cycle_matching(case):
    g, rho = case
    assert odd_shift_matching(g, rho, 1) == cycle_matching(g, rho, rho.orbit(0))
