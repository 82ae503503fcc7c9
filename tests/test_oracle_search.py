"""The anchored oracle search against its unpruned forms.

``_minor_sets`` drops a node once some placed branch set has fewer
neighbours left in ``avail`` than its target vertex has unplaced target
neighbours. That removes only subtrees without a completion. On K_k every
vertex is a twin of every other, so ``_clique_minor_sets`` visits the
surviving nodes in the same depth-first order as before the rule: the
reference in conftest must return the same branch sets, and spend at least
as many expansions. On other targets the search also tries one unplaced
vertex per twin class, so its branch sets may differ from those of the
general search it replaced (kept in conftest, every start vertex for
every target vertex, no pruning); its answers must not, and every yes
must pass ``verify_minor_model``. The counts of both are pinned.
"""

import random

from hypothesis import given, settings, strategies as st

from scminor import (
    Graph,
    MinorModel,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    has_minor,
    path_graph,
    random_sc,
    sharp_4n,
    sharp_4n_plus_1,
    verify_minor_model,
)
from scminor.graphs import iter_bits
from scminor.oracle import _Budget, _clique_minor_sets, _minor_sets

from conftest import (
    iso_classes_up_to,
    random_graph,
    reference_clique_minor_sets,
    reference_general_minor_sets,
)

UNLIMITED = 10**9


def shuffled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def metered(search, *args):
    budget = _Budget(UNLIMITED)
    return search(*args, budget), budget.spent


def assert_same_search(g: Graph) -> None:
    for k in range(g.n + 2):
        sets, spent = metered(_clique_minor_sets, g, k)
        ref_sets, ref_spent = metered(reference_clique_minor_sets, g, k)
        assert sets == ref_sets, (g.edges(), k)
        assert spent <= ref_spent, (g.edges(), k)


def test_same_sets_on_every_class_up_to_6():
    classes = iso_classes_up_to(6)
    assert sum(len(v) for v in classes.values()) == 208
    for graphs in classes.values():
        for g in graphs:
            assert_same_search(g)


def test_same_sets_on_relabelled_sharp_families():
    for family in (sharp_4n, sharp_4n_plus_1):
        for seed in range(4):
            assert_same_search(shuffled(family(2), seed))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, kept in zip(pairs, keep) if kept])


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_same_sets_on_random_graphs(g):
    assert_same_search(g)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


HOSTS = {
    "C5": cycle_graph(5),
    "Petersen": petersen(),
    "sharp_4n(2)": sharp_4n(2),
    "random_sc(9, 0)": random_sc(9, 0),
}
TARGETS = {
    "K5": complete_graph(5),
    "K3,3": complete_bipartite(3, 3),
    "K4": complete_graph(4),
    "K2,3": complete_bipartite(2, 3),
}

# has_minor's answer, expansions and branch sets (in target-vertex order),
# then the masks and expansions of conftest's reference_general_minor_sets,
# measured when it was the oracle's search for targets that are not complete.
# has_minor sends K5 and K4 to the clique search, whose counts were measured
# before the reach rule and may only fall.
PINNED = {
    ("C5", "K5"): ("no", 0, None, None),
    ("C5", "K3,3"): ("no", 0, None, None),
    ("C5", "K4"): ("no", 0, None, None),
    ("C5", "K2,3"): ("no", 0, None, None),
    ("Petersen", "K5"): (
        "yes", 3335, ((0, 1), (2, 3), (4, 9), (5, 7), (6, 8)),
        ((3, 12, 528, 160, 320), 11302),
    ),
    ("Petersen", "K3,3"): (
        "yes", 17, ((0,), (2,), (6, 8), (1,), (3, 4), (5, 7)),
        ((1, 4, 64, 2, 280, 672), 9915),
    ),
    ("Petersen", "K4"): (
        "yes", 28, ((0,), (1,), (2, 3, 4), (5, 6, 7, 8)),
        ((1, 2, 28, 480), 14),
    ),
    ("Petersen", "K2,3"): (
        "yes", 14, ((0,), (2,), (1,), (3, 4), (5, 7)),
        ((1, 4, 2, 24, 160), 4665),
    ),
    ("sharp_4n(2)", "K5"): ("no", 3093, None, (None, 27403)),
    ("sharp_4n(2)", "K3,3"): ("no", 3308, None, (None, 60253)),
    ("sharp_4n(2)", "K4"): (
        "yes", 5, ((0,), (1,), (2,), (3,)), ((1, 2, 4, 8), 9),
    ),
    ("sharp_4n(2)", "K2,3"): (
        "yes", 11, ((0,), (1,), (2,), (3,), (4,)), ((1, 2, 4, 8, 16), 11),
    ),
    ("random_sc(9, 0)", "K5"): (
        "yes", 74, ((0,), (1,), (2, 3, 5), (4, 7), (6, 8)),
        ((1, 2, 44, 144, 320), 64),
    ),
    ("random_sc(9, 0)", "K3,3"): (
        "yes", 32, ((0,), (1,), (4,), (2, 3, 5), (6, 8), (7,)),
        ((1, 2, 8, 36, 336, 128), 689),
    ),
    ("random_sc(9, 0)", "K4"): (
        "yes", 38, ((0,), (1,), (2, 3, 4, 5), (6, 8)),
        ((1, 2, 60, 320), 13),
    ),
    ("random_sc(9, 0)", "K2,3"): (
        "yes", 15, ((0,), (1,), (2, 3, 4, 5), (6, 8), (7,)),
        ((1, 2, 60, 320, 128), 15),
    ),
}


def test_pinned_planarity_target_searches():
    for (host_name, target_name), pin in PINNED.items():
        answer, expansions, sets, general = pin
        host, target = HOSTS[host_name], TARGETS[target_name]
        outcome = has_minor(host, target)
        assert outcome.answer == answer
        if outcome.model is None:
            assert sets is None
        else:
            assert tuple(tuple(iter_bits(m)) for m in outcome.model.masks) == sets
        if target.num_edges == target.n * (target.n - 1) // 2:
            assert outcome.expansions <= expansions
        else:
            assert outcome.expansions == expansions
        if general is not None:
            assert metered(reference_general_minor_sets, host, target) == general


def k3311() -> Graph:
    parts = ((0, 1, 2), (3, 4, 5), (6,), (7,))
    return Graph(8, [
        (u, v) for a in range(4) for b in range(a + 1, 4) for u in parts[a] for v in parts[b]
    ])


# True twins (diamond, K_k), false twins (K2,3, K3,3, K1,3, 3K1), both
# (K3,3,1,1), and none (P4, paw, C5, Petersen).
TWIN_TARGETS = {
    "diamond": Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "K2,3": complete_bipartite(2, 3),
    "K3,3": complete_bipartite(3, 3),
    "K1,3": complete_bipartite(1, 3),
    "3K1": Graph(3),
    "K3,3,1,1": k3311(),
    "P4": path_graph(4),
    "paw": Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "C5": cycle_graph(5),
    "Petersen": petersen(),
}


def assert_same_answers(host: Graph, names=tuple(TWIN_TARGETS)) -> None:
    for name in names:
        target = TWIN_TARGETS[name]
        if target.n > host.n:
            continue
        sets = _minor_sets(host, target, _Budget(UNLIMITED))
        ref = reference_general_minor_sets(host, target, _Budget(UNLIMITED))
        assert (sets is None) == (ref is None), (host.edges(), name)
        if sets is not None:
            assert verify_minor_model(host, MinorModel(sets), target) is None, (host.edges(), name)


def test_same_answers_as_the_general_reference_on_every_class_up_to_6():
    classes = iso_classes_up_to(6)
    assert sum(len(v) for v in classes.values()) == 208
    for graphs in classes.values():
        for g in graphs:
            assert_same_answers(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_same_answers_as_the_general_reference_on_random_graphs(g):
    assert_same_answers(g)


def test_same_answers_for_petersen_on_ten_vertices():
    rng = random.Random(10)
    hosts = [petersen(), complement(petersen())]
    hosts.append(Graph(10, [e for e in petersen().edges() if e != (0, 1)]))
    hosts += [random_graph(rng, 10, p) for p in (0.4, 0.5, 0.6, 0.7) for _ in range(3)]
    for host in hosts:
        assert_same_answers(host, ("Petersen",))


def test_k3311_on_random_sc_12_2_within_a_small_budget():
    # the general search without twin or reach rule spent more than 3x10^6
    # has_minor re-verifies its witness before it answers yes
    assert has_minor(random_sc(12, 2), k3311(), budget=10**4).answer == "yes"
