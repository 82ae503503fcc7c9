"""The pruned oracle searches against their unpruned forms.

``_clique_minor_sets`` drops a node once some placed branch set has fewer
neighbours left in ``avail`` than branch sets still to come. That removes
only subtrees without a completion, so the depth-first order of what is
left is unchanged: the reference in conftest must return the same branch
sets, and spend at least as many expansions. ``_general_minor_sets`` has no
such rule, and its counts are pinned.
"""

import random

from hypothesis import given, settings, strategies as st

from scminor import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    has_minor,
    random_sc,
    sharp_4n,
    sharp_4n_plus_1,
)
from scminor.graphs import iter_bits
from scminor.oracle import _Budget, _clique_minor_sets, _general_minor_sets

from conftest import iso_classes_up_to, reference_clique_minor_sets

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

# Measured before the oracle kept neighbourhood masks: has_minor's answer,
# expansions and branch sets (in target-vertex order), then the masks and
# expansions of _general_minor_sets itself. has_minor sends K5 and K4 to the
# clique search, whose count may only fall.
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
        "yes", 9915, ((0,), (2,), (6,), (1,), (3, 4, 8), (5, 7, 9)),
        ((1, 4, 64, 2, 280, 672), 9915),
    ),
    ("Petersen", "K4"): (
        "yes", 28, ((0,), (1,), (2, 3, 4), (5, 6, 7, 8)),
        ((1, 2, 28, 480), 14),
    ),
    ("Petersen", "K2,3"): (
        "yes", 4665, ((0,), (2,), (1,), (3, 4), (5, 7)),
        ((1, 4, 2, 24, 160), 4665),
    ),
    ("sharp_4n(2)", "K5"): ("no", 3093, None, (None, 27403)),
    ("sharp_4n(2)", "K3,3"): ("no", 60253, None, (None, 60253)),
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
        "yes", 689, ((0,), (1,), (3,), (2, 5), (4, 6, 8), (7,)),
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
            assert metered(_general_minor_sets, host, target) == general
