import random

import pytest

from scminor import (
    Graph,
    MinorModel,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    hadwiger,
    has_minor,
    induced_subgraph,
    path_graph,
    sharp_4n,
    sharp_4n_plus_1,
    verify_minor_model,
)
from conftest import iso_classes_up_to, milp_clique_minor, random_graph, reference_hadwiger, sc_classes


def test_has_minor_fixed_answers():
    assert has_minor(path_graph(4), complete_graph(3)).answer == "no"
    assert has_minor(cycle_graph(5), complete_graph(3)).answer == "yes"
    assert has_minor(sharp_4n(2), complete_graph(5)).answer == "no"
    assert has_minor(path_graph(4), complete_graph(1)).answer == "yes"
    assert has_minor(Graph(3), complete_graph(0)).answer == "yes"
    assert has_minor(complete_graph(3), complete_graph(4)).answer == "no"


def test_has_minor_general_targets():
    assert has_minor(cycle_graph(5), complete_bipartite(2, 3)).answer == "no"
    assert has_minor(complete_graph(5), complete_bipartite(2, 3)).answer == "yes"
    assert (
        has_minor(complete_bipartite(2, 3), complete_bipartite(2, 3)).answer
        == "yes"
    )
    assert has_minor(complete_bipartite(2, 3), complete_graph(4)).answer == "no"
    assert (
        has_minor(complete_bipartite(3, 3), complete_bipartite(3, 3)).answer
        == "yes"
    )


def test_every_yes_witness_verifies():
    rng = random.Random(42)
    targets = [
        complete_graph(3),
        complete_graph(4),
        complete_bipartite(2, 3),
        path_graph(4),
        cycle_graph(4),
    ]
    yes_seen = 0
    for _ in range(60):
        host = random_graph(rng, rng.randrange(4, 10), 0.55)
        target = targets[rng.randrange(len(targets))]
        outcome = has_minor(host, target)
        if outcome.answer == "yes":
            yes_seen += 1
            assert verify_minor_model(host, outcome.model, target) is None
            assert outcome.model.k == target.n
    assert yes_seen > 10


def test_budget_exhaustion_is_explicit():
    outcome = has_minor(sharp_4n(2), complete_graph(5), budget=5)
    assert outcome.answer == "budget_exceeded"
    assert outcome.model is None
    assert outcome.expansions >= 5
    with pytest.raises(ValueError):
        has_minor(path_graph(4), complete_graph(2), budget=0)
    # a target larger than the host is a "no" without search, but not before
    # the budget is checked
    with pytest.raises(ValueError, match="^budget must be positive, got 0$"):
        has_minor(path_graph(4), complete_graph(5), budget=0)


def test_hadwiger_rejects_a_non_positive_budget():
    with pytest.raises(ValueError, match="budget must be positive"):
        hadwiger(path_graph(4), 0)


def test_hadwiger_fixed_values():
    assert hadwiger(path_graph(4)).value == 2
    assert hadwiger(cycle_graph(5)).value == 3
    assert hadwiger(complete_graph(6)).value == 6
    assert hadwiger(Graph(0)).value == 0
    assert hadwiger(Graph(3)).value == 1
    assert hadwiger(sharp_4n(1)).value == 2
    assert hadwiger(sharp_4n(2)).value == 4
    assert hadwiger(sharp_4n_plus_1(1)).value == 3


def test_hadwiger_outcome_shape():
    out = hadwiger(cycle_graph(5))
    assert out.exact and out.upper_bound == 3
    assert verify_minor_model(cycle_graph(5), out.witness, complete_graph(3)) is None

    partial = hadwiger(sharp_4n(2), budget=10)
    assert not partial.exact
    assert partial.upper_bound == 8
    assert partial.value <= 4


def test_hadwiger_monotone_under_induced_subgraphs():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, 8, 0.5)
        h = hadwiger(g).value
        keep = rng.sample(range(8), rng.randrange(1, 8))
        sub, _ = induced_subgraph(g, keep)
        assert hadwiger(sub).value <= h


def test_hadwiger_agrees_with_unpruned_reference_random():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, 7, rng.choice((0.3, 0.5, 0.7)))
        assert hadwiger(g).value == reference_hadwiger(g)


def test_hadwiger_agrees_with_unpruned_reference_exhaustive_n6():
    for n in range(1, 7):
        for g in iso_classes_up_to(6)[n]:
            assert hadwiger(g).value == reference_hadwiger(g)


def test_a_milp_oracle_agrees_on_every_small_sc_class_and_the_sharp_families():
    """The 0/1 program of ``milp_clique_minor`` against ``hadwiger``.

    A feasible program's model is checked by ``verify_minor_model``.  An
    infeasible one comes from a floating-point solver, so it counts as
    agreement with the branch-set refutation, not as a certificate.
    """
    for n in (1, 4, 5, 8):
        for g in sc_classes(n):
            outcome = hadwiger(g)
            h = outcome.value
            assert outcome.exact
            masks = milp_clique_minor(g, h)
            assert masks is not None
            assert verify_minor_model(g, MinorModel(masks), complete_graph(h)) is None
            assert milp_clique_minor(g, h + 1) is None
    for m in range(1, 4):
        assert milp_clique_minor(sharp_4n(m), 2 * m + 1) is None
    for m in range(3):
        assert milp_clique_minor(sharp_4n_plus_1(m), 2 * m + 2) is None


def test_sharp_families_at_m3_are_exact_within_a_small_budget():
    six = hadwiger(sharp_4n(3), 200_000)
    assert six.exact and six.value == 6 and six.upper_bound == 6
    seven = hadwiger(sharp_4n_plus_1(3), 250_000)
    assert seven.exact and seven.value == 7 and seven.upper_bound == 7


def test_witnesses_are_deterministic():
    g = sharp_4n(2)
    a = has_minor(g, complete_graph(4))
    b = has_minor(g, complete_graph(4))
    assert a.model.masks == b.model.masks
    ha = hadwiger(g)
    hb = hadwiger(g)
    assert ha.witness.masks == hb.witness.masks
