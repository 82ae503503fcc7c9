"""Acceptance suite: every criterion runs at its stated tolerance (zero
failures) and prints one pass line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from itertools import combinations

from scminor import (
    Graph,
    canonical_form,
    check_sachs,
    complete_bipartite,
    complete_graph,
    cycle_decomposition,
    cycle_graph,
    find_antimorphism,
    guaranteed_minor,
    hadwiger,
    has_minor,
    ik_certificate,
    il_certificate,
    is_outerplanar,
    is_planar,
    path_graph,
    sharp_4n,
    sharp_4n_plus_1,
    side_partition,
    verify_minor_model,
)
from conftest import (
    iso_classes_up_to,
    random_graph,
    reference_hadwiger,
    sc_classes,
)
import random


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


def test_criterion_1_enumeration_counts():
    expected = {1: 1, 4: 1, 5: 2, 8: 10, 9: 36}
    for n, count in expected.items():
        assert len(sc_classes(n)) == count, f"n={n}"
    # independent confirmation by brute force over all labeled graphs
    for n in (4, 5):
        classes = set()
        for bits in range(1 << (n * (n - 1) // 2)):
            pairs = list(combinations(range(n), 2))
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])
            if 4 * g.num_edges != n * (n - 1):
                continue
            if find_antimorphism(g) is not None:
                classes.add(canonical_form(g))
        assert len(classes) == expected[n]
        assert classes == {canonical_form(g) for g in sc_classes(n)}
    assert len(sc_classes(12)) == 720
    _report(1, "class counts 1/1/2/10/36/720 at n=1/4/5/8/9/12; n=4,5 brute-forced")


def test_criterion_1_enumeration_count_at_13():
    # OEIS A000171: 5,600 self-complementary graphs on 13 vertices
    assert len(sc_classes(13)) == 5600
    _report(1, "class count 5600 at n=13")


def _criterion_2_graphs():
    for n in (4, 5, 8, 9, 12, 13):
        for g in sc_classes(n):
            yield n, g


def test_criterion_2_guaranteed_minor_orders():
    checked = 0
    for n, g in _criterion_2_graphs():
        model = guaranteed_minor(g)
        assert model is not None, f"n={n}: no antimorphism found"
        assert model.k == (n + 1) // 2, f"n={n}: got k={model.k}"
        assert verify_minor_model(g, model, complete_graph(model.k)) is None
        checked += 1
    assert checked == 49 + 720 + 5600
    _report(2, f"{checked} graphs produced verified complete minors of order (n+1)//2")


def test_criterion_3_sachs_structure():
    checked = 0
    for n, g in _criterion_2_graphs():
        rho = find_antimorphism(g)
        fault = check_sachs(cycle_decomposition(rho))
        assert fault is None, f"n={n}: {fault}"
        checked += 1
    _report(3, f"all {checked} antimorphisms have the forced cycle structure")


def test_criterion_4_cross_subgraph_size():
    checked = 0
    for n in (4, 8):
        for g in sc_classes(n):
            part = side_partition(g, find_antimorphism(g))
            assert len(part.high) == len(part.low) == n // 2
            assert part.cross.num_edges == n * n // 8
            checked += 1
    _report(4, f"{checked} degree splits have n/2 + n/2 vertices and n^2/8 cross edges")


def test_criterion_5_sharpness():
    h1 = hadwiger(sharp_4n(1))
    assert h1.value == 2 and h1.exact
    h2 = hadwiger(sharp_4n(2))
    assert h2.value == 4 and h2.exact
    assert has_minor(sharp_4n(2), complete_graph(5)).answer == "no"
    h3 = hadwiger(sharp_4n_plus_1(1))
    assert h3.value == 3 and h3.exact
    _report(5, "hadwiger(sharp_4n(1))=2, hadwiger(sharp_4n(2))=4, "
               "hadwiger(sharp_4n_plus_1(1))=3, all oracle-exact")


def test_criterion_6_outerplanarity_and_planarity():
    eight = sc_classes(8)
    assert all(not is_outerplanar(g) for g in eight)
    nine = sc_classes(9)
    assert len(nine) == 36
    assert all(not is_planar(g) for g in nine)
    planar_eight = sum(1 for g in eight if is_planar(g))
    assert planar_eight >= 1
    _report(6, f"10/10 at n=8 non-outerplanar, 36/36 at n=9 non-planar, "
               f"{planar_eight}/10 at n=8 planar")


def test_criterion_7_linking_and_knotting_certificates():
    for g in sc_classes(12):
        cert = il_certificate(g)
        assert cert.status == "certificate"
        assert verify_minor_model(g, cert.model, complete_graph(6)) is None
    for g in sc_classes(13):
        cert = ik_certificate(g)
        assert cert.status == "certificate"
        assert verify_minor_model(g, cert.model, complete_graph(7)) is None
    _report(7, "verified K6 models for all 720 SC classes at n=12 and "
               "K7 models for all 5600 at n=13")


def test_criterion_8_oracle_soundness():
    # every yes witness re-verifies against the minor definition
    rng = random.Random(2024)
    targets = [
        complete_graph(3),
        complete_graph(4),
        complete_graph(5),
        complete_bipartite(2, 3),
        complete_bipartite(3, 3),
        cycle_graph(4),
        path_graph(3),
    ]
    yes_count = 0
    for _ in range(80):
        host = random_graph(rng, rng.randrange(3, 10), 0.5)
        target = targets[rng.randrange(len(targets))]
        outcome = has_minor(host, target)
        assert outcome.answer in ("yes", "no")
        if outcome.answer == "yes":
            yes_count += 1
            assert verify_minor_model(host, outcome.model, target) is None
    assert yes_count > 10
    # exhaustive agreement with the unpruned reference search at n <= 6,
    # one representative per isomorphism class
    compared = 0
    for n in range(1, 7):
        for g in iso_classes_up_to(6)[n]:
            assert hadwiger(g).value == reference_hadwiger(g)
            compared += 1
    assert compared == 1 + 2 + 4 + 11 + 34 + 156
    _report(8, f"{yes_count} witnesses re-verified; hadwiger matches the "
               f"unpruned reference on all {compared} classes with n <= 6")


def test_criterion_9_incidence_reversal_property():
    checked = 0
    for n in (4, 5, 8, 9):
        for g in sc_classes(n):
            rho = find_antimorphism(g)
            inv = rho.inverse()
            dec = cycle_decomposition(rho)
            for a in range(n):
                if rho(a) == a:
                    continue
                assert int(g.has_edge(a, rho(a))) + int(g.has_edge(a, inv(a))) == 1
            if dec.fixed_points:
                (fixed,) = dec.fixed_points
                for a in range(n):
                    if a == fixed:
                        continue
                    assert (
                        int(g.has_edge(fixed, a)) + int(g.has_edge(fixed, rho(a)))
                        == 1
                    )
                for cyc in dec.cycles:
                    neighbor_count = sum(1 for v in cyc if g.has_edge(fixed, v))
                    assert neighbor_count == len(cyc) // 2
            checked += 1
    _report(9, f"incidence-reversal neighbour counts hold on all {checked} graphs")
