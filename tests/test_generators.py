from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import scminor.generators
from scminor import (
    CapacityError,
    ConsistencyError,
    Graph,
    Permutation,
    canonical_form,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_sc,
    find_antimorphism,
    is_antimorphism,
    pair_orbits,
    parse_graph6,
    path_graph,
    permutation_with_cycle_type,
    random_sc,
    sachs_cycle_types,
    sc_from_assignment,
    sharp_4n,
    sharp_4n_plus_1,
    write_graph6,
)
from scminor.generators import ENUMERATION_SIZES, _bit_action, _normaliser_generators
from conftest import reference_enumerate_sc, sc_classes


def test_mask_builders_equal_the_edge_list_builds():
    for k in range(65):
        assert complete_graph(k) == Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
        for p in range(k + 1):
            q = k - p
            assert complete_bipartite(p, q) == Graph(k, [(i, p + j) for i in range(p) for j in range(q)])
    with pytest.raises(CapacityError):
        complete_graph(65)
    with pytest.raises(CapacityError):
        complete_bipartite(40, 25)
    with pytest.raises(ValueError):
        complete_graph(-1)
    with pytest.raises(ValueError):
        complete_bipartite(-1, 3)


def test_standard_graphs():
    assert complete_graph(4).num_edges == 6
    assert complete_bipartite(2, 3).num_edges == 6
    assert complete_bipartite(3, 3) == Graph(
        6, [(i, 3 + j) for i in range(3) for j in range(3)]
    )
    assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert cycle_graph(4).num_edges == 4
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_sharp_4n_structure():
    assert canonical_form(sharp_4n(1)) == canonical_form(path_graph(4))
    g = sharp_4n(2)
    assert g.n == 8 and g.num_edges == 14
    # clique side, independent side, two complete bipartite blocks
    for i in range(4):
        for j in range(i + 1, 4):
            assert g.has_edge(i, j)
    for i in range(4, 8):
        for j in range(i + 1, 8):
            assert not g.has_edge(i, j)
    assert g.has_edge(0, 4) and g.has_edge(1, 5) and not g.has_edge(0, 6)
    assert g.has_edge(2, 6) and g.has_edge(3, 7) and not g.has_edge(2, 4)
    for n in (1, 2, 3):
        assert find_antimorphism(sharp_4n(n)) is not None


def test_sharp_4n_plus_1_structure():
    assert sharp_4n_plus_1(0) == Graph(1)
    with pytest.raises(ValueError, match="must be >= 0, got -1"):
        sharp_4n_plus_1(-1)
    g = sharp_4n_plus_1(1)
    assert g.n == 5 and g.num_edges == 5
    assert find_antimorphism(g) is not None
    apex = 4
    assert sorted(v for v in range(4) if g.has_edge(apex, v)) == [0, 1]
    assert find_antimorphism(sharp_4n_plus_1(2)) is not None


def test_sachs_cycle_types():
    assert sachs_cycle_types(1) == ((),)
    assert sachs_cycle_types(4) == ((4,),)
    assert sachs_cycle_types(8) == ((8,), (4, 4))
    assert sachs_cycle_types(9) == ((8,), (4, 4))
    assert sachs_cycle_types(12) == ((12,), (8, 4), (4, 4, 4))
    assert sachs_cycle_types(13) == ((12,), (8, 4), (4, 4, 4))
    with pytest.raises(ValueError):
        sachs_cycle_types(6)


def test_permutation_with_cycle_type():
    sigma = permutation_with_cycle_type(9, (8,))
    assert sigma.orbit(0) == (0, 1, 2, 3, 4, 5, 6, 7)
    assert sigma(8) == 8
    sigma = permutation_with_cycle_type(8, (4, 4))
    assert sigma.orbit(0) == (0, 1, 2, 3)
    assert sigma.orbit(4) == (4, 5, 6, 7)
    with pytest.raises(ValueError):
        permutation_with_cycle_type(8, (4,))
    # each length must be a positive multiple of 4, checked before building
    for n, cycle_type in ((4, (6, -2)), (4, (4, 0)), (4, (2, 2)), (8, (5, 3))):
        with pytest.raises(ValueError, match="positive lengths divisible by 4"):
            permutation_with_cycle_type(n, cycle_type)


def test_pair_orbits_small():
    sigma = Permutation([1, 2, 3, 0])
    orbits = pair_orbits(sigma)
    assert len(orbits) == 2
    assert orbits[0] == ((0, 1), (1, 2), (2, 3), (0, 3))
    assert orbits[1] == ((0, 2), (1, 3))


def test_pair_orbits_always_even_for_valid_types():
    for n in (8, 9, 12, 13):
        for cycle_type in sachs_cycle_types(n):
            sigma = permutation_with_cycle_type(n, cycle_type)
            for orbit in pair_orbits(sigma):
                assert len(orbit) % 2 == 0


def test_pair_orbits_rejects_invalid_permutation():
    with pytest.raises(ValueError):
        pair_orbits(Permutation([1, 0, 2]))  # 2-cycle gives an odd pair orbit


def test_sc_from_assignment_p4_example():
    sigma = Permutation([1, 2, 3, 0])
    orbits = pair_orbits(sigma)
    g = sc_from_assignment(sigma, orbits, 0b01)
    assert sorted(g.edges()) == [(0, 1), (1, 3), (2, 3)]
    assert canonical_form(g) == canonical_form(path_graph(4))


def test_sc_from_assignment_all_choices_one_class():
    sigma = Permutation([1, 2, 3, 0])
    orbits = pair_orbits(sigma)
    forms = set()
    for bits in range(4):
        g = sc_from_assignment(sigma, orbits, bits)
        assert is_antimorphism(g, sigma)
        forms.add(canonical_form(g))
    assert len(forms) == 1


def test_flipping_all_choices_gives_the_complement():
    for n in (4, 5, 8, 9, 12, 13):
        for cycle_type in sachs_cycle_types(n):
            sigma = permutation_with_cycle_type(n, cycle_type)
            orbits = pair_orbits(sigma)
            full = (1 << len(orbits)) - 1
            for bits in (0, 0b10110100 & full, full):
                g = sc_from_assignment(sigma, orbits, bits)
                assert sc_from_assignment(sigma, orbits, bits ^ full) == complement(g)


def test_sc_from_assignment_rejects_bits_outside_the_orbits():
    sigma = permutation_with_cycle_type(8, (4, 4))
    orbits = pair_orbits(sigma)
    for bits in (-1, 1 << len(orbits), 1 << 40):
        with pytest.raises(ValueError, match="do not fit 8 orbits"):
            sc_from_assignment(sigma, orbits, bits)


def test_sc_from_assignment_rejects_bad_sigma():
    sigma = Permutation([1, 0, 3, 2])
    with pytest.raises(ValueError):
        sc_from_assignment(sigma, (), 0)


def test_enumerate_counts_small():
    assert len(sc_classes(1)) == 1
    assert len(sc_classes(4)) == 1
    assert len(sc_classes(5)) == 2
    canon5 = {canonical_form(g) for g in sc_classes(5)}
    assert canonical_form(cycle_graph(5)) in canon5
    assert canonical_form(sharp_4n_plus_1(1)) in canon5


def test_class_counts_equal_the_burnside_sum_over_sachs_cycle_types():
    # Read (J. London Math. Soc. 38, 1963): the number of SC classes on n
    # vertices is the sum over antimorphism cycle types of
    # 2^(pair orbits) / z, z = prod over cycle lengths a of a^m * m!, where
    # m is the multiplicity of a (the fixed point of n = 4k + 1 gives 1).
    for n in ENUMERATION_SIZES:
        total = Fraction(0)
        for cycle_type in sachs_cycle_types(n):
            sigma = permutation_with_cycle_type(n, cycle_type)
            z = prod(a**m * factorial(m) for a, m in Counter(cycle_type).items())
            total += Fraction(2 ** len(pair_orbits(sigma)), z)
        assert total == len(sc_classes(n)), f"n={n}"


def test_enumerate_outputs_are_self_complementary():
    for n in (1, 4, 5, 8):
        for g in sc_classes(n):
            assert 4 * g.num_edges == n * (n - 1)
            assert find_antimorphism(g) is not None


def test_enumerate_rejects_unsupported_sizes():
    with pytest.raises(ValueError):
        enumerate_sc(6)
    with pytest.raises(ValueError):
        enumerate_sc(16)  # an SC order, beyond the enumerated sizes


def test_enumerate_is_deterministic():
    a = [write_graph6(g) for g in enumerate_sc(8)]
    b = [write_graph6(g) for g in enumerate_sc(8)]
    assert a == b


def test_graph6_roundtrip_on_enumerated_graphs():
    for n in (1, 4, 5, 8, 9):
        for g in sc_classes(n):
            assert parse_graph6(write_graph6(g)) == g


def test_random_sc_properties():
    for seed in range(25):
        g = random_sc(12, seed)
        assert g.n == 12 and g.num_edges == 33
        assert find_antimorphism(g) is not None
    assert random_sc(12, 7) == random_sc(12, 7)
    distinct = {write_graph6(random_sc(12, s)) for s in range(20)}
    assert len(distinct) > 1


def test_random_sc_13_has_single_fixed_point():
    for seed in range(10):
        g = random_sc(13, seed)
        rho = find_antimorphism(g)
        fixed = [v for v in range(13) if rho(v) == v]
        assert len(fixed) == 1


def test_random_sc_rejects_bad_n():
    with pytest.raises(ValueError):
        random_sc(7, 0)
    with pytest.raises(ValueError):
        random_sc(0, 0)


def test_enumerate_matches_canonicalising_every_assignment():
    for n in (1, 4, 5, 8, 9):
        assert enumerate_sc(n) == reference_enumerate_sc(n), f"n={n}"


CYCLE_TYPES = [(n, t) for n in (8, 9, 12, 13) for t in sachs_cycle_types(n)]


def _closure(n: int, gens: list[Permutation]) -> set[tuple[int, ...]]:
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        image = frontier.pop()
        for pi in gens:
            step = tuple(pi(v) for v in image)
            if step not in group:
                group.add(step)
                frontier.append(step)
    return group


def _centraliser(sigma: Permutation, group: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The elements of ``group`` (image tuples) that commute with sigma."""
    n = sigma.n
    return {image for image in group if all(image[sigma(v)] == sigma(image[v]) for v in range(n))}


def test_the_normaliser_contains_the_whole_centraliser():
    for n, cycle_type in CYCLE_TYPES:
        sigma = permutation_with_cycle_type(n, cycle_type)
        group = _closure(n, _normaliser_generators(sigma, cycle_type))
        # |C(sigma)| = prod over cycle lengths L of L^m * m!, m = multiplicity
        lengths = set(cycle_type)
        order = prod(
            L ** cycle_type.count(L) * factorial(cycle_type.count(L)) for L in lengths
        )
        assert len(_centraliser(sigma, group)) == order, f"n={n}, type {cycle_type}"


def test_normaliser_generators_one_per_cycle_plus_the_power_maps():
    # one rotation per run of equal lengths, one swap per later cycle of the
    # run, and one power map per generator of the units mod lcm
    counts = {(8,): 3, (4, 4): 3, (12,): 3, (8, 4): 4, (4, 4, 4): 4}
    for n, cycle_type in CYCLE_TYPES:
        sigma = permutation_with_cycle_type(n, cycle_type)
        assert len(_normaliser_generators(sigma, cycle_type)) == counts[cycle_type], f"n={n}"


def test_normaliser_generators_conjugate_sigma_to_odd_unit_powers():
    # rotations and swaps commute with sigma (j = 1); power maps give j > 1
    for n, cycle_type in CYCLE_TYPES:
        sigma = permutation_with_cycle_type(n, cycle_type)
        order = lcm(*cycle_type)
        powers = [tuple(range(n))]
        for _ in range(order - 1):
            powers.append(tuple(sigma(v) for v in powers[-1]))
        for pi in _normaliser_generators(sigma, cycle_type):
            conjugate = [0] * n  # pi sigma pi^-1
            for v in range(n):
                conjugate[pi(v)] = pi(sigma(v))
            j = powers.index(tuple(conjugate))
            assert j % 2 == 1 and gcd(j, order) == 1, f"n={n}, type {cycle_type}, j={j}"


def test_normaliser_generators_generate_the_normaliser():
    # N(<sigma>) / C(sigma) is the automorphism group of <sigma>, the units
    # mod its order L, so |N(<sigma>)| = |C(sigma)| * phi(L)
    for n, cycle_type in CYCLE_TYPES:
        sigma = permutation_with_cycle_type(n, cycle_type)
        order = lcm(*cycle_type)
        units = sum(1 for j in range(order) if gcd(j, order) == 1)
        normaliser = _closure(n, _normaliser_generators(sigma, cycle_type))
        centraliser = _centraliser(sigma, normaliser)
        assert len(normaliser) == len(centraliser) * units, f"n={n}, type {cycle_type}"


@st.composite
def normaliser_moves(draw):
    n, cycle_type = draw(st.sampled_from(CYCLE_TYPES))
    sigma = permutation_with_cycle_type(n, cycle_type)
    orbits = pair_orbits(sigma)
    # a random product of generators, so rotations of every cycle appear,
    # not only of the first of each run
    gens = _normaliser_generators(sigma, cycle_type)
    image = tuple(range(n))
    for pi in draw(st.lists(st.sampled_from(gens), min_size=1, max_size=8)):
        image = tuple(pi(v) for v in image)
    pi = Permutation(image)
    bits = draw(st.integers(0, (1 << len(orbits)) - 1))
    return sigma, orbits, pi, bits


@settings(max_examples=60, deadline=None)
@given(normaliser_moves())
def test_bit_action_builds_the_relabelled_graph(move):
    sigma, orbits, pi, bits = move
    g = sc_from_assignment(sigma, orbits, bits)
    relabelled = Graph(g.n, [(pi(u), pi(v)) for u, v in g.edges()])
    assert sc_from_assignment(sigma, orbits, _bit_action(orbits, pi)(bits)) == relabelled


def _affine_fixed_points(act, k: int) -> int:
    """Fixed points of the affine map b -> A b + c = act(b) on k bits over
    GF(2): the solutions of (A + I) b = c, 0 or 2^(k - rank(A + I))."""
    c = act(0)
    # row i holds row i of A + I in bits 0..k-1 and c_i in bit k
    rows = [(c >> i & 1) << k for i in range(k)]
    for j in range(k):
        column = act(1 << j) ^ c ^ (1 << j)
        for i in range(k):
            rows[i] |= (column >> i & 1) << j
    coefficients = (1 << k) - 1
    pivots: dict[int, int] = {}
    for row in rows:
        while row & coefficients:
            top = (row & coefficients).bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
        else:
            if row:  # 0 = 1: no solution
                return 0
    return 2 ** (k - len(pivots))


def _burnside_orbit_counts(n: int, generators, centraliser: bool = False) -> list[int]:
    """Per cycle type of ``sachs_cycle_types(n)``, the number of orbits on
    orbit assignments of the group that ``generators(sigma, cycle_type)``
    generates, or of its elements that commute with sigma if ``centraliser``:
    the mean over the whole group of each element's fixed assignments."""
    counts = []
    for cycle_type in sachs_cycle_types(n):
        sigma = permutation_with_cycle_type(n, cycle_type)
        orbits = pair_orbits(sigma)
        group = _closure(n, generators(sigma, cycle_type))
        if centraliser:
            group = _centraliser(sigma, group)
        fixed = sum(
            _affine_fixed_points(_bit_action(orbits, Permutation(image)), len(orbits))
            for image in group
        )
        assert fixed % len(group) == 0, f"n={n}, type {cycle_type}"
        counts.append(fixed // len(group))
    return counts


CANONICAL_CALLS = {1: 1, 4: 1, 5: 2, 8: 17, 9: 54, 12: 952}


@pytest.mark.parametrize("n", [n for n in ENUMERATION_SIZES if n <= 12])
def test_enumerate_builds_one_assignment_per_normaliser_orbit(n, monkeypatch):
    built = Counter()
    canonicalised = 0

    def counting(sigma, orbits, bits):
        built[sigma.image] += 1
        return sc_from_assignment(sigma, orbits, bits)

    def counting_canonical(g):
        nonlocal canonicalised
        canonicalised += 1
        return canonical_form(g)

    monkeypatch.setattr(scminor.generators, "sc_from_assignment", counting)
    monkeypatch.setattr(scminor.generators, "canonical_form", counting_canonical)
    enumerate_sc(n)
    per_type = [
        built[permutation_with_cycle_type(n, t).image] for t in sachs_cycle_types(n)
    ]
    assert per_type == _burnside_orbit_counts(n, _normaliser_generators)
    assert canonicalised == sum(per_type) == CANONICAL_CALLS[n]


def test_centraliser_orbit_counts_by_burnside():
    counts = {
        n: _burnside_orbit_counts(n, _normaliser_generators, centraliser=True)
        for n in (4, 5, 8, 9, 12, 13)
    }
    assert counts == {
        4: [2],
        5: [4],
        8: [8, 24],
        9: [16, 88],
        12: [32, 160, 1760],
        13: [64, 640, 13504],
    }


def test_normaliser_orbit_counts_by_burnside():
    counts = {
        n: _burnside_orbit_counts(n, _normaliser_generators) for n in (4, 5, 8, 9, 12, 13)
    }
    assert counts == {
        4: [1],
        5: [2],
        8: [4, 13],
        9: [8, 46],
        12: [12, 60, 880],
        13: [24, 240, 6752],
    }


def test_sc_from_assignment_raises_consistency_error_not_assert(monkeypatch):
    sigma = permutation_with_cycle_type(8, (8,))
    orbits = pair_orbits(sigma)
    bits = (1 << len(orbits)) - 1
    assert is_antimorphism(sc_from_assignment(sigma, orbits, bits), sigma)
    monkeypatch.setattr(scminor.generators, "is_antimorphism", lambda g, p: False)
    with pytest.raises(ConsistencyError, match="not an antimorphism"):
        sc_from_assignment(sigma, orbits, bits)
