"""The antimorphism search against two references in conftest.

``find_antimorphism`` narrows bitmask domains ahead of the assignment, with
every domain a row of one packed integer.  ``reference_antimorphism`` checks
each candidate only against earlier vertices, too slowly for use past
``REFERENCE_CAP`` vertices; ``reference_forward_checking_antimorphism`` is
the list-domain search that the packed one replaced, fast at every size up
to 64.  All three try candidates in ascending order, so they must return
the same least image array, on SC graphs and on graphs that pass every cheap
filter.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import scminor.antimorphism
from scminor import (
    Graph,
    complement,
    find_antimorphism,
    is_antimorphism,
    parse_graph6,
    random_sc,
)
from scminor.antimorphism import _least_antimorphism, _pair_profiles_match

from conftest import reference_antimorphism, reference_forward_checking_antimorphism

FEW = settings(max_examples=25, deadline=None)
MANY = settings(max_examples=100, deadline=None)
SC_SIZES = (4, 5, 8, 9, 12, 13, 16, 17)
SMALL_SIZES = (4, 5, 8, 9, 12, 13)


def relabel(g: Graph, perm) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shuffled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


def circulant(p: int, connection: set[int]) -> Graph:
    return Graph(
        p, [(i, (i + s) % p) for i in range(p) for s in connection if i < (i + s) % p]
    )


def quadratic_residues(q: int) -> set[int]:
    return {x * x % q for x in range(1, q)}


def paley(q: int) -> Graph:
    return circulant(q, quadratic_residues(q))


def turner_sc(p: int, connection: set[int]) -> bool:
    """Multiplier criterion (Turner 1967): a circulant of prime order p is
    self-complementary iff some unit m maps its connection set onto the
    complementary one."""
    rest = set(range(1, p)) - connection
    return any({m * s % p for s in connection} == rest for m in range(2, p))


def band(p: int, width: int) -> set[int]:
    """Symmetric connection set {±1, ..., ±width}."""
    return {s % p for d in range(1, width + 1) for s in (d, -d)}


def assert_matches_reference(g: Graph) -> None:
    rho = find_antimorphism(g)
    want = reference_antimorphism(g)
    assert (None if rho is None else rho.image) == want


def edge_swapped(g: Graph, rng: random.Random, swaps: int) -> Graph:
    """g after up to ``swaps`` degree-preserving double-edge swaps."""
    edges = set(g.edges())
    for _ in range(50 * swaps):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new1, new2 = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if len({a, b, c, d}) < 4 or new1 in edges or new2 in edges:
            continue
        edges -= {(a, b), (c, d)}
        edges |= {new1, new2}
        swaps -= 1
        if swaps == 0:
            break
    return Graph(g.n, sorted(edges))


@FEW
@given(
    st.sampled_from(SC_SIZES),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
def test_least_image_on_relabelled_random_sc(n, seed, rng):
    g = shuffled(random_sc(n, seed), rng.randrange(10**9))
    assert_matches_reference(g)
    again = shuffled(g, rng.randrange(10**9))
    assert find_antimorphism(again) is not None


@FEW
@given(st.sampled_from((13, 17)), st.permutations(range(17)))
def test_least_image_on_relabelled_paley(q, perm17):
    perm = [v for v in perm17 if v < q]
    g = relabel(paley(q), perm)
    assert_matches_reference(g)
    assert find_antimorphism(g) is not None


@FEW
@given(st.sampled_from(SMALL_SIZES), st.randoms(use_true_random=False))
def test_same_verdict_on_graphs_with_sc_edge_count(n, rng):
    pairs = list(combinations(range(n), 2))
    g = Graph(n, rng.sample(pairs, n * (n - 1) // 4))
    assert_matches_reference(g)
    verdict = find_antimorphism(g) is not None
    assert (find_antimorphism(shuffled(g, rng.randrange(10**9))) is not None) == verdict


@FEW
@given(
    st.sampled_from(SMALL_SIZES),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
def test_same_verdict_on_edge_swapped_sc(n, seed, rng):
    g = edge_swapped(random_sc(n, seed), rng, swaps=3)
    assert 4 * g.num_edges == n * (n - 1)
    assert_matches_reference(g)
    verdict = find_antimorphism(g) is not None
    assert (find_antimorphism(shuffled(g, rng.randrange(10**9))) is not None) == verdict


@pytest.mark.parametrize("p, width", [(29, 7), (37, 9)])
def test_regular_non_sc_circulant_is_refuted(p, width):
    connection = band(p, width)
    assert len(connection) == (p - 1) // 2
    assert not turner_sc(p, connection)
    assert find_antimorphism(shuffled(circulant(p, connection), p)) is None


@pytest.mark.parametrize("q", [37, 41, 53, 61])
def test_large_paley_least_image(q):
    assert turner_sc(q, quadratic_residues(q))
    g = shuffled(paley(q), q)
    assert_matches_reference(g)
    assert find_antimorphism(g) is not None


# The pair-profile test ahead of the search: it must pass every SC graph,
# and the search must still agree with the reference on the non-SC graphs
# that pass it.

REFERENCE_CAP = 29
SC_ORDERS = tuple(n for n in range(4, 62) if n % 4 in (0, 1))
SC_PRIMES = (13, 17, 29, 37, 41, 53, 61)
ORDER_61_NON_SC = {1, 3, 7, 9, 11, 12, 15, 16, 17, 20, 21, 25, 26, 28, 29}


def sc_circulant_connection(p: int, picks: list[bool]) -> set[int]:
    """Connection set mapped onto its complement by a unit m with
    m^2 = -1 (mod p), p = 1 (mod 4): the orbits {±x, ±mx} of <m> on the
    units each give {±x} or {±mx}, as ``picks`` says."""
    m = next(x for x in range(2, p) if x * x % p == p - 1)
    seen: set[int] = set()
    connection: set[int] = set()
    pick = iter(picks)
    for x in range(1, p):
        if x in seen:
            continue
        mx = m * x % p
        seen |= {x, p - x, mx, p - mx}
        s = x if next(pick) else mx
        connection |= {s, p - s}
    return connection


def assert_passes_the_filter(g: Graph) -> None:
    assert _pair_profiles_match(g._adj)
    rho = find_antimorphism(g)
    assert rho is not None and is_antimorphism(g, rho)
    assert list(rho.image) == reference_forward_checking_antimorphism(g._adj)
    if g.n <= REFERENCE_CAP:
        assert rho.image == reference_antimorphism(g)


@MANY
@given(
    st.sampled_from(SC_ORDERS),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
def test_filter_passes_relabelled_random_sc(n, seed, rng):
    assert_passes_the_filter(shuffled(random_sc(n, seed), rng.randrange(10**9)))


@MANY
@given(st.sampled_from((5,) + SC_PRIMES), st.permutations(range(61)))
def test_filter_passes_relabelled_paley(q, perm61):
    perm = [v for v in perm61 if v < q]
    assert_passes_the_filter(relabel(paley(q), perm))


@MANY
@given(
    st.sampled_from(SC_PRIMES),
    st.lists(st.booleans(), min_size=15, max_size=15),
    st.randoms(use_true_random=False),
)
def test_filter_passes_relabelled_sc_circulants(p, picks, rng):
    connection = sc_circulant_connection(p, picks)
    assert len(connection) == (p - 1) // 2
    assert turner_sc(p, connection)
    assert_passes_the_filter(shuffled(circulant(p, connection), rng.randrange(10**9)))


# Complement symmetry: rho flips every pair of G iff it flips every pair of
# the complement, and the pair-profile test compares G with its complement
# symmetrically, so both searches return the same least antimorphism or
# both return None.


@MANY
@given(
    st.sampled_from(SC_ORDERS),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
def test_complement_has_the_same_least_antimorphism_on_relabelled_random_sc(n, seed, rng):
    g = shuffled(random_sc(n, seed), rng.randrange(10**9))
    rho = find_antimorphism(g)
    assert rho is not None and find_antimorphism(complement(g)) == rho


@MANY
@given(st.sampled_from((8, 9, 12, 13)), st.randoms(use_true_random=False))
def test_complement_has_the_same_verdict_and_least_antimorphism_at_the_sc_edge_count(n, rng):
    g = Graph(n, rng.sample(list(combinations(range(n), 2)), n * (n - 1) // 4))
    assert find_antimorphism(complement(g)) == find_antimorphism(g)


@pytest.mark.parametrize("text", ["G{z[I?", "HcOV^pi", "KvGyKzHRrLFO"])
def test_search_refutes_non_sc_graphs_that_pass_the_filter(text):
    g = parse_graph6(text)
    assert 4 * g.num_edges == g.n * (g.n - 1)
    assert _pair_profiles_match(g._adj)
    assert reference_antimorphism(g) is None
    assert reference_forward_checking_antimorphism(g._adj) is None
    assert _least_antimorphism(g._adj) is None
    assert find_antimorphism(g) is None


@pytest.mark.parametrize("n", [8, 9])
def test_search_matches_the_reference_on_sampled_graphs_passing_the_filter(n):
    """About 1% of random graphs with the SC edge count pass the filter at
    n = 8 and 9; the search decides those, SC or not."""
    rng = random.Random(n)
    pairs = list(combinations(range(n), 2))
    verdicts = []
    for _ in range(4000):
        g = Graph(n, rng.sample(pairs, n * (n - 1) // 4))
        if _pair_profiles_match(g._adj):
            assert_matches_reference(g)
            verdicts.append(find_antimorphism(g) is not None)
    assert verdicts.count(False) >= 5 and True in verdicts


def test_order_61_non_sc_circulant_is_refuted_by_the_filter(monkeypatch):
    connection = {s % 61 for d in ORDER_61_NON_SC for s in (d, -d)}
    assert len(connection) == 30
    assert not turner_sc(61, connection)
    g = shuffled(circulant(61, connection), 61)
    assert 4 * g.num_edges == 61 * 60
    searches = []
    search = scminor.antimorphism._least_antimorphism

    def counted(adj):
        searches.append(adj)
        return search(adj)

    monkeypatch.setattr(scminor.antimorphism, "_least_antimorphism", counted)
    assert find_antimorphism(g) is None
    assert not searches
    assert find_antimorphism(shuffled(paley(61), 61)) is not None
    assert len(searches) == 1


# The packed search against the list-domain search it replaced, called
# directly: the filter-passing families above compare the two through
# ``assert_passes_the_filter``, at every order up to 61.


@MANY
@given(st.sampled_from(SMALL_SIZES), st.randoms(use_true_random=False))
def test_packed_search_at_the_sc_edge_count(n, rng):
    """Most of these graphs fail the pair-profile filter, so the search is
    called directly: it must refute them as the list-domain search does."""
    g = Graph(n, rng.sample(list(combinations(range(n), 2)), n * (n - 1) // 4))
    for h in (g, complement(g)):
        assert _least_antimorphism(h._adj) == reference_forward_checking_antimorphism(h._adj)


# The ends of the packed layout: n = 4 with 5-bit rows, and n = 64
# (MAX_VERTICES) with 65-bit rows.


@pytest.mark.parametrize("n, seed", [(4, 0), (4, 1), (64, 0), (64, 1), (64, 2)])
def test_packed_search_at_the_ends_of_the_layout(n, seed):
    g = shuffled(random_sc(n, seed), seed)
    for h in (g, complement(g)):
        rho = find_antimorphism(h)
        assert rho is not None and is_antimorphism(h, rho)
        assert list(rho.image) == reference_forward_checking_antimorphism(h._adj)
    assert find_antimorphism(complement(g)) == find_antimorphism(g)
