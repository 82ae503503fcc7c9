"""Graph generators: standard families, sharpness examples, and all
self-complementary graphs at desk scale.

Self-complementary graphs are generated backwards from a candidate
antimorphism sigma: sigma acts on unordered vertex pairs, edge membership
must alternate along each pair orbit, and the forced cycle structure (all
cycle lengths divisible by 4, one fixed point iff n = 4k + 1) makes every
orbit even, so any choice of one bit per orbit yields a graph with sigma as
an antimorphism.  Enumerating one representative permutation per cycle type
and all 2^orbits bit choices covers every isomorphism class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import Graph, canonical_form
from .antimorphism import (
    Permutation,
    check_sachs,
    cycle_decomposition,
    is_antimorphism,
)

ENUMERATION_SIZES = (1, 4, 5, 8, 9)
LARGE_ENUMERATION_SIZES = (12, 13)


def complete_graph(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def complete_bipartite(p: int, q: int) -> Graph:
    return Graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def path_graph(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def sharp_4n(n: int) -> Graph:
    """Self-complementary graph on 4n vertices with no complete minor of
    order 2n + 1, showing the floor((n+1)/2) guarantee is tight.

    Vertices 0..2n-1 form a clique, 2n..4n-1 an independent set, and the two
    halves are joined by two complete bipartite blocks:
    {0..n-1} x {2n..3n-1} and {n..2n-1} x {3n..4n-1}.
    """
    if n < 1:
        raise ValueError(f"family parameter must be >= 1, got {n}")
    edges = [(i, j) for i in range(2 * n) for j in range(i + 1, 2 * n)]
    edges += [(i, 2 * n + j) for i in range(n) for j in range(n)]
    edges += [(n + i, 3 * n + j) for i in range(n) for j in range(n)]
    return Graph(4 * n, edges)


def sharp_4n_plus_1(n: int) -> Graph:
    """sharp_4n(n) plus an apex adjacent to the whole clique side; the
    resulting self-complementary graph on 4n + 1 vertices has no complete
    minor of order 2n + 2."""
    if n < 0:
        raise ValueError(f"family parameter must be >= 0, got {n}")
    if n == 0:
        return Graph(1)
    base = sharp_4n(n)
    apex = 4 * n
    edges = base.edges() + [(i, apex) for i in range(2 * n)]
    return Graph(4 * n + 1, edges)


def sachs_cycle_types(n: int) -> tuple[tuple[int, ...], ...]:
    """All valid antimorphism cycle types for n vertices, largest part first.

    A type lists the nontrivial cycle lengths (each a multiple of 4, summing
    to n rounded down to a multiple of 4); the fixed point for n = 4k + 1 is
    implicit.  Types are ordered descending, e.g. (12,), (8, 4), (4, 4, 4).
    """
    if n < 1 or n % 4 not in (0, 1):
        raise ValueError(f"self-complementary graphs need n = 4k or 4k+1, got {n}")
    total = n - (n % 4)

    def parts(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for part in range(min(cap, remaining), 3, -4):
            for rest in parts(remaining - part, part):
                out.append((part,) + rest)
        return out

    return tuple(parts(total, total))


def permutation_with_cycle_type(n: int, cycle_lengths: tuple[int, ...]) -> Permutation:
    """Consecutive-block permutation of the given type; fixed point last."""
    if sum(cycle_lengths) != n - (n % 4):
        raise ValueError(
            f"cycle type {cycle_lengths!r} does not fit n={n}"
        )
    image = list(range(n))
    start = 0
    for length in cycle_lengths:
        for i in range(length):
            image[start + i] = start + (i + 1) % length
        start += length
    return Permutation(image)


def pair_orbits(sigma: Permutation) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Orbits of sigma acting on unordered vertex pairs.

    Each orbit is listed in traversal order from its lexicographically least
    pair; orbits are ordered by that representative.  Every orbit must have
    even length, which holds exactly when sigma has a valid antimorphism
    cycle structure.
    """
    n = sigma.n
    seen: set[tuple[int, int]] = set()
    orbits = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in seen:
                continue
            orbit = []
            pair = (u, v)
            while pair not in seen:
                seen.add(pair)
                orbit.append(pair)
                a, b = sigma(pair[0]), sigma(pair[1])
                pair = (a, b) if a < b else (b, a)
            if len(orbit) % 2 != 0:
                raise ValueError(
                    f"pair orbit of {orbit[0]!r} has odd length {len(orbit)}; "
                    "the permutation cannot be an antimorphism"
                )
            orbits.append(tuple(orbit))
    return tuple(orbits)


@dataclass(frozen=True)
class OrbitAssignment:
    """A candidate antimorphism plus one edge/non-edge bit per pair orbit."""

    sigma: Permutation
    orbits: tuple[tuple[tuple[int, int], ...], ...]
    choices: tuple[bool, ...]

    @classmethod
    def from_choices(
        cls, sigma: Permutation, choices: tuple[bool, ...]
    ) -> "OrbitAssignment":
        return cls(sigma, pair_orbits(sigma), choices)


def sc_from_assignment(assignment: OrbitAssignment) -> Graph:
    """Build the graph whose edges alternate along each pair orbit.

    The representative pair of orbit i is an edge iff ``choices[i]``; edge
    membership then flips at every step along the orbit.  The result always
    admits ``sigma`` as an antimorphism.
    """
    sigma = assignment.sigma
    sachs = check_sachs(cycle_decomposition(sigma), sigma.n)
    if not sachs.ok:
        raise ValueError(f"invalid generating permutation: {sachs.reason}")
    if len(assignment.choices) != len(assignment.orbits):
        raise ValueError(
            f"{len(assignment.choices)} choices for {len(assignment.orbits)} orbits"
        )
    edges = []
    for orbit, chosen in zip(assignment.orbits, assignment.choices):
        for idx, pair in enumerate(orbit):
            if chosen != bool(idx % 2):
                edges.append(pair)
    g = Graph(sigma.n, edges)
    assert is_antimorphism(g, sigma)
    return g


def enumerate_sc(n: int, allow_large: bool = False) -> list[Graph]:
    """One representative per isomorphism class of self-complementary graphs.

    Supported sizes are 1, 4, 5, 8, 9 (and 12, 13 when ``allow_large`` is
    set; those take noticeably longer).  Output order is deterministic:
    cycle types largest-first, orbit choice bits counting up, first
    representative of each class kept.
    """
    if n in LARGE_ENUMERATION_SIZES and not allow_large:
        raise ValueError(
            f"enumeration at n={n} is expensive; pass allow_large=True to run it"
        )
    if n not in ENUMERATION_SIZES + LARGE_ENUMERATION_SIZES:
        raise ValueError(
            f"enumeration supports n in {ENUMERATION_SIZES + LARGE_ENUMERATION_SIZES},"
            f" got {n}"
        )
    seen: set[bytes] = set()
    out: list[Graph] = []
    for cycle_type in sachs_cycle_types(n):
        sigma = permutation_with_cycle_type(n, cycle_type)
        orbits = pair_orbits(sigma)
        for bits in range(1 << len(orbits)):
            choices = tuple(bool((bits >> i) & 1) for i in range(len(orbits)))
            g = sc_from_assignment(OrbitAssignment(sigma, orbits, choices))
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def random_sc(n: int, seed: int) -> Graph:
    """Random self-complementary graph: uniform cycle type, uniform orbit bits.

    Deterministic for a fixed seed.  Sampling is uniform over orbit
    assignments of the chosen type, not over isomorphism classes.
    """
    if n < 1 or n % 4 not in (0, 1):
        raise ValueError(f"self-complementary graphs need n = 4k or 4k+1, got {n}")
    rng = random.Random(seed)
    types = sachs_cycle_types(n)
    cycle_type = types[rng.randrange(len(types))]
    sigma = permutation_with_cycle_type(n, cycle_type)
    orbits = pair_orbits(sigma)
    choices = tuple(bool(rng.getrandbits(1)) for _ in orbits)
    return sc_from_assignment(OrbitAssignment(sigma, orbits, choices))
