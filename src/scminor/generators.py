"""Graph generators: standard families, sharpness examples, and all
self-complementary graphs at desk scale.

Self-complementary graphs are generated backwards from a candidate
antimorphism sigma: sigma acts on unordered vertex pairs, edge membership
must alternate along each pair orbit, and the forced cycle structure (all
cycle lengths divisible by 4, one fixed point iff n = 4k + 1) makes every
orbit even, so any choice of one bit per orbit yields a graph with sigma as
an antimorphism.  Enumerating one representative permutation per cycle type
and all 2^orbits bit choices covers every isomorphism class.

Relabelling by a permutation that commutes with sigma keeps sigma as an
antimorphism, so the centraliser of sigma acts on the bit choices and every
choice in one of its orbits builds an isomorphic graph.  Enumeration
therefore builds and canonicalises only the least choice of each orbit
(orderly generation in the sense of Read, "Every one a winner", Ann.
Discrete Math. 2, 1978).
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .graphs import ConsistencyError, Graph, canonical_form, check_order
from .antimorphism import (
    Permutation,
    check_sachs,
    cycle_decomposition,
    is_antimorphism,
)

ENUMERATION_SIZES = (1, 4, 5, 8, 9, 12, 13)


def complete_graph(k: int) -> Graph:
    check_order(k)
    full = (1 << k) - 1
    return Graph._from_adj(full & ~(1 << v) for v in range(k))


def complete_bipartite(p: int, q: int) -> Graph:
    """Parts 0..p-1 and p..p+q-1, every cross pair an edge."""
    if p < 0 or q < 0:
        raise ValueError(f"part sizes must be >= 0, got {p} and {q}")
    check_order(p + q)
    return Graph._from_adj([((1 << q) - 1) << p] * p + [(1 << p) - 1] * q)


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
    base = sharp_4n(n)._adj
    check_order(4 * n + 1)
    adj = [m | 1 << 4 * n for m in base[: 2 * n]] + list(base[2 * n :])
    return Graph._from_adj(adj + [(1 << 2 * n) - 1])


def sachs_cycle_types(n: int) -> tuple[tuple[int, ...], ...]:
    """All valid antimorphism cycle types for n vertices, largest part first.

    A type lists the nontrivial cycle lengths (each a multiple of 4, summing
    to n rounded down to a multiple of 4); the fixed point for n = 4k + 1 is
    implicit.  Types are ordered descending, e.g. (12,), (8, 4), (4, 4, 4).
    """
    if n < 1:
        raise ValueError(f"self-complementary generators need n >= 1, got {n}")
    if n % 4 not in (0, 1):
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


def sc_from_assignment(
    sigma: Permutation, orbits: tuple[tuple[tuple[int, int], ...], ...], bits: int
) -> Graph:
    """Build the graph whose edges alternate along each pair orbit.

    ``orbits`` is ``pair_orbits(sigma)``.  The representative pair of orbit
    i is an edge iff bit i of ``bits`` is set; edge membership then flips at
    every step along the orbit.  The result always admits ``sigma`` as an
    antimorphism.
    """
    fault = check_sachs(cycle_decomposition(sigma), sigma.n)
    if fault is not None:
        raise ValueError(f"invalid generating permutation: {fault}")
    if bits < 0 or bits >> len(orbits):
        raise ValueError(f"orbit bits {bits} do not fit {len(orbits)} orbits")
    check_order(sigma.n)
    adj = [0] * sigma.n
    for orbit in orbits:
        for u, v in orbit[1 - (bits & 1) :: 2]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        bits >>= 1
    g = Graph._from_adj(adj)
    if not is_antimorphism(g, sigma):
        raise ConsistencyError("sigma is not an antimorphism of the built graph")
    return g


def _centraliser_generators(
    sigma: Permutation, cycle_lengths: tuple[int, ...]
) -> list[Permutation]:
    """Generators of the centraliser of sigma, the permutation that
    ``permutation_with_cycle_type`` builds for ``cycle_lengths``.

    One rotation per cycle (sigma on that cycle, the identity elsewhere) and
    one swap per two consecutive cycles of equal length; the fixed point
    stays put.
    """
    n = sigma.n
    starts = [sum(cycle_lengths[:i]) for i in range(len(cycle_lengths))]
    gens = []
    for start, length in zip(starts, cycle_lengths):
        image = list(range(n))
        image[start : start + length] = sigma.image[start : start + length]
        gens.append(Permutation(image))
    for i in range(len(cycle_lengths) - 1):
        length = cycle_lengths[i]
        if cycle_lengths[i + 1] != length:
            continue
        image = list(range(n))
        for t in range(length):
            a, b = starts[i] + t, starts[i + 1] + t
            image[a], image[b] = b, a
        gens.append(Permutation(image))
    return gens


def _bit_action(
    orbits: tuple[tuple[tuple[int, int], ...], ...], pi: Permutation
) -> Callable[[int], int]:
    """The map on choice bits that relabelling by ``pi`` induces.

    ``pi`` must commute with the sigma behind ``orbits``.  It then carries
    orbit o onto one orbit t, and the bit moves from o to t, flipped when
    pi maps o's representative to an odd index of t.  The map is linear
    over GF(2) plus a constant, so it is applied by one table lookup per
    byte of the bits.
    """
    where = {
        pair: (o, idx) for o, orbit in enumerate(orbits) for idx, pair in enumerate(orbit)
    }
    images = []
    flip = 0
    for orbit in orbits:
        a, b = pi(orbit[0][0]), pi(orbit[0][1])
        target, idx = where[(a, b) if a < b else (b, a)]
        images.append(1 << target)
        if idx % 2:
            flip |= 1 << target
    tables = []
    for lo in range(0, len(images), 8):
        chunk = images[lo : lo + 8]
        table = [0] * (1 << len(chunk))
        for v in range(1, len(table)):
            low = (v & -v).bit_length() - 1
            table[v] = table[v & (v - 1)] ^ chunk[low]
        tables.append(table)

    def act(bits: int) -> int:
        out = flip
        for table in tables:
            out ^= table[bits & 0xFF]
            bits >>= 8
        return out

    return act


def enumerate_sc(n: int) -> list[Graph]:
    """One representative per isomorphism class of self-complementary graphs.

    Supported sizes are ``ENUMERATION_SIZES``: 1, 4, 5, 8, 9, 12 and 13;
    any other n raises ``ValueError``, the one size rule that the CLI's
    ``enum`` and ``verify-theorem`` report.  On one Xeon core n = 9 takes
    about 0.03 s, n = 12 about 1.5 s and n = 13 about 11.5 s.
    Output order is deterministic: cycle types largest-first, orbit choice
    bits counting up, first representative of each class kept.

    Choice bits are swept upward.  The first unvisited one is the least of
    its centraliser orbit: the orbit is marked visited and only that one
    assignment is built and canonicalised.  The first assignment of each new
    class is always such a least element, so the list is the one that
    canonicalising every assignment would give.
    """
    if n not in ENUMERATION_SIZES:
        raise ValueError(f"enumeration supports n in {ENUMERATION_SIZES}, got {n}")
    seen: set[bytes] = set()
    out: list[Graph] = []
    for cycle_type in sachs_cycle_types(n):
        sigma = permutation_with_cycle_type(n, cycle_type)
        orbits = pair_orbits(sigma)
        actions = [
            _bit_action(orbits, pi) for pi in _centraliser_generators(sigma, cycle_type)
        ]
        visited = bytearray(1 << len(orbits))
        for bits in range(len(visited)):
            if visited[bits]:
                continue
            visited[bits] = 1
            stack = [bits]
            while stack:
                b = stack.pop()
                for act in actions:
                    c = act(b)
                    if not visited[c]:
                        visited[c] = 1
                        stack.append(c)
            g = sc_from_assignment(sigma, orbits, bits)
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
    types = sachs_cycle_types(n)  # raises ValueError unless n >= 1 is 4k or 4k+1
    rng = random.Random(seed)
    cycle_type = types[rng.randrange(len(types))]
    sigma = permutation_with_cycle_type(n, cycle_type)
    orbits = pair_orbits(sigma)
    bits = sum(rng.getrandbits(1) << i for i in range(len(orbits)))
    return sc_from_assignment(sigma, orbits, bits)
