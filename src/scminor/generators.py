"""Graph generators: sharpness examples, random self-complementary graphs,
and all self-complementary graphs at desk scale.

Self-complementary graphs are generated backwards from a candidate
antimorphism sigma: sigma acts on unordered vertex pairs, edge membership
must alternate along each pair orbit, and the forced cycle structure (all
cycle lengths divisible by 4, one fixed point iff n = 4k + 1) makes every
orbit even, so any choice of one bit per orbit yields a graph with sigma as
an antimorphism.  Enumerating one representative permutation per cycle type
and all 2^orbits bit choices covers every isomorphism class.

Relabelling by a permutation pi with pi sigma pi^-1 = sigma^j, j odd,
keeps sigma as an antimorphism: sigma^j is an antimorphism of the
relabelled graph, and so is sigma, an odd power of sigma^j.  Such pi form
the normaliser of <sigma>, generated by the power maps, which conjugate
sigma to its powers coprime to its order, and the centraliser of sigma.
The centraliser needs only one rotation per run of equal cycle lengths and
the swaps of consecutive equal cycles, since a swap carries one rotation
onto the next.  Sigma and all of these generators are laid out on
consecutive blocks by one builder.  The normaliser acts on the bit
choices, and every choice in one of its orbits builds an isomorphic graph.
Enumeration sweeps the choices upward with a visited array, floods each
new orbit through the generators, and builds only the least choice of each
orbit.  A built graph is kept unless an isomorphism search maps it onto a
kept graph with the same colour-refinement key.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from math import gcd, lcm

from .graphs import ConsistencyError, Graph, canonical_form, check_order
from .antimorphism import (
    Permutation,
    _least_isomorphism,
    check_sachs,
    cycle_decomposition,
    is_antimorphism,
)

ENUMERATION_SIZES = (1, 4, 5, 8, 9, 12, 13)
# Not called here: kept as this module's attribute, which bench/spans.py wraps.
canonical_form = canonical_form


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


def _blockwise(
    n: int, cycle_lengths: tuple[int, ...], move: Callable[[int, int], tuple[int, int]]
) -> Permutation:
    """The permutation on n vertices that sends vertex i of consecutive block
    c (of lengths ``cycle_lengths``) to vertex k mod len(d) of block d, where
    ``move(c, i) == (d, k)``; vertices past the blocks stay put."""
    starts = [sum(cycle_lengths[:c]) for c in range(len(cycle_lengths))]
    image = list(range(n))
    for c, length in enumerate(cycle_lengths):
        for i in range(length):
            d, k = move(c, i)
            image[starts[c] + i] = starts[d] + k % cycle_lengths[d]
    return Permutation(image)


def permutation_with_cycle_type(n: int, cycle_lengths: tuple[int, ...]) -> Permutation:
    """Consecutive-block permutation of the given type; fixed point last.
    The type must be an antimorphism's, checked before building."""
    if n - sum(cycle_lengths) not in (0, 1) or any(
        length <= 0 or length % 4 for length in cycle_lengths
    ):
        raise ValueError(
            f"cycle type {cycle_lengths!r} does not fit n={n}: an antimorphism "
            "has cycles of positive lengths divisible by 4 and at most one fixed point"
        )
    return _blockwise(n, cycle_lengths, lambda c, i: (c, i + 1))


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
    fault = check_sachs(cycle_decomposition(sigma))
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


def _normaliser_generators(
    sigma: Permutation, cycle_lengths: tuple[int, ...]
) -> list[Permutation]:
    """Generators of the normaliser of <sigma>, for the permutation sigma that
    ``permutation_with_cycle_type`` builds for ``cycle_lengths``.

    One per cycle: the first cycle of each run of equal lengths gives its
    rotation (sigma on that cycle, the identity elsewhere), and every later
    one its swap with the cycle before it.  These generate the centraliser
    of sigma, since the swap of cycles c - 1 and c conjugates the rotation of
    c - 1 onto that of c.  Then the power maps: pi_j sends the i-th vertex of
    each cycle to its (j * i mod length)-th vertex, so pi_j sigma pi_j^-1 =
    sigma^j, for j in a generating set of the units mod L = lcm(cycle
    lengths).  Every such j is odd, since 4 divides L.  The fixed point
    stays put.
    """
    n, lengths = sigma.n, cycle_lengths
    gens = []
    for c, length in enumerate(lengths):
        if c == 0 or lengths[c - 1] != length:
            gens.append(_blockwise(n, lengths, lambda d, i, c=c: (d, i + (d == c))))
        else:
            swap = {c - 1: c, c: c - 1}
            gens.append(_blockwise(n, lengths, lambda d, i, swap=swap: (swap.get(d, d), i)))
    order = lcm(*lengths)
    reached = {1}
    for j in range(2, order):
        if gcd(j, order) != 1 or j in reached:
            continue
        reached = {r * pow(j, k, order) % order for r in reached for k in range(order)}
        gens.append(_blockwise(n, lengths, lambda d, i, j=j: (d, j * i)))
    return gens


def _bit_action(
    orbits: tuple[tuple[tuple[int, int], ...], ...], pi: Permutation
) -> Callable[[int], int]:
    """The map on choice bits that relabelling by ``pi`` induces.

    ``pi`` must normalise <sigma>, for the sigma behind ``orbits``, with an
    odd power: pi sigma pi^-1 = sigma^j, j odd.  It then carries orbit o
    onto one orbit t, and the bit moves from o to t, flipped when pi maps
    o's representative to an odd index of t.  Step i along o lands j * i
    steps further along t, whose length is even, so an odd j keeps its
    parity.  The map is linear over GF(2) plus a constant, so it is applied
    by one table lookup per byte of the bits.
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


def _class_key(adj: Sequence[int]) -> tuple[tuple, list[int], list[int]]:
    """An isomorphism invariant of the graph on ``adj``, the vertex colouring
    it comes from, and the colour classes as masks.

    Colour refinement (McKay and Piperno, J. Symb. Comput. 60, 2014) seeded
    with each vertex's sorted pair profiles (u ~ v, |N(u) & N(v)|) over the
    other vertices.  A vertex's next signature is its colour and its counts
    of neighbours per colour; colours are numbered by sorted signature, so
    an isomorphism carries each vertex to one of the same colour.  The key
    holds every round's sorted signatures.
    """
    n = len(adj)
    profiles: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            profile = (au >> v & 1) * n + (au & adj[v]).bit_count()
            profiles[u].append(profile)
            profiles[v].append(profile)
    sigs: list[tuple] = [tuple(sorted(p)) for p in profiles]
    rounds = []
    masks: list[int] = []
    while True:
        ordered = sorted(sigs)
        rounds.append(tuple(ordered))
        table = {sig: c for c, sig in enumerate(dict.fromkeys(ordered))}
        colors = [table[sig] for sig in sigs]
        if len(table) == len(masks):
            # no class split, and signatures sort by their old colour first,
            # so every colour kept its number and ``masks`` still holds
            return tuple(rounds), colors, masks
        masks = [0] * len(table)
        for v, c in enumerate(colors):
            masks[c] |= 1 << v
        sigs = [(c, *[(a & m).bit_count() for m in masks]) for c, a in zip(colors, adj)]


def _is_repeat(
    adj: Sequence[int], colors: list[int], kept: Sequence[int], classes: list[int]
) -> bool:
    """True iff the graph on ``adj`` is isomorphic to the one on ``kept``,
    given equal keys from ``_class_key``: ``adj``'s colours ``colors`` and
    ``kept``'s colour classes ``classes``.  A map found is checked pair by
    pair."""
    image = _least_isomorphism(adj, kept, [classes[c] for c in colors])
    if image is None:
        return False
    n = len(adj)
    if sorted(image) != list(range(n)) or any(
        (adj[u] >> v & 1) != (kept[image[u]] >> image[v] & 1)
        for u in range(n)
        for v in range(u + 1, n)
    ):
        raise ConsistencyError(f"isomorphism search returned a non-isomorphism {image!r}")
    return True


def enumerate_sc(n: int) -> list[Graph]:
    """One representative per isomorphism class of self-complementary graphs.

    Supported sizes are ``ENUMERATION_SIZES``: 1, 4, 5, 8, 9, 12 and 13;
    any other n raises ``ValueError``, the one size rule that the CLI's
    ``enum`` and ``verify-theorem`` report.  On one Xeon core n = 9 takes
    about 0.004 s, n = 12 about 0.5 s and n = 13 about 4.2-4.7 s, most of
    it the flood; the searches run 18, 270 and 1,784 times, and 0, 38 and
    368 of them find no map, where distinct classes share a key.
    Output order is deterministic: cycle types largest-first, orbit choice
    bits counting up, first representative of each class kept.

    Choice bits are swept upward.  The first unvisited one is the least of
    its orbit under the normaliser of <sigma>: the orbit is marked visited
    and only that one assignment is built.  The first assignment of each
    new class is always such a least element.  A built graph is a repeat
    iff ``_least_isomorphism`` maps it onto a kept graph with the same
    ``_class_key``, each vertex's domain its colour class, so the list is
    the one that canonicalising every assignment would give.
    """
    if n not in ENUMERATION_SIZES:
        raise ValueError(f"enumeration supports n in {ENUMERATION_SIZES}, got {n}")
    buckets: dict[tuple, list[tuple[Sequence[int], list[int]]]] = {}
    out: list[Graph] = []
    for cycle_type in sachs_cycle_types(n):
        sigma = permutation_with_cycle_type(n, cycle_type)
        orbits = pair_orbits(sigma)
        actions = [_bit_action(orbits, pi) for pi in _normaliser_generators(sigma, cycle_type)]
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
            key, colors, classes = _class_key(g._adj)
            kept = buckets.setdefault(key, [])
            if not any(_is_repeat(g._adj, colors, *k) for k in kept):
                kept.append((g._adj, classes))
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
