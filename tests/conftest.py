"""Shared fixtures and independent test-side oracles.

The checkers here deliberately avoid the library's own search machinery:
isomorphism and the least antimorphism are fresh backtracking searches
without forward checking, and the reference Hadwiger number enumerates
every partition of every vertex subset with no pruning, so agreement with
the library is meaningful evidence.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from scminor import (
    Graph,
    OrbitAssignment,
    canonical_form,
    enumerate_sc,
    pair_orbits,
    permutation_with_cycle_type,
    random_sc,
    sachs_cycle_types,
    sc_from_assignment,
)


@lru_cache(maxsize=None)
def sc_classes(n: int) -> tuple[Graph, ...]:
    return tuple(enumerate_sc(n))


@lru_cache(maxsize=None)
def random_sc_batch(n: int, count: int) -> tuple[Graph, ...]:
    return tuple(random_sc(n, seed) for seed in range(count))


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Plain backtracking isomorphism search, independent of canonical_form."""
    n = g.n
    if n != h.n or g.num_edges != h.num_edges:
        return False
    dg = [g.degree(v) for v in range(n)]
    dh = [h.degree(v) for v in range(n)]
    if sorted(dg) != sorted(dh):
        return False
    image = [-1] * n
    used = [False] * n

    def assign(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or dh[w] != dg[v]:
                continue
            if any(g.has_edge(u, v) != h.has_edge(image[u], w) for u in range(v)):
                continue
            image[v] = w
            used[w] = True
            if assign(v + 1):
                return True
            used[w] = False
        return False

    return assign(0)


def reference_antimorphism(g: Graph) -> tuple[int, ...] | None:
    """Lexicographically least antimorphism image, or None, by plain backtracking.

    Images are tried in vertex order with ascending candidates, filtered by
    degree only and checked pairwise against every earlier vertex when
    assigned; no domain is narrowed ahead of time.
    """
    n = g.n
    if n % 4 in (2, 3) or 4 * g.num_edges != n * (n - 1):
        return None
    adj = [g.neighbor_mask(v) for v in range(n)]
    degrees = [a.bit_count() for a in adj]
    cands = [
        [w for w in range(n) if degrees[w] == n - 1 - degrees[v]] for v in range(n)
    ]
    image = [0] * n
    used = [False] * n

    def assign(v: int) -> bool:
        if v == n:
            return True
        av = adj[v]
        for w in cands[v]:
            if used[w]:
                continue
            aw = adj[w]
            if any(((av >> u) & 1) == ((aw >> image[u]) & 1) for u in range(v)):
                continue
            image[v] = w
            used[w] = True
            if assign(v + 1):
                return True
            used[w] = False
        return False

    return tuple(image) if assign(0) else None


def reference_enumerate_sc(n: int) -> list[Graph]:
    """Every orbit assignment of every cycle type built and canonicalised,
    in enumeration order, keeping the first graph of each class."""
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


def reference_canonical_form(g: Graph) -> list[int]:
    """The least block string that canonical_form encodes, by a plain search.

    Colours are refined once at the root; the labelings list the colour
    classes in sorted order, and block i holds the bits of the vertex at
    position i towards positions 0..i-1, position 0 first.  Every labeling
    whose prefix ties the best so far is followed to a leaf: no twin or
    open-cell rule.
    """
    n = g.n
    adj = [g.neighbor_mask(v) for v in range(n)]
    colors = [0] * n
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in range(n) if adj[v] >> u & 1)))
            for v in range(n)
        ]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [table[s] for s in sigs]
        done = len(table) == len(set(colors))
        colors = refined
        if done:
            break
    target = sorted(colors)
    best: list[int] | None = None
    placed: list[int] = []

    def descend(blocks: list[int]) -> None:
        nonlocal best
        depth = len(blocks)
        if depth == n:
            if best is None or blocks < best:
                best = blocks
            return
        for v in range(n):
            if colors[v] != target[depth] or v in placed:
                continue
            block = 0
            for p in placed:
                block = block << 1 | (adj[v] >> p & 1)
            candidate = blocks + [block]
            if best is not None and candidate > best[: depth + 1]:
                continue
            placed.append(v)
            descend(candidate)
            placed.pop()

    descend([])
    return best or []


def blocks_of_form(form: bytes) -> list[int]:
    """The block string of a canonical form's graph in its own labeling."""
    from scminor import parse_graph6

    h = parse_graph6(form.decode("ascii"))
    return [
        sum(1 << (i - 1 - j) for j in range(i) if h.has_edge(i, j)) for i in range(h.n)
    ]


@lru_cache(maxsize=None)
def iso_classes_up_to(max_n: int) -> dict[int, list[Graph]]:
    """One representative per isomorphism class for every n <= max_n."""
    out: dict[int, list[Graph]] = {}
    for n in range(1, max_n + 1):
        seen: dict[bytes, Graph] = {}
        for g in all_labeled_graphs(n):
            key = canonical_form(g)
            if key not in seen:
                seen[key] = g
        out[n] = list(seen.values())
    return out


def _cross_edge(g: Graph, a: int, b: int) -> bool:
    for v in range(g.n):
        if (a >> v) & 1 and g.neighbor_mask(v) & b:
            return True
    return False


def _mask_connected(g: Graph, mask: int) -> bool:
    reach = mask & -mask
    while True:
        grown = reach
        v = 0
        rest = reach
        while rest:
            if rest & 1:
                grown |= g.neighbor_mask(v) & mask
            rest >>= 1
            v += 1
        if grown == reach:
            return reach == mask
        reach = grown


def reference_hadwiger(g: Graph) -> int:
    """Largest complete minor by exhaustive, unpruned partition enumeration.

    Every set partition of the full vertex set is generated; for each, every
    subfamily of connected parts is tested for pairwise adjacency.  Families
    on vertex subsets are covered because discarded vertices sit in parts
    left out of the subfamily.
    """
    n = g.n
    if n == 0:
        return 0
    best = 1
    parts: list[list[int]] = []

    def score() -> int:
        masks = [sum(1 << x for x in p) for p in parts]
        usable = [m for m in masks if _mask_connected(g, m)]
        top = 0
        for picks in range(1 << len(usable)):
            chosen = [usable[i] for i in range(len(usable)) if (picks >> i) & 1]
            if all(
                _cross_edge(g, a, b) for a, b in combinations(chosen, 2)
            ):
                top = max(top, len(chosen))
        return top

    def descend(v: int) -> None:
        nonlocal best
        if v == n:
            best = max(best, score())
            return
        for p in parts:
            p.append(v)
            descend(v + 1)
            p.pop()
        parts.append([v])
        descend(v + 1)
        parts.pop()

    descend(0)
    return best


def reference_clique_minor_sets(g: Graph, k: int, budget) -> tuple[int, ...] | None:
    """``oracle._clique_minor_sets`` as it was before the neighbourhood-reach rule.

    The body is kept verbatim, with its pairwise adjacency test as a nested
    helper. The rule may only remove subtrees that hold no completion, so the
    pruned search must return the same branch sets with no more expansions.
    """
    from scminor.graphs import iter_bits
    from scminor.oracle import _clique_subgraph, _connected_sets

    def _cross_edge(adj: tuple[int, ...], a: int, b: int) -> bool:
        for v in iter_bits(a):
            if adj[v] & b:
                return True
        return False

    if k == 0:
        return ()
    if k > g.n:
        return None
    clique = _clique_subgraph(g, k, budget)
    if clique is not None:
        return tuple(1 << v for v in iter_bits(clique))
    adj = g._adj

    def place(done: tuple[int, ...], avail: int):
        budget.spend()
        need = k - len(done)
        if need == 0:
            return done
        if avail.bit_count() < need:
            return None
        anchor = (avail & -avail).bit_length() - 1
        limit = avail.bit_count() - (need - 1)
        for cand in _connected_sets(adj, anchor, avail, limit, budget):
            if all(_cross_edge(adj, cand, seen) for seen in done):
                found = place(done + (cand,), avail & ~cand)
                if found is not None:
                    return found
        return place(done, avail & ~(1 << anchor))

    return place((), (1 << g.n) - 1)


def reference_report(g: Graph, apex_range: tuple[int, ...] = (0, 1, 2), budget: int = 10**8):
    """``topology.report`` as it was before the apex search came first.

    The body is kept verbatim: the K6 and K7 certificates come from the
    constructive model or the oracle, and an apex search runs afterwards
    only for the j that no certificate settles.  The apex-first report must
    return the same ``TopologyReport``.
    """
    from scminor.graphs import ConsistencyError
    from scminor.topology import (
        CERTIFICATE,
        NONE_FOUND,
        TopologyReport,
        _check_apex_parameter,
        _complete_certificate,
        _constructive_model,
        ik_certificate,
        il_certificate,
        is_n_apex,
        is_outerplanar,
        is_planar,
    )

    for j in apex_range:
        _check_apex_parameter(j)
    outer = is_outerplanar(g)
    model, half = _constructive_model(g, 6), (g.n + 1) // 2
    il = _complete_certificate(g, 6, budget, model) if half >= 6 else il_certificate(g, budget)
    ik = _complete_certificate(g, 7, budget, model) if half >= 7 else ik_certificate(g, budget)
    if ik.status == CERTIFICATE and il.status == NONE_FOUND:
        raise ConsistencyError("complete minor of order 7 without one of order 6")
    t = max((m.k for m in (model, il.model, ik.model) if m is not None), default=0)
    top = max((j for j in apex_range if t < 5 + j), default=None)
    if top is None:
        apex = {j: False for j in apex_range}
        planar = is_planar(g)
    else:
        found, deleted = is_n_apex(g, top)
        apex = {j: t < 5 + j and found and len(deleted) <= j for j in apex_range}
        planar = found and not deleted
    if outer and not planar:
        raise ConsistencyError("outerplanar graph reported non-planar")
    for j, val in apex.items():
        if j == 0 and val != planar:
            raise ConsistencyError("0-apex answer disagrees with planarity")
    return TopologyReport(outer, planar, il, ik, apex)


def reference_verify_minor_model(g: Graph, model, target: Graph):
    """``construction.verify_minor_model`` as it was before each branch set
    carried one neighbourhood mask: the body is kept verbatim, testing each
    target edge vertex by vertex over the first set."""
    from scminor.construction import ModelCheck
    from scminor.graphs import mask_is_connected

    sets = model.branch_sets
    if len(sets) != target.n:
        return ModelCheck(
            False, f"{len(sets)} branch sets for a {target.n}-vertex target"
        )
    masks = []
    seen = 0
    for i, s in enumerate(sets):
        if not s:
            return ModelCheck(False, f"branch set {i} is empty")
        mask = 0
        for v in s:
            if not (0 <= v < g.n):
                return ModelCheck(False, f"branch set {i} leaves the host range")
            mask |= 1 << v
        if mask & seen:
            return ModelCheck(False, f"branch set {i} overlaps an earlier one")
        seen |= mask
        if not mask_is_connected(g, mask):
            return ModelCheck(False, f"branch set {i} is not connected")
        masks.append(mask)
    for i, j in target.edges():
        if not any(g.neighbor_mask(v) & masks[j] for v in sets[i]):
            return ModelCheck(False, "no host edge between branch sets", (i, j))
    return ModelCheck(True)
