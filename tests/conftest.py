"""Shared fixtures and independent test-side oracles.

The checkers here deliberately avoid the library's own search machinery:
isomorphism and the least antimorphism are fresh backtracking searches
without forward checking, and the reference Hadwiger number enumerates
every partition of every vertex subset with no pruning, so agreement with
the library is meaningful evidence.  Code the library replaced is kept
here verbatim as ``reference_*`` functions, so the new code is checked
against the old on inputs too large for the plain references.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from scminor import (
    Graph,
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
    """Every SC class on n vertices, enumerated once per session; n = 12 and
    13 (720 and 5,600 classes) included."""
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


def reference_forward_checking_antimorphism(adj: Sequence[int]) -> list[int] | None:
    """``antimorphism._least_antimorphism`` as it was before its domains were
    packed into one integer: the body is kept verbatim, with one bitmask
    domain per later vertex in a list, each narrowed by its own AND and
    tested for emptiness by ``0 not in``.

    Backtracks over image assignments in vertex order 0..n-1, keeping for
    every unassigned vertex a bitmask domain of the images still possible.
    A vertex v starts with the vertices of degree n-1-deg(v).  Assigning
    v -> w forward-checks every later u: its domain keeps only non-neighbours
    of w if u ~ v, and only neighbours of w otherwise.  Neither mask holds w,
    so the images stay distinct, and a candidate that empties some domain is
    skipped at once.  Candidates are tried in ascending order; forward
    checking removes only candidates that no completion could use, so the
    first full assignment is the least one.
    """
    n = len(adj)
    full = (1 << n) - 1
    nonadj = [full & ~(a | (1 << w)) for w, a in enumerate(adj)]
    by_degree: dict[int, int] = {}
    for w, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | (1 << w)
    domains = [by_degree.get(n - 1 - a.bit_count(), 0) for a in adj]
    # later[v][i] is 1 iff v ~ v+1+i: which mask filters that vertex's domain.
    later = [[(adj[v] >> u) & 1 for u in range(v + 1, n)] for v in range(n)]
    image = [0] * n

    def assign(v: int, doms: list[int]) -> bool:
        # doms[i] is the domain of vertex v + i.
        cand = doms[0]
        rest = doms[1:]
        flags = later[v]
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            image[v] = w
            if not rest:
                return True
            aw = adj[w]
            nw = nonadj[w]
            nxt = [d & (nw if f else aw) for d, f in zip(rest, flags)]
            if 0 not in nxt and assign(v + 1, nxt):
                return True
        return False

    return image if assign(0, domains) else None


def reference_enumerate_sc(n: int) -> list[Graph]:
    """Every orbit assignment of every cycle type built and canonicalised,
    in enumeration order, keeping the first graph of each class."""
    seen: set[bytes] = set()
    out: list[Graph] = []
    for cycle_type in sachs_cycle_types(n):
        sigma = permutation_with_cycle_type(n, cycle_type)
        orbits = pair_orbits(sigma)
        for bits in range(1 << len(orbits)):
            g = sc_from_assignment(sigma, orbits, bits)
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def reference_refined_colors(g: Graph) -> list[int]:
    """Each vertex's colour after plain colour refinement from one colour."""
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
            return colors


def reference_tied_labelings(g: Graph) -> int:
    """How many labelings ``reference_canonical_form`` may follow at most:
    the product of the factorials of the refined colour class sizes."""
    return prod(factorial(size) for size in Counter(reference_refined_colors(g)).values())


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
    colors = reference_refined_colors(g)
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


def milp_clique_minor(g: Graph, k: int) -> tuple[int, ...] | None:
    """Branch-set masks of a K_k minor of g found by a 0/1 program, or None.

    An exact oracle that shares nothing with the branch-set search: it is
    solved by ``scipy.optimize.milp`` (HiGHS).  The variables are
    - membership x[v, i]: vertex v lies in branch set i, at most one set each;
    - a root r[v, i]: the least member of set i, one per set, with the roots
      increasing in i (this breaks the symmetry between sets);
    - a single-commodity flow f[u, v, i] inside set i: every non-root member
      takes in one unit net, on edges with both ends in the set, so the set
      is connected;
    - e[u, v, i, j]: host edge (u, v) joins sets i < j, at least one per pair.
    The answer is a floating-point solver's, so a None is agreement with the
    library's refutation, not a certificate of one.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    n = g.n
    arcs = [(u, v) for u in range(n) for v in g.neighbors(u)]
    pairs = list(combinations(range(k), 2))
    x = lambda v, i: v * k + i
    r = lambda v, i: n * k + v * k + i
    f = lambda a, i: 2 * n * k + a * k + i
    e = lambda a, p: 2 * n * k + len(arcs) * k + a * len(pairs) + p
    size = e(len(arcs), 0)
    rows, cols, vals, lower, upper = [], [], [], [], []

    def row(terms, lo, hi):
        for col, val in terms:
            rows.append(len(lower))
            cols.append(col)
            vals.append(val)
        lower.append(lo)
        upper.append(hi)

    for v in range(n):
        row([(x(v, i), 1) for i in range(k)], 0, 1)
    for i in range(k):
        row([(r(v, i), 1) for v in range(n)], 1, 1)
        for v in range(n):
            row([(r(v, i), 1), (x(v, i), -1)], -np.inf, 0)
            for u in range(v):
                row([(r(v, i), 1), (x(u, i), 1)], -np.inf, 1)
            inflow = [(f(a, i), 1) for a, (_, w) in enumerate(arcs) if w == v]
            outflow = [(f(a, i), -1) for a, (w, _) in enumerate(arcs) if w == v]
            row(inflow + outflow + [(x(v, i), -1), (r(v, i), n)], 0, np.inf)
        for a, (u, v) in enumerate(arcs):
            row([(f(a, i), 1), (x(u, i), 1 - n)], -np.inf, 0)
            row([(f(a, i), 1), (x(v, i), 1 - n)], -np.inf, 0)
    for i in range(k - 1):
        row([(r(v, i), v) for v in range(n)] + [(r(v, i + 1), -v) for v in range(n)], -np.inf, -1)
    for p, (i, j) in enumerate(pairs):
        row([(e(a, p), 1) for a in range(len(arcs))], 1, np.inf)
        for a, (u, v) in enumerate(arcs):
            row([(e(a, p), 1), (x(u, i), -1)], -np.inf, 0)
            row([(e(a, p), 1), (x(v, j), -1)], -np.inf, 0)
    matrix = coo_array((vals, (rows, cols)), shape=(len(lower), size))
    integral = np.zeros(size)
    integral[: 2 * n * k] = 1
    upper_bounds = np.full(size, np.inf)
    upper_bounds[: 2 * n * k] = 1
    result = milp(
        np.zeros(size),
        integrality=integral,
        bounds=Bounds(0, upper_bounds),
        constraints=LinearConstraint(matrix.tocsr(), lower, upper),
    )
    if result.status == 2:  # infeasible
        return None
    assert result.status == 0, result.message
    return tuple(
        sum(1 << v for v in range(n) if result.x[x(v, i)] > 0.5) for i in range(k)
    )


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


def reference_general_minor_sets(host: Graph, target: Graph, budget) -> tuple[int, ...] | None:
    """``oracle._general_minor_sets`` as it was before one anchored search
    served every target.

    The body is kept verbatim: target vertices are placed by falling degree,
    each from every start vertex, with no twin or reach rule. It is the
    reference that the anchored search's answers are checked against.
    """
    from scminor.graphs import iter_bits, neighbourhood
    from scminor.oracle import _connected_sets

    tadj = target._adj
    order = sorted(range(target.n), key=lambda i: (-tadj[i].bit_count(), i))
    adj = host._adj

    def place(done: tuple[int, ...], reach: tuple[int, ...], avail: int):
        budget.spend()
        pos = len(done)
        if pos == target.n:
            return done
        tv = order[pos]
        required = [reach[i] for i in range(pos) if tadj[tv] >> order[i] & 1]
        limit = avail.bit_count() - (target.n - pos - 1)
        for v in iter_bits(avail):
            region = avail & ~((1 << v) - 1)
            for cand in _connected_sets(adj, v, region, limit, budget):
                if all(nb & cand for nb in required):
                    nb = neighbourhood(adj, cand)
                    found = place(done + (cand,), reach + (nb,), avail & ~cand)
                    if found is not None:
                        return found
        return None

    done = place((), (), (1 << host.n) - 1)
    return None if done is None else tuple(done[order.index(i)] for i in range(target.n))


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


def reference_verify_minor_model(g: Graph, model, target: Graph) -> str | None:
    """``construction.verify_minor_model`` as it was before each branch set
    carried one neighbourhood mask: the body is kept, testing each target
    edge vertex by vertex over the first set, with each mask read as its
    vertices through ``iter_bits`` (so a negative mask raises)."""
    from scminor.graphs import iter_bits, mask_is_connected

    sets = [tuple(iter_bits(m)) for m in model.masks]
    if len(sets) != target.n:
        return f"{len(sets)} branch sets for a {target.n}-vertex target"
    masks = []
    seen = 0
    for i, s in enumerate(sets):
        if not s:
            return f"branch set {i} is empty"
        mask = 0
        for v in s:
            if not (0 <= v < g.n):
                return f"branch set {i} leaves the host range"
            mask |= 1 << v
        if mask & seen:
            return f"branch set {i} overlaps an earlier one"
        seen |= mask
        if not mask_is_connected(g, mask):
            return f"branch set {i} is not connected"
        masks.append(mask)
    for i, j in target.edges():
        if not any(g.neighbor_mask(v) & masks[j] for v in sets[i]):
            return f"no host edge between branch sets at target edge {(i, j)}"
    return None


def reference_write_graph6(g: Graph) -> str:
    """``graphs.write_graph6`` as it was before the shared bit packer: the body
    is kept verbatim, reading one upper-triangle bit at a time."""
    from scminor.graphs import GRAPH6_MAX, CapacityError

    if g.n > GRAPH6_MAX:
        raise CapacityError(f"graph6 short form supports n <= {GRAPH6_MAX}, got {g.n}")
    out = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for col in range(1, g.n):
        for row in range(col):
            acc = (acc << 1) | ((g.neighbor_mask(row) >> col) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def reference_parse_graph6(text: str) -> Graph:
    """``graphs.parse_graph6`` as it was before it decoded into masks: the body
    is kept verbatim, collecting an edge list bit by bit."""
    from scminor.graphs import GRAPH6_MAX, GRAPH6_WHITESPACE, Graph6Error

    s = text.strip(GRAPH6_WHITESPACE)
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    head = ord(s[0])
    if head == 126:
        raise Graph6Error("multi-byte vertex counts (n > 62) are not supported", 0)
    if not 63 <= head <= 63 + GRAPH6_MAX:
        raise Graph6Error(f"invalid vertex-count byte {s[0]!r}", 0)
    n = head - 63
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(s) - 1 != need:
        raise Graph6Error(
            f"expected {need} data bytes for n={n}, got {len(s) - 1}", len(s)
        )
    bits = 0
    for idx in range(1, len(s)):
        val = ord(s[idx]) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"invalid graph6 byte {s[idx]!r}", idx)
        bits = (bits << 6) | val
    total_bits = 6 * need
    pad = total_bits - npairs
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    edges = []
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if (bits >> (total_bits - 1 - pos)) & 1:
                edges.append((row, col))
            pos += 1
    return Graph(n, edges)


def _reference_smoothed_paths(adj: dict[int, set[int]]) -> dict[tuple[int, int], list[int]]:
    paths: dict[tuple[int, int], list[int]] = {}
    for u in sorted(adj):
        if len(adj[u]) < 3:
            continue
        for v in sorted(adj[u]):
            prev, inner = u, []
            while len(adj[v]) == 2:
                inner.append(v)
                prev, v = v, next(w for w in adj[v] if w != prev)
            if u < v:
                paths.setdefault((u, v), inner)
    return paths


def _reference_kuratowski_subgraph(adj: dict[int, set[int]]) -> dict[int, set[int]] | None:
    from scminor.graphs import iter_bits
    from scminor.topology import _planar_masks

    adj = {v: set(nb) for v, nb in adj.items()}
    low = [v for v, nb in adj.items() if len(nb) < 2]
    while low:
        v = low.pop()
        for w in adj.pop(v, ()):
            adj[w].discard(v)
            if len(adj[w]) == 1:
                low.append(w)
    paths = _reference_smoothed_paths(adj)
    reduced = [0] * (max((w for _, w in paths), default=-1) + 1)

    def toggle(u: int, w: int) -> None:
        reduced[u] ^= 1 << w
        reduced[w] ^= 1 << u

    for u, w in paths:
        toggle(u, w)
    if _planar_masks(reduced):
        return None
    for v, nbrs in enumerate(reduced):
        for w in iter_bits(nbrs):
            toggle(v, w)
        if _planar_masks(reduced):
            for w in iter_bits(nbrs):
                toggle(v, w)
    for u, w in sorted(paths):
        if reduced[u] >> w & 1:
            toggle(u, w)
            if _planar_masks(reduced):
                toggle(u, w)
    sub: dict[int, set[int]] = {}
    for (u, w), inner in paths.items():
        if reduced[u] >> w & 1:
            walk = [u, *inner, w]
            for a, b in zip(walk, walk[1:]):
                sub.setdefault(a, set()).add(b)
                sub.setdefault(b, set()).add(a)
    return sub


def reference_kuratowski_witness(g: Graph, apex: bool):
    """``topology._kuratowski_witness`` as it was before it read adjacency
    masks: the body and its two helpers are kept verbatim, on dict-of-sets
    copies of the graph (the helpers lose only their docstrings), except
    that the branch sets go into the model as masks and the check returns
    its fault."""
    from scminor.graphs import ConsistencyError, complete_bipartite, complete_graph, iter_bits
    from scminor.construction import MinorModel, verify_minor_model
    from scminor.topology import CERTIFICATE, NONE_FOUND, CertificateSearch

    if g.num_edges < (6 if apex else 9):
        return CertificateSearch(NONE_FOUND)
    adj = {v: set(iter_bits(g.neighbor_mask(v))) for v in range(g.n)}
    if apex:
        adj[g.n] = set(range(g.n))
        for v in range(g.n):
            adj[v].add(g.n)
    sub = _reference_kuratowski_subgraph(adj)
    if sub is None:
        return CertificateSearch(NONE_FOUND)
    paths = _reference_smoothed_paths(sub)
    branch = sorted({b for ends in paths for b in ends})
    sets = {b: {b} for b in branch}
    for (u, _), inner in paths.items():
        sets[u].update(inner)
    if apex:
        branch.remove(next((b for b in branch if g.n in sets[b]), branch[-1]))
    if len(sets) == 5:
        name, target = ("K4", complete_graph(4)) if apex else ("K5", complete_graph(5))
    else:
        first = branch[0]
        part = [b for b in branch if (min(first, b), max(first, b)) not in paths]
        rest = [b for b in branch if b not in part]
        branch = part + rest if len(part) <= len(rest) else rest + part
        name, target = ("K2,3", complete_bipartite(2, 3)) if apex else ("K3,3", complete_bipartite(3, 3))
    model = MinorModel(tuple(sum(1 << v for v in sets[b]) for b in branch))
    fault = verify_minor_model(g, model, target)
    if fault is not None:
        raise ConsistencyError(f"Kuratowski witness failed verification: {fault}")
    return CertificateSearch(CERTIFICATE, name, model)


def _reference_planar_masks(adj) -> bool:
    from scminor.graphs import iter_bits
    from scminor.topology import _block_planar, _blocks

    for block in _blocks(adj):
        n = block.bit_count()
        if n <= 4:
            continue
        m = sum((adj[v] & block).bit_count() for v in iter_bits(block)) // 2
        if m > 3 * n - 6 or not _block_planar(adj, block):
            return False
    return True


def _reference_planar_by_count(g: Graph, apex: bool) -> bool | None:
    m = g.num_edges
    fewest, most = (6, 2 * g.n - 3) if apex else (9, 3 * g.n - 6)
    if m < fewest:
        return True
    if m > most:
        return False
    return None


def reference_counted_planar(g: Graph, apex: bool) -> bool:
    """``topology._planar`` as it was before ``_planar_masks`` took the edge
    count rules: ``_planar_by_count`` first, then the block test without
    any count rule over the whole graph.  The three bodies are kept
    verbatim (the helpers lose only their docstrings)."""
    from scminor.topology import _masks

    known = _reference_planar_by_count(g, apex)
    return _reference_planar_masks(_masks(g, apex)) if known is None else known


def reference_is_n_apex(g: Graph, j: int) -> tuple[bool, frozenset[int] | None]:
    """``topology.is_n_apex`` as it was before it cleared the masks of the
    deleted vertices: verbatim, on a relabelled induced subgraph per
    deletion set, except that ``reference_counted_planar`` tests planarity."""
    import itertools

    from scminor import induced_subgraph
    from scminor.topology import _check_apex_parameter

    _check_apex_parameter(j)
    for size in range(min(j, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            keep = [v for v in range(g.n) if v not in combo]
            sub, _ = induced_subgraph(g, keep)
            if reference_counted_planar(sub, False):
                return True, frozenset(combo)
    return False, None


def _reference_side_partition(g: Graph, rho):
    from scminor.antimorphism import SidePartition, is_antimorphism
    from scminor.graphs import ConsistencyError, iter_bits

    n = g.n
    if n % 4 != 0:
        raise ValueError(f"degree split needs n = 4k, got n={n}")
    if not is_antimorphism(g, rho):
        raise ValueError("permutation is not an antimorphism of the graph")
    k = n // 4
    side = sum(1 << v for v in range(n) if g.degree(v) >= 2 * k)
    cross = Graph._from_adj(
        m & ~side if side >> v & 1 else m & side for v, m in enumerate(g._adj)
    )
    high = frozenset(iter_bits(side))
    low = frozenset(range(n)) - high
    if {rho(v) for v in high} != low or cross.num_edges != 2 * k * k:
        raise ConsistencyError("rho does not swap the degree sides across 2k^2 cross edges")
    return SidePartition(high, low, cross)


def reference_cycle_side_counts(g: Graph, rho, cycle) -> tuple[int, int, tuple[int, ...]]:
    """``antimorphism.cycle_side_counts`` as it was before it read the degree
    split as a mask: verbatim, with ``side_partition`` as it was then, so
    that n = 4k + 1 recurses through a relabelled induced subgraph and the
    sides are tested as frozensets."""
    from scminor import Permutation, cycle_decomposition, induced_subgraph
    from scminor.antimorphism import _validate_cycle
    from scminor.graphs import iter_bits

    cyc = _validate_cycle(rho, cycle)
    if len(cyc) % 4 != 0:
        raise ValueError(f"cycle length {len(cyc)} is not divisible by 4")
    if g.n % 4 == 1:
        dec = cycle_decomposition(rho)
        if len(dec.fixed_points) != 1:
            raise ValueError("expected exactly one fixed point for n = 4k + 1")
        fixed = dec.fixed_points[0]
        keep = [v for v in range(g.n) if v != fixed]
        sub, relabel = induced_subgraph(g, keep)
        sub_rho = Permutation(
            [relabel[rho(old)] for old in keep]
        )
        mapped = [relabel[v] for v in cyc]
        return reference_cycle_side_counts(sub, sub_rho, mapped)
    part = _reference_side_partition(g, rho)
    in_high = sum(1 for v in cyc if v in part.high)
    in_low = len(cyc) - in_high
    members = set(cyc)
    per_vertex = tuple(
        sum(
            1
            for u in iter_bits(g.neighbor_mask(v))
            if u in members and (u in part.high) != (v in part.high)
        )
        for v in cyc
    )
    return in_high, in_low, per_vertex
