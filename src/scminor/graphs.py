"""Bitset-backed simple graphs: core operations, graph6 I/O, canonical forms.

Vertices are always labelled 0..n-1 and adjacency is stored as one bitmask
per vertex, so edge queries and neighbourhood intersections are single word
operations.  Graphs are immutable once built; every operation returns a new
graph, which makes everything in this package safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

MAX_VERTICES = 64
CANONICAL_CAP = 16
GRAPH6_MAX = 62


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class MatchingError(ValueError):
    """A claimed matching is not a set of pairwise disjoint host edges."""


class CapacityError(ValueError):
    """Input exceeds a documented size cap."""


class ConsistencyError(RuntimeError):
    """An internal invariant that should be unbreakable was broken.

    Raised when a construction step contradicts something the surrounding
    mathematics guarantees; seeing one is a bug certificate, not a user error.
    """


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if n > MAX_VERTICES:
            raise CapacityError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_adj(cls, adj: Iterable[int]) -> "Graph":
        masks = tuple(adj)
        g = object.__new__(cls)
        g.n = len(masks)
        g._adj = masks
        return g

    # -- queries ----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range for n={self.n}")
        return bool((self._adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self._adj[v]))

    def neighbor_mask(self, v: int) -> int:
        return self._adj[v]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            for off in iter_bits(rest):
                out.append((u, u + 1 + off))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


# -- elementary operations --------------------------------------------------


def complement(g: Graph) -> Graph:
    """Same vertices, exactly the non-edges of ``g``."""
    full = (1 << g.n) - 1
    adj = [(~g._adj[v] & full) & ~(1 << v) for v in range(g.n)]
    return Graph._from_adj(adj)


def induced_subgraph(
    g: Graph, vertices: Iterable[int]
) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``vertices``, relabelled to 0..k-1 in ascending order.

    Returns the subgraph and the old-label -> new-label map.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    relabel = {old: new for new, old in enumerate(keep)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in g.edges()
        if u in relabel and v in relabel
    ]
    return Graph(len(keep), edges), relabel


def contract_matching(
    g: Graph, matching: Iterable[tuple[int, int]]
) -> tuple[Graph, dict[int, int]]:
    """Contract a set of pairwise disjoint edges, keeping the result simple.

    Matched pairs become vertices 0..m-1 in matching order; unmatched vertices
    follow in ascending order.  Returns the contracted graph and the branch
    map old-vertex -> new-vertex.
    """
    pairs = [tuple(e) for e in matching]
    label: dict[int, int] = {}
    for i, pair in enumerate(pairs):
        if len(pair) != 2:
            raise MatchingError(f"matching entry {pair!r} is not a vertex pair")
        u, v = pair
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v or not g.has_edge(u, v):
            raise MatchingError(f"({u}, {v}) is not an edge of the host graph")
        if u in label or v in label:
            raise MatchingError(f"edge ({u}, {v}) overlaps an earlier matching edge")
        label[u] = label[v] = i
    nxt = len(pairs)
    for v in range(g.n):
        if v not in label:
            label[v] = nxt
            nxt += 1
    edges = set()
    for u, v in g.edges():
        a, b = label[u], label[v]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(nxt, edges), label


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of ``g1`` and ``g2`` plus all cross edges."""
    n1 = g1.n
    edges = list(g1.edges())
    edges += [(u + n1, v + n1) for u, v in g2.edges()]
    edges += [(u, v + n1) for u in range(n1) for v in range(g2.n)]
    return Graph(n1 + g2.n, edges)


def mask_is_connected(g: Graph, mask: int) -> bool:
    """True iff the vertices of ``mask`` induce a connected nonempty subgraph."""
    if mask == 0:
        return False
    reach = mask & -mask
    while True:
        grown = reach
        for v in iter_bits(reach):
            grown |= g._adj[v] & mask
        if grown == reach:
            return reach == mask
        reach = grown


def is_connected_subset(g: Graph, vertices: Iterable[int]) -> bool:
    mask = 0
    for v in vertices:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask_is_connected(g, mask)


# -- graph6 interchange ------------------------------------------------------
#
# Byte layout: chr(63 + n), then ceil(n(n-1)/2 / 6) bytes each holding six
# bits of the upper adjacency triangle in column order
# (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),..., most significant bit first,
# zero-padded at the end.


def write_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX:
        raise CapacityError(f"graph6 short form supports n <= {GRAPH6_MAX}, got {g.n}")
    out = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for col in range(1, g.n):
        for row in range(col):
            acc = (acc << 1) | ((g._adj[row] >> col) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
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


# -- canonical forms ---------------------------------------------------------


def _refined_colors(g: Graph) -> tuple[int, ...]:
    """Stable neighbourhood-refinement colouring, invariant under relabelling."""
    n = g.n
    colors = [0] * n
    nclasses = 1
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in iter_bits(g._adj[v]))))
            for v in range(n)
        ]
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if len(table) == nclasses:
            return tuple(new)
        nclasses = len(table)
        colors = new


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic.

    Minimizes the adjacency bit string over all labelings that list the
    refinement colour classes in sorted order, by branch and bound.  The
    result is the graph6 encoding of the canonically relabelled graph.
    """
    n = g.n
    if n > CANONICAL_CAP:
        raise CapacityError(f"canonical form supports n <= {CANONICAL_CAP}, got {n}")
    if n <= 1:
        return write_graph6(g).encode("ascii")
    colors = _refined_colors(g)
    order = sorted(range(n), key=lambda v: (colors[v], v))
    target = [colors[v] for v in order]
    adj = g._adj

    best: list[int] | None = None
    placed: list[int] = []
    blocks: list[int] = []
    used = [False] * n
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)

    def descend(depth: int, on_best_prefix: bool) -> None:
        # on_best_prefix: blocks so far equal the current best's prefix, so
        # comparisons against best[depth] may prune; the leaf always does a
        # full lexicographic comparison, keeping stale prefix flags harmless.
        nonlocal best
        if depth == n:
            if best is None or blocks < best:
                best = blocks.copy()
            return
        ranked = []
        for v in by_color[target[depth]]:
            if used[v]:
                continue
            m = adj[v]
            block = 0
            for p in placed:
                block = (block << 1) | ((m >> p) & 1)
            ranked.append((block, v))
        ranked.sort()
        for block, v in ranked:
            if on_best_prefix and best is not None and block > best[depth]:
                break
            child_on_prefix = on_best_prefix and (best is None or block == best[depth])
            used[v] = True
            placed.append(v)
            blocks.append(block)
            descend(depth + 1, child_on_prefix)
            used[v] = False
            placed.pop()
            blocks.pop()

    descend(0, True)
    assert best is not None
    edges = []
    for i in range(1, n):
        row = best[i]
        for j in range(i):
            if (row >> (i - 1 - j)) & 1:
                edges.append((j, i))
    return write_graph6(Graph(n, edges)).encode("ascii")
