"""Bitset-backed simple graphs: core operations, the standard families,
graph6 I/O, canonical forms.

Vertices are always labelled 0..n-1 and adjacency is stored as one bitmask
per vertex, so edge queries and neighbourhood intersections are single word
operations.  Graphs are immutable once built; every operation returns a new
graph, which makes everything in this package safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

MAX_VERTICES = 64
CANONICAL_CAP = 16
GRAPH6_MAX = 62
# ASCII whitespace, the only bytes ignored around a graph6 string; str.strip()
# would also drop 0x1c-0x1f, 0x85 and 0xa0, which are not graph6 bytes.
GRAPH6_WHITESPACE = " \t\n\r\x0b\x0c"
# Expansion budget of every minor search, here so that a caller can name it
# without loading the oracle.
DEFAULT_BUDGET = 10**8


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class CapacityError(ValueError):
    """Input exceeds a documented size cap."""


class ConsistencyError(RuntimeError):
    """An internal invariant that should be unbreakable was broken.

    Raised when a construction step contradicts something the surrounding
    mathematics guarantees; seeing one is a bug certificate, not a user error.
    """


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a non-negative ``mask`` in increasing order."""
    if mask < 0:  # infinitely many set bits
        raise ValueError(f"negative mask {mask} has no finite set of bits")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_order(n: int) -> None:
    """Reject a vertex count that no Graph can have."""
    if n < 0:
        raise ValueError(f"vertex count must be >= 0, got {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}")


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        check_order(n)
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

    def _check_vertices(self, *vertices: int) -> None:
        """Reject a vertex outside 0..n-1, which would index ``_adj`` from
        the end or past it."""
        for v in vertices:
            if not 0 <= v < self.n:
                what = f"vertex {v}" if len(vertices) == 1 else f"vertex pair {vertices}"
                raise ValueError(f"{what} out of range for n={self.n}")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertices(u, v)
        return bool((self._adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        self._check_vertices(v)
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertices(v)
        return tuple(iter_bits(self._adj[v]))

    def neighbor_mask(self, v: int) -> int:
        self._check_vertices(v)
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


# -- standard families -------------------------------------------------------


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
    kept = 0
    for v in keep:
        g._check_vertices(v)
        kept |= 1 << v
    # squeeze each dropped bit out of every kept mask, highest first, so the
    # lower positions still to be dropped stay where they are
    dropped = [v for v in range(g.n - 1, -1, -1) if not kept >> v & 1]
    adj = []
    for v in keep:
        m = g._adj[v] & kept
        for d in dropped:
            m = m & ((1 << d) - 1) | m >> (d + 1) << d
        adj.append(m)
    return Graph._from_adj(adj), {old: new for new, old in enumerate(keep)}


def neighbourhood(adj: Sequence[int], mask: int) -> int:
    """N(mask) minus mask: a set disjoint from ``mask`` touches it iff it meets this."""
    out = 0
    for v in iter_bits(mask):
        out |= adj[v]
    return out & ~mask


def mask_is_connected(g: Graph, mask: int) -> bool:
    """True iff the vertices of the nonempty ``mask`` induce a connected subgraph."""
    reach = mask & -mask
    while True:
        grown = reach
        for v in iter_bits(reach):
            grown |= g._adj[v] & mask
        if grown == reach:
            return reach == mask
        reach = grown


# -- graph6 interchange ------------------------------------------------------
#
# Byte layout: chr(63 + n), then ceil(n(n-1)/2 / 6) bytes each holding six
# bits of the upper adjacency triangle in column order
# (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),..., most significant bit first,
# zero-padded at the end.


def _pack_graph6(n: int, columns: Iterable[str]) -> str:
    """graph6 text of an n-vertex graph from its columns c = 1..n-1, each
    given as the text of its c bits, pair (0, c) first."""
    bits = "".join(columns)
    bits += "0" * (-len(bits) % 6)
    return chr(63 + n) + "".join(
        [chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6)]
    )


def write_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX:
        raise CapacityError(f"graph6 short form supports n <= {GRAPH6_MAX}, got {g.n}")
    adj = g._adj
    return _pack_graph6(
        g.n, (format(adj[c] & ((1 << c) - 1), f"0{c}b")[::-1] for c in range(1, g.n))
    )


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string, ignoring ``GRAPH6_WHITESPACE`` around it."""
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
    pad = 6 * need - npairs
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    # Row c of ``square`` is triangle column c padded to n bits, so v's
    # neighbours below v are row v of the square and those above it column v.
    triangle = format(bits >> pad, f"0{npairs}b") if npairs else ""
    square = "".join(
        triangle[c * (c - 1) // 2 : c * (c + 1) // 2].ljust(n, "0") for c in range(n)
    )
    return Graph._from_adj(
        int(square[v * n : v * n + n][::-1], 2) | int(square[v::n][::-1], 2)
        for v in range(n)
    )


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

    Two rules shrink the search without changing the minimum:

    - Twins (N(v) - {w} = N(w) - {v}) are interchanged by an automorphism
      that fixes every other vertex, so their subtrees give the same block
      strings: each node descends into one vertex per twin class.
    - When the unplaced rest of a colour class is an independent set or a
      clique, and its members have the same neighbours among the placed
      vertices, every order of it gives the same blocks.  It is placed at
      once as a cell whose order is left open.  A later vertex's bits over
      an open cell are least with its non-neighbours first, so placing the
      vertex splits each open cell into non-neighbours, then neighbours.
    """
    n = g.n
    if n > CANONICAL_CAP:
        raise CapacityError(f"canonical form supports n <= {CANONICAL_CAP}, got {n}")
    colors = _refined_colors(g)
    adj = g._adj
    class_mask: dict[int, int] = {}
    # Keyed by open and by closed neighbourhood: N(v) never equals N[w],
    # since w in N(v) would put v in N[w], and v is not in N(v).
    twin_mask: dict[int, int] = {}
    for v in range(n):
        class_mask[colors[v]] = class_mask.get(colors[v], 0) | 1 << v
        for key in (adj[v], adj[v] | 1 << v):
            twin_mask[key] = twin_mask.get(key, 0) | 1 << v
    target = [class_mask[c] for c in sorted(colors)]
    twins = [twin_mask[adj[v]] | twin_mask[adj[v] | 1 << v] for v in range(n)]

    best: list[int] = []  # empty until the first leaf, when n > 0
    blocks: list[int] = []

    def split(cells: list[int], m: int, cell: int) -> list[int]:
        """cells with each open cell split by m, then the new cell."""
        out = []
        for c in cells:
            if c & (c - 1) and c & m and c & ~m:
                out += (c & ~m, c & m)
            else:
                out.append(c)
        out.append(cell)
        return out

    def descend(depth: int, cells: list[int], placed: int) -> None:
        # cells: the placed vertices in position order, as masks; a cell of
        # several vertices is open.  A vertex's bits over an open cell are
        # its non-neighbours' zeros, then its neighbours' ones.
        # A branch is cut only where blocks == best[:depth] and its next
        # block, or an open cell's forced blocks, exceed the best's there;
        # below the best's prefix, the first leaf reached replaces the best.
        nonlocal best
        if depth == n:
            if not best or blocks < best:
                best = blocks.copy()
            return
        rest = target[depth] & ~placed
        ranked = []
        for v in iter_bits(rest):
            m = adj[v]
            block = 0
            for cell in cells:
                block = (block << cell.bit_count()) | ((1 << (m & cell).bit_count()) - 1)
            ranked.append((block, v))
        low = rest & -rest
        first = low.bit_length() - 1
        clique = adj[first] & rest == rest & ~low
        uniform = rest != low and (clique or adj[first] & rest == 0)
        if uniform:
            seen = adj[first] & placed
            for _, v in ranked:
                if adj[v] & placed != seen or adj[v] & rest != (rest & ~(1 << v) if clique else 0):
                    uniform = False
                    break
        if uniform:
            size = rest.bit_count()
            base = ranked[0][0]  # every member's bits over the placed cells
            forced = [(base << i) | ((1 << i) - 1 if clique else 0) for i in range(size)]
            if best and blocks == best[:depth] and forced > best[depth : depth + size]:
                return
            blocks.extend(forced)
            descend(depth + size, split(cells, adj[first], rest), placed | rest)
            del blocks[depth:]
            return
        tried = 0
        ranked.sort()
        for block, v in ranked:
            if best and block > best[depth] and blocks == best[:depth]:
                break
            if twins[v] & tried:
                continue
            tried |= 1 << v
            blocks.append(block)
            descend(depth + 1, split(cells, adj[v], 1 << v), placed | 1 << v)
            blocks.pop()

    descend(0, [], 0)
    # block i is column i of the graph6 upper triangle, position 0 first
    columns = (format(best[i], f"0{i}b") for i in range(1, n))
    return _pack_graph6(n, columns).encode("ascii")
