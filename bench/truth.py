"""Answer checks that do not use scminor's own verification code.

Graphs here are tuples of per-vertex neighbour bitmasks.  Every check
returns ``None`` when the answer holds and a short reason when it does not.
"""

from __future__ import annotations


def adjacency(n: int, edges) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def edge_count(adj: tuple[int, ...]) -> int:
    return sum(m.bit_count() for m in adj) // 2


def complement(adj: tuple[int, ...]) -> tuple[int, ...]:
    full = (1 << len(adj)) - 1
    return tuple(full & ~m & ~(1 << v) for v, m in enumerate(adj))


def _connected(adj: tuple[int, ...], members: int) -> bool:
    start = members & -members
    reached = start
    frontier = start
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        fresh = adj[v] & members & ~reached
        reached |= fresh
        frontier |= fresh
    return reached == members


def clique_model_error(adj: tuple[int, ...], branch_sets, k: int) -> str | None:
    """Check a K_k minor model: k disjoint, nonempty, connected, pairwise
    adjacent branch sets of vertices of the host."""
    n = len(adj)
    if len(branch_sets) != k:
        return f"{len(branch_sets)} branch sets, expected {k}"
    masks = []
    used = 0
    for s in branch_sets:
        mask = 0
        for v in s:
            if not (isinstance(v, int) and 0 <= v < n):
                return f"vertex {v!r} outside the host"
            mask |= 1 << v
        if not mask or mask.bit_count() != len(s):
            return "empty branch set or repeated vertex"
        if mask & used:
            return "branch sets overlap"
        if not _connected(adj, mask):
            return f"branch set {sorted(s)} is not connected"
        used |= mask
        masks.append(mask)
    reach = []
    for mask in masks:
        nbrs = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nbrs |= adj[v]
        reach.append(nbrs)
    for i in range(k):
        for j in range(i + 1, k):
            if not reach[i] & masks[j]:
                return f"branch sets {i} and {j} are not adjacent"
    return None


def parse_cycles(text: str, n: int) -> list[int] | None:
    """Image array of a permutation written as "(0 1 3 2)(4)", or None."""
    image = [-1] * n
    for chunk in text.replace(")", " ").split("("):
        cycle = chunk.split()
        if not cycle:
            continue
        try:
            verts = [int(x) for x in cycle]
        except ValueError:
            return None
        for i, v in enumerate(verts):
            if not 0 <= v < n or image[v] != -1:
                return None
            image[v] = verts[(i + 1) % len(verts)]
    return image if -1 not in image else None


def antimorphism_error(adj: tuple[int, ...], image: list[int] | None) -> str | None:
    """Check that ``image`` sends every edge to a non-edge and back."""
    if image is None:
        return "rho is not a permutation of the vertices"
    n = len(adj)
    for u in range(n):
        for v in range(u + 1, n):
            if (adj[u] >> v) & 1 == (adj[image[u]] >> image[v]) & 1:
                return f"rho keeps the adjacency of ({u}, {v})"
    return None


def circulant_is_sc(p: int, connection: set[int]) -> bool:
    """Multiplier criterion for prime order (Turner 1967): the circulant
    C(p, S) is self-complementary iff some unit a maps S onto Z_p* minus S."""
    rest = set(range(1, p)) - connection
    return any({a * s % p for s in connection} == rest for a in range(2, p))


def triangle_profile(adj: tuple[int, ...]) -> list[int]:
    """Sorted per-vertex triangle counts, an isomorphism invariant."""
    counts = []
    for v, m in enumerate(adj):
        t = 0
        rest = m
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            t += (adj[u] & m).bit_count()
        counts.append(t // 2)
    return sorted(counts)


def decode_graph6(text: str) -> tuple[int, ...]:
    """Adjacency masks of a short-form graph6 string (n <= 62)."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if bits[pos]:
                edges.append((row, col))
            pos += 1
    return adjacency(n, edges)


def encode_graph6(adj: tuple[int, ...]) -> str:
    n = len(adj)
    bits = [(adj[row] >> col) & 1 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)
