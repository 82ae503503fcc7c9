"""Topological predicates driven by excluded minors.

Planarity is decided by one test on adjacency masks, which starts with
exact edge-count rules: fewer than 9 edges means planar (a non-planar graph
has a K5 or K3,3 minor, with 10 or 9 edges, and no minor has more edges
than its host), and more than 3n - 6 means not planar, n counting only the
vertices that have a neighbour (Euler's formula).  What the counts leave
open goes to path embedding.  Fewer than 6 edges means outerplanar (a
non-outerplanar graph has a K4 or K2,3 minor, with 6 edges each).  Beyond
that, a graph is outerplanar iff adding an apex joined to everything keeps
it planar; for g with m edges on n vertices, plus that apex, the rules
above read m > 2n - 3 (not outerplanar).  Excluded-minor witnesses are
read off a Kuratowski subgraph, found with one such test per vertex and
per edge of the graph with its degree-2 paths smoothed, and verified; no
exponential search runs for them.  Intrinsic linking and knotting are
reported as one-sided certificates: a complete minor of order 6 (resp. 7)
proves the property, its absence proves nothing, and the result type keeps
that distinction explicit.  In a report, "none found" for K6 (resp. K7) may
come from the apex search instead of the minor oracle: a j-apex graph has
no K_{5+j} minor, since deleting j vertices removes at most j branch sets
and a planar graph has no K5 minor.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .graphs import (
    DEFAULT_BUDGET,
    ConsistencyError,
    Graph,
    complete_bipartite,
    complete_graph,
    iter_bits,
    neighbourhood,
)
from .antimorphism import find_antimorphism
from .construction import MinorModel, build_plan, checked_model, realize_minor
from .oracle import BUDGET_EXCEEDED, YES, has_minor

CERTIFICATE = "certificate"
NONE_FOUND = "none_found"
INDETERMINATE = "indeterminate"

ORACLE_HOST_CAP = 13
APEX_CAP = 3


@dataclass(frozen=True)
class CertificateSearch:
    """Outcome of hunting one sufficient excluded-minor certificate.

    ``certificate`` carries a verified model of ``target``; ``none_found``
    means the search was exhaustive and is NOT a disproof of the topological
    property; ``indeterminate`` flags a budget or size limit.
    """

    status: str
    target: str | None = None
    model: MinorModel | None = None
    expansions: int = 0


def _blocks(adj: Sequence[int]) -> Iterator[int]:
    """The vertex masks of the biconnected blocks of the graph ``adj``.

    Tarjan's depth-first search on an explicit stack: a tree edge u-v whose
    subtree below v reaches no higher than u closes a block, made of u and
    the vertices stacked since v.  Two vertices share at most one block, so
    a block is the subgraph its vertices induce.
    """
    disc = [0] * len(adj)
    low = [0] * len(adj)
    clock = 0
    for root, nbrs in enumerate(adj):
        if disc[root] or not nbrs:
            continue
        clock += 1
        disc[root] = low[root] = clock
        stack, work = [root], [(root, nbrs)]
        while work:
            v, rest = work[-1]
            if rest:
                bit = rest & -rest
                work[-1] = v, rest ^ bit
                w = bit.bit_length() - 1
                if disc[w]:
                    low[v] = min(low[v], disc[w])
                else:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append(w)
                    work.append((w, adj[w] & ~(1 << v)))
                continue
            work.pop()
            if not work:
                continue
            u = work[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                block = 1 << u
                while not block >> v & 1:
                    block |= 1 << stack.pop()
                yield block


def _path(adj: Sequence[int], start: int, inside: int, goal: int) -> list[int]:
    """A shortest path from ``start`` through vertices of ``inside`` to a
    vertex of ``goal``, which must exist; ``start`` is not in ``goal``."""
    parent = {start: start}
    seen = 1 << start
    queue = [start]
    for v in queue:
        hit = adj[v] & goal
        if hit:
            walk = [(hit & -hit).bit_length() - 1, v]
            while v != start:
                v = parent[v]
                walk.append(v)
            return walk[::-1]
        fresh = adj[v] & inside & ~seen
        seen |= fresh
        for w in iter_bits(fresh):
            parent[w] = v
            queue.append(w)
    raise ConsistencyError("no path where a biconnected block has one")


def _fragments(
    adj: Sequence[int], block: int, hv: int, hadj: Sequence[int]
) -> Iterator[tuple[int, list[int] | int]]:
    """The fragments of a block relative to its embedded part H, with the
    mask of the H vertices each attaches to: first the chords of H, as the
    path of their two ends, then the components of the block minus H, as
    vertex masks.  H has vertex mask ``hv`` and adjacency ``hadj``."""
    for v in iter_bits(hv):
        rest = (adj[v] & hv & ~hadj[v]) >> (v + 1)
        for off in iter_bits(rest):
            yield 1 << v | 1 << (v + 1 + off), [v, v + 1 + off]
    left = block & ~hv
    while left:
        comp = frontier = left & -left
        while frontier:
            frontier = neighbourhood(adj, frontier) & left & ~comp
            comp |= frontier
        left &= ~comp
        yield neighbourhood(adj, comp) & hv, comp


def _block_planar(adj: Sequence[int], block: int) -> bool:
    """Path embedding of one biconnected block (Demoucron, Malgrange and
    Pertuiset, 1964).

    H starts as a cycle with two faces.  Each round lists the fragments of
    the block relative to H, and for each the faces whose vertices include
    all its attachments.  A fragment with no such face means the block is
    not planar; one with exactly one is embedded first, else any.  A path
    of the fragment between two of its attachments splits its face in two.
    H stays biconnected, so every face is a simple cycle, kept as a vertex
    list and a mask.
    """
    adj = [m & block if block >> v & 1 else 0 for v, m in enumerate(adj)]
    r = (block & -block).bit_length() - 1
    s = (adj[r] & -adj[r]).bit_length() - 1
    cycle = [r, *_path(adj, s, block & ~(1 << r), adj[r] & ~(1 << s))]
    hv = 0
    hadj = [0] * len(adj)
    for u, w in zip(cycle, cycle[1:] + cycle[:1]):
        hv |= 1 << u
        hadj[u] |= 1 << w
        hadj[w] |= 1 << u
    faces, masks = [cycle, cycle], [hv, hv]
    while True:
        best = None
        for touch, piece in _fragments(adj, block, hv, hadj):
            fits = [i for i, f in enumerate(masks) if touch & f == touch]
            if best is None or len(fits) < len(best[2]):
                best = touch, piece, fits
            if len(fits) < 2:
                break
        if best is None:
            return True
        touch, piece, fits = best
        if not fits:
            return False
        if isinstance(piece, int):
            a = (touch & -touch).bit_length() - 1
            into = adj[a] & piece
            start = (into & -into).bit_length() - 1
            piece = [a, *_path(adj, start, piece, touch & ~(1 << a))]
        face = faces[fits[0]]
        x, y = face.index(piece[0]), face.index(piece[-1])
        inner = piece[1:-1]
        if x > y:
            x, y, inner = y, x, inner[::-1]
        halves = face[x : y + 1] + inner[::-1], face[y:] + face[: x + 1] + inner
        faces[fits[0]], masks[fits[0]] = halves[0], sum(1 << v for v in halves[0])
        faces.append(halves[1])
        masks.append(sum(1 << v for v in halves[1]))
        for u, w in zip(piece, piece[1:]):
            hv |= 1 << w
            hadj[u] |= 1 << w
            hadj[w] |= 1 << u


def _planar_masks(adj: Sequence[int]) -> bool:
    """Exact planarity of the graph in which vertex v has neighbour mask adj[v].

    The edge-count rules of the module docstring come first; 9 edges need
    n >= 5, where Euler's formula holds.  Otherwise the graph is planar iff
    each of its biconnected blocks is.  A block on at most 4 vertices is
    planar, one with more than 3n - 6 edges is not, and the others go to
    ``_block_planar``.  That makes at most m - n + 1 rounds, each O(n + m)
    mask operations to list the fragments plus at most one comparison per
    fragment and face: O(n^3) on a block within the edge count, not linear
    time.  Measured against a pure-Python left-right test (Brandes, 2009),
    which is linear, it is as fast on 64-vertex maximal planar graphs and
    about six times faster on the 8- and 9-vertex graphs that the apex
    search asks about.
    """
    m = sum(a.bit_count() for a in adj) // 2
    if m < 9:
        return True
    if m > 3 * sum(1 for a in adj if a) - 6:
        return False
    for block in _blocks(adj):
        n = block.bit_count()
        if n <= 4:
            continue
        m = sum((adj[v] & block).bit_count() for v in iter_bits(block)) // 2
        if m > 3 * n - 6 or not _block_planar(adj, block):
            return False
    return True


def _masks(g: Graph, apex: bool) -> Sequence[int]:
    """The adjacency masks of g, plus vertex g.n joined to all of g if ``apex``."""
    if not apex:
        return g._adj
    return [a | 1 << g.n for a in g._adj] + [(1 << g.n) - 1]


def is_planar(g: Graph) -> bool:
    return _planar_masks(g._adj)


def is_outerplanar(g: Graph) -> bool:
    """True iff g embeds with all vertices on the outer face.

    Fewer than 6 edges is outerplanar; otherwise this is planarity of g with
    one extra vertex joined to all of g.  The apex exists only in the
    adjacency masks tested, so a 64-vertex g works.
    """
    if g.num_edges < 6:
        return True
    return _planar_masks(_masks(g, apex=True))


def _smoothed_paths(adj: Sequence[int]) -> dict[tuple[int, int], list[int]]:
    """The paths between vertices of degree >= 3 through vertices of degree 2.

    Keyed by their ends, lesser first, with the inner vertices listed from
    that end.  A loop, or a second path between the same ends, is left out.
    Every vertex must have degree 0 or >= 2, so each walk ends at a branch vertex.
    """
    paths: dict[tuple[int, int], list[int]] = {}
    for u, nbrs in enumerate(adj):
        if nbrs.bit_count() < 3:
            continue
        for v in iter_bits(nbrs):
            prev, inner = u, []
            while adj[v].bit_count() == 2:
                inner.append(v)
                prev, v = v, (adj[v] & ~(1 << prev)).bit_length() - 1
            if u < v:
                paths.setdefault((u, v), inner)
    return paths


def _kuratowski_subgraph(adj: Sequence[int]) -> list[int] | None:
    """An edge-minimal non-planar subgraph of ``adj``, or None if it is planar.

    Such a subgraph is a subdivision of K5 or K3,3.  Neither removing a
    vertex of degree <= 1 nor smoothing a path through vertices of degree 2
    into one edge changes planarity (nor does dropping a loop or a parallel
    path), so the graph is reduced that way first.  Then each vertex, and
    after that each edge, of the reduced graph is removed in ascending order
    unless that makes it planar, by one ``_planar_masks`` test each (none
    for a vertex with no edges left).  An edge kept is needed, and stays so as others go, so one pass leaves a
    minimal subgraph.  Its edges are expanded back into their paths.
    """
    core = (1 << len(adj)) - 1
    while True:
        low = sum(1 << v for v in iter_bits(core) if (adj[v] & core).bit_count() < 2)
        if not low:
            break
        core &= ~low
    paths = _smoothed_paths([m & core if core >> v & 1 else 0 for v, m in enumerate(adj)])
    reduced = [0] * len(adj)

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
        if nbrs and _planar_masks(reduced):
            for w in iter_bits(nbrs):
                toggle(v, w)
    for u, w in sorted(paths):
        if reduced[u] >> w & 1:
            toggle(u, w)
            if _planar_masks(reduced):
                toggle(u, w)
    sub = [0] * len(adj)
    for (u, w), inner in paths.items():
        if reduced[u] >> w & 1:
            walk = [u, *inner, w]
            for a, b in zip(walk, walk[1:]):
                sub[a] |= 1 << b
                sub[b] |= 1 << a
    return sub


def _kuratowski_witness(g: Graph, apex: bool) -> CertificateSearch:
    """A verified K5 or K3,3 minor of g, or with ``apex`` a K4 or K2,3 one.

    The Kuratowski subgraph is taken from ``_masks(g, apex)``: g, plus the
    apex, vertex g.n, joined to all of g if ``apex``.  Its branch vertices
    are those of degree at least 3; the inner vertices of each subdivided
    path join the branch set of the path's lesser end, so every set is
    connected and every path joins two sets.  With ``apex`` one set is
    dropped: the one holding the apex, else the last.  That leaves K4 of
    K5 and K2,3 of K3,3, and no kept set holds the apex: as the greatest
    label it is a branch vertex alone or an inner vertex of a path, which
    belongs to that path's lesser end.
    """
    sub = _kuratowski_subgraph(_masks(g, apex))
    if sub is None:
        return CertificateSearch(NONE_FOUND)
    paths = _smoothed_paths(sub)
    branch = sorted({b for ends in paths for b in ends})
    sets = {b: 1 << b for b in branch}
    for (u, _), inner in paths.items():
        sets[u] |= sum(1 << v for v in inner)
    if apex:
        branch.remove(next((b for b in branch if sets[b] >> g.n & 1), branch[-1]))
    if len(sets) == 5:
        name, target = ("K4", complete_graph(4)) if apex else ("K5", complete_graph(5))
    else:
        # the parts of K3,3 (K2,3 with ``apex``), the smaller first
        first = branch[0]
        part = [b for b in branch if (min(first, b), max(first, b)) not in paths]
        rest = [b for b in branch if b not in part]
        branch = part + rest if len(part) <= len(rest) else rest + part
        name, target = ("K2,3", complete_bipartite(2, 3)) if apex else ("K3,3", complete_bipartite(3, 3))
    model = checked_model(g, MinorModel(tuple(sets[b] for b in branch)), target, "Kuratowski witness")
    return CertificateSearch(CERTIFICATE, name, model)


def nonplanarity_witness(g: Graph) -> CertificateSearch:
    """A verified K5 or K3,3 minor; one exists in every non-planar graph.

    Read off a Kuratowski subgraph without search, so the status is never
    indeterminate.
    """
    return _kuratowski_witness(g, apex=False)


def nonouterplanarity_witness(g: Graph) -> CertificateSearch:
    """A verified K4 or K2,3 minor; one exists in every non-outerplanar graph.

    Read off a Kuratowski subgraph of g plus an apex, without search, so the
    status is never indeterminate.
    """
    return _kuratowski_witness(g, apex=True)


def _constructive_model(g: Graph, order: int) -> MinorModel | None:
    """Verified K_floor((n+1)/2) model of an SC g, else None; no search runs
    when floor((n+1)/2) < ``order``, as the caller could not use its answer."""
    if (g.n + 1) // 2 < order:
        return None
    rho = find_antimorphism(g)
    return None if rho is None else realize_minor(g, build_plan(g, rho))


def _complete_certificate(
    g: Graph,
    order: int,
    budget: int,
    model: MinorModel | None,
    deleted: frozenset[int] | None = None,
) -> CertificateSearch:
    """Verified complete minor of the given order, constructively when possible.

    A ``model`` with at least ``order`` branch sets skips the oracle: the
    certificate is its first ``order`` branch sets, verified again.  A
    planarising deletion set ``deleted`` of at most ``order - 5`` vertices
    answers none found, as no K_order minor survives it.
    """
    name = f"K{order}"
    if model is not None and model.k >= order:
        prefix = MinorModel(model.masks[:order])
        checked_model(g, prefix, complete_graph(order), "trimmed constructive certificate")
        return CertificateSearch(CERTIFICATE, name, prefix)
    if deleted is not None and len(deleted) <= order - 5:
        return CertificateSearch(NONE_FOUND, name)
    if g.n > ORACLE_HOST_CAP:
        return CertificateSearch(INDETERMINATE, name)
    outcome = has_minor(g, complete_graph(order), budget)
    if outcome.answer == YES:
        return CertificateSearch(CERTIFICATE, name, outcome.model, outcome.expansions)
    status = INDETERMINATE if outcome.answer == BUDGET_EXCEEDED else NONE_FOUND
    return CertificateSearch(status, name, None, outcome.expansions)


def il_certificate(g: Graph, budget: int = DEFAULT_BUDGET) -> CertificateSearch:
    """Sufficient certificate that g is intrinsically linked: a K6 minor.

    No apex search runs here, unlike in ``report``, so a host above
    ``ORACLE_HOST_CAP`` that the constructive model does not settle stays
    indeterminate.
    """
    return _complete_certificate(g, 6, budget, _constructive_model(g, 6))


def ik_certificate(g: Graph, budget: int = DEFAULT_BUDGET) -> CertificateSearch:
    """Sufficient certificate that g is intrinsically knotted: a K7 minor.

    As with ``il_certificate``, no apex search runs here.
    """
    return _complete_certificate(g, 7, budget, _constructive_model(g, 7))


def _check_apex_parameter(j: int) -> None:
    if j < 0:
        raise ValueError(f"apex parameter must be >= 0, got {j}")
    if j > APEX_CAP:
        raise ValueError(f"apex search is capped at j <= {APEX_CAP}, got {j}")


def is_n_apex(g: Graph, j: int) -> tuple[bool, frozenset[int] | None]:
    """Can deleting at most j vertices make g planar?

    Returns the first (smallest, then lexicographically least) working
    deletion set as a witness.  j = 0 is exactly a planarity test.  A
    deleted vertex stays in the graph tested, with its edges cleared.
    """
    _check_apex_parameter(j)
    for size in range(min(j, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            gone = sum(1 << v for v in combo)
            rest = Graph._from_adj(0 if gone >> v & 1 else a & ~gone for v, a in enumerate(g._adj))
            if is_planar(rest):
                return True, frozenset(combo)
    return False, None


@dataclass(frozen=True)
class TopologyReport:
    outerplanar: bool
    planar: bool
    il_certificate: CertificateSearch
    ik_certificate: CertificateSearch
    apex_numbers: tuple[bool, ...]

    def to_json_dict(self) -> dict:
        def cert(c: CertificateSearch) -> dict:
            return {
                "status": c.status,
                "target": c.target,
                "model": None if c.model is None else c.model.to_json_dict(),
            }

        return {
            "outerplanar": self.outerplanar,
            "planar": self.planar,
            "il_certificate": cert(self.il_certificate),
            "ik_certificate": cert(self.ik_certificate),
            "apex_numbers": {str(j): v for j, v in enumerate(self.apex_numbers)},
        }


def report(g: Graph, apex: int = 2, budget: int = DEFAULT_BUDGET) -> TopologyReport:
    """Aggregate the topology predicates and re-check their consistency.

    ``apex_numbers[j]`` answers whether g is j-apex, for j = 0..``apex``.
    An SC g with floor((n+1)/2) >= 6 gets one constructive model, and its
    IL/IK certificates are the model's first 6 and 7 branch sets where it
    has that many.  A verified K_t model with t >= 5 + j proves that g is
    not j-apex: deleting j vertices removes at most j branch sets, so a K5
    minor survives.  One ``is_n_apex`` call at j = ``apex`` if that is open,
    else at j = 0 (a planarity test), answers planarity and every open j: its
    deletion set is a smallest one.  The search runs before any oracle
    certificate, and the same argument turns it around: a deletion set of at
    most 1 (resp. 2) vertices means no K6 (resp. K7) minor, answered none
    found.  The oracle runs only for the orders the model and the set leave open.
    """
    _check_apex_parameter(apex)
    outer = is_outerplanar(g)
    model = _constructive_model(g, 6)
    t = 0 if model is None else model.k
    # the search tests g itself first, so it answers planarity too
    _, deleted = is_n_apex(g, apex if t < 5 + apex else 0)
    planar = deleted == frozenset()
    apex_numbers = tuple(
        t < 5 + j and deleted is not None and len(deleted) <= j for j in range(apex + 1)
    )
    il = _complete_certificate(g, 6, budget, model, deleted)
    ik = _complete_certificate(g, 7, budget, model, deleted)
    if ik.status == CERTIFICATE and il.status == NONE_FOUND:
        raise ConsistencyError("complete minor of order 7 without one of order 6")
    if outer and not planar:
        raise ConsistencyError("outerplanar graph reported non-planar")
    if apex_numbers[0] != planar:
        raise ConsistencyError("0-apex answer disagrees with planarity")
    return TopologyReport(outer, planar, il, ik, apex_numbers)
