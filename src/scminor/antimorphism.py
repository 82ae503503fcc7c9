"""Antimorphisms of self-complementary graphs and their cycle structure.

An antimorphism is an isomorphism from a graph onto its complement: a vertex
permutation sending every edge to a non-edge and vice versa.  A graph admits
one iff it is self-complementary, which forces n = 4k or 4k + 1 and pins the
permutation's cycle structure (all nontrivial cycle lengths divisible by 4,
a single fixed point exactly when n = 4k + 1).
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
# records as NamedTuples: `check` runs this module, and dataclasses would
# load inspect and its imports into that process
from typing import NamedTuple

from .graphs import ConsistencyError, Graph, iter_bits


class Permutation:
    """Bijection on 0..n-1 stored as its image array of ints (``operator.index``)."""

    __slots__ = ("image",)

    def __init__(self, image: Sequence[int]):
        img = tuple(map(operator.index, image))
        if sorted(img) != list(range(len(img))):
            raise ValueError(f"{img!r} is not a bijection on 0..{len(img) - 1}")
        self.image = img

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for v, w in enumerate(self.image):
            inv[w] = v
        return Permutation(inv)

    def orbit(self, v: int) -> tuple[int, ...]:
        """The cycle through ``v``: (v, p(v), p(p(v)), ...)."""
        out = [v]
        w = self.image[v]
        while w != v:
            out.append(w)
            w = self.image[w]
        return tuple(out)

    def cycle_notation(self) -> str:
        """One-line cycle notation with fixed points explicit, e.g. "(0)(1 2 4 3)"."""
        dec = cycle_decomposition(self)
        parts = [(c[0], c) for c in dec.cycles]
        parts += [(f, (f,)) for f in dec.fixed_points]
        parts.sort()
        return "".join("(" + " ".join(str(v) for v in c) + ")" for _, c in parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)!r})"


class CycleDecomposition(NamedTuple):
    """Nontrivial cycles (min-label first, longest first) plus fixed points."""

    cycles: tuple[tuple[int, ...], ...]
    fixed_points: tuple[int, ...]


def cycle_decomposition(p: Permutation) -> CycleDecomposition:
    seen = [False] * p.n
    cycles = []
    fixed = []
    for v in range(p.n):
        if seen[v]:
            continue
        orb = p.orbit(v)
        for u in orb:
            seen[u] = True
        if len(orb) == 1:
            fixed.append(v)
        else:
            cycles.append(orb)
    cycles.sort(key=lambda c: (-len(c), c[0]))
    return CycleDecomposition(tuple(cycles), tuple(fixed))


def check_sachs(dec: CycleDecomposition) -> str | None:
    """The first broken condition of the forced cycle structure of an
    antimorphism on the n vertices ``dec`` covers, or None if it holds."""
    n = len(dec.fixed_points) + sum(map(len, dec.cycles))
    if n % 4 not in (0, 1):
        return f"n={n} is not 0 or 1 mod 4"
    for cyc in dec.cycles:
        if len(cyc) % 4 != 0:
            return f"cycle length {len(cyc)} is not divisible by 4"
    if len(dec.fixed_points) != n % 4:
        return (
            f"expected {n % 4} fixed point(s) for n={n}, "
            f"found {len(dec.fixed_points)}"
        )
    return None


def is_antimorphism(g: Graph, p: Permutation) -> bool:
    """True iff p maps every edge of g to a non-edge and vice versa."""
    if p.n != g.n:
        return False
    adj = g._adj
    img = p.image
    for u in range(g.n):
        au = adj[u]
        iu = img[u]
        ai = adj[iu]
        for v in range(u + 1, g.n):
            if ((au >> v) & 1) == ((ai >> img[v]) & 1):
                return False
    return True


def _pair_profiles_match(adj: Sequence[int]) -> bool:
    """True iff g and its complement have the same multiset of pair profiles.

    The profile of a pair u, v is (u ~ v, |N(u) & N(v)|).  In the complement
    the pair has adjacency 1 - e, with e = [u ~ v], and
    n - 2 - (deg u - e) - (deg v - e) + |N(u) & N(v)| common neighbours, so
    both multisets are counted in one pass over g's masks, g's profiles up
    and the complement's down; they match iff every count ends at zero.
    """
    n = len(adj)
    degrees = [a.bit_count() for a in adj]
    # a profile (e, c) is counted at index e * n + c, with c <= n - 2
    balance = [0] * (2 * n)
    for u in range(n):
        au = adj[u]
        base = n - 2 - degrees[u]
        for v in range(u + 1, n):
            common = (au & adj[v]).bit_count()
            if au >> v & 1:
                balance[n + common] += 1
                balance[base - degrees[v] + 2 + common] -= 1
            else:
                balance[common] += 1
                balance[n + base - degrees[v] + common] -= 1
    return not any(balance)


def _least_antimorphism(adj: Sequence[int]) -> list[int] | None:
    """The lexicographically least antimorphism's image array, or None.

    Backtracks over image assignments in vertex order 0..n-1, keeping for
    every unassigned vertex a bitmask domain of the images still possible.
    A vertex v starts with the vertices of degree n-1-deg(v).  Assigning
    v -> w forward-checks every later u: its domain keeps only non-neighbours
    of w if u ~ v, and only neighbours of w otherwise.  Neither mask holds w,
    so the images stay distinct, and a candidate that empties some domain is
    skipped at once.  Candidates are tried in ascending order; forward
    checking removes only candidates that no completion could use, so the
    first full assignment is the least one.

    One integer holds every domain: row u is bits u*W .. u*W+n-1, W = n+1,
    with the top bit kept 0.  ``near`` holds bit u*W iff u ~ v (column v of
    the symmetric row-packed adjacency), so ``near * nonadj[w] | far * adj[w]``
    narrows every row in one AND (rows up to v too, never read again).
    Adding 2^n - 1 to each row carries into its top bit iff the row is
    nonempty, so one addition tests every later domain.
    """
    n = len(adj)
    width = n + 1
    full = (1 << n) - 1
    nonadj = [full & ~(a | (1 << w)) for w, a in enumerate(adj)]
    by_degree: dict[int, int] = {}
    for w, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | (1 << w)
    ones = sum(1 << u * width for u in range(n))
    matrix = sum(a << u * width for u, a in enumerate(adj))
    domains = sum(by_degree.get(n - 1 - a.bit_count(), 0) << u * width for u, a in enumerate(adj))
    fill = ones * full
    image = [0] * n

    def assign(v: int, doms: int) -> bool:
        cand = doms >> v * width & full
        near = matrix >> v & ones
        far = ones ^ near
        # the top bits of rows v+1 .. n-1
        later = ones >> (v + 1) * width << (v + 1) * width + n
        while cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            image[v] = w
            if v == n - 1:
                return True
            nxt = doms & (near * nonadj[w] | far * adj[w])
            if (nxt + fill) & later == later and assign(v + 1, nxt):
                return True
        return False

    return image if assign(0, domains) else None


def find_antimorphism(g: Graph) -> Permutation | None:
    """The lexicographically least antimorphism; None iff g is not
    self-complementary.

    Exact tests run before the search.  n must be 0 or 1 mod 4 and g must
    have half of all n(n-1)/2 pairs as edges.  Then the multiset of pair
    profiles (u ~ v, |N(u) & N(v)|) over all vertex pairs of g must equal
    the one of the complement (``_pair_profiles_match``): an antimorphism
    carries each pair onto a pair of the complement with the same profile,
    so every self-complementary graph passes, and a mismatch proves g is
    not one.  The tests only decide whether the search runs, never what it
    returns, so the answer is the least image array of
    ``_least_antimorphism`` whenever it runs: one integer holds every
    domain as a row, narrowed by one AND and tested by one addition.
    """
    n = g.n
    if n % 4 in (2, 3):
        return None
    if 4 * g.num_edges != n * (n - 1):
        return None
    if n <= 1:
        return Permutation(range(n))
    if not _pair_profiles_match(g._adj):
        return None
    image = _least_antimorphism(g._adj)
    return None if image is None else Permutation(image)


class SidePartition(NamedTuple):
    """Degree split of a self-complementary graph on n = 4k vertices.

    ``high`` holds the 2k vertices of degree >= 2k, ``low`` the rest, and
    ``cross`` is the subgraph (on all n vertices) keeping exactly the edges
    with one endpoint on each side.
    """

    high: frozenset[int]
    low: frozenset[int]
    cross: Graph


def _degree_split(g: Graph, rho: Permutation, rest: int) -> int:
    """The high side of the degree split of g on ``rest``, as a mask.

    ``rest`` holds the n = 4k vertices that rho does not fix, and the high
    side is those with at least 2k neighbours in ``rest``.  The
    antimorphism swaps the two sides (so each has 2k vertices), and 2k^2
    edges of ``rest`` cross between them; the swap and the count are
    re-checked.
    """
    n = rest.bit_count()
    if n % 4 != 0:
        raise ValueError(f"degree split needs n = 4k, got n={n}")
    if not is_antimorphism(g, rho):
        raise ValueError("permutation is not an antimorphism of the graph")
    k = n // 4
    high = sum(1 << v for v in iter_bits(rest) if (g._adj[v] & rest).bit_count() >= 2 * k)
    low = rest & ~high
    cross = sum((g._adj[v] & low).bit_count() for v in iter_bits(high))
    if sum(1 << rho(v) for v in iter_bits(high)) != low or cross != 2 * k * k:
        raise ConsistencyError("rho does not swap the degree sides across 2k^2 cross edges")
    return high


def side_partition(g: Graph, rho: Permutation) -> SidePartition:
    """Split by the degree threshold (``_degree_split``) and collect the
    cross edges; the two induced halves are complements of each other
    under rho."""
    side = _degree_split(g, rho, (1 << g.n) - 1)
    cross = Graph._from_adj(
        m & ~side if side >> v & 1 else m & side for v, m in enumerate(g._adj)
    )
    high = frozenset(iter_bits(side))
    return SidePartition(high, frozenset(range(g.n)) - high, cross)


def _validate_cycle(p: Permutation, cycle: Sequence[int]) -> tuple[int, ...]:
    """``cycle`` as a tuple, once it is a nonempty cycle of ``p`` on vertices
    0..n-1 whose length is divisible by 4, as every cycle of an antimorphism
    is."""
    cyc = tuple(cycle)
    if not cyc:
        raise ValueError("empty cycle")
    size = len(cyc)
    for i, v in enumerate(cyc):
        if not 0 <= v < p.n:
            raise ValueError(f"vertex {v} out of range for n={p.n}")
        if p(v) != cyc[(i + 1) % size]:
            raise ValueError(f"{cyc!r} is not closed under the permutation")
    if size % 4 != 0:
        raise ValueError(f"cycle length {size} is not divisible by 4")
    return cyc


def cycle_side_counts(
    g: Graph, rho: Permutation, cycle: Sequence[int]
) -> tuple[int, int, tuple[int, ...]]:
    """Side membership and in-cycle cross degrees for one antimorphism cycle.

    A cycle of length 4m contributes 2m vertices to each side, and each of
    its vertices has exactly m neighbours inside the cycle on the opposite
    side.  Returns (count on high side, count on low side, per-vertex cross
    degree in cycle order).  The split is taken among the vertices that rho
    does not fix; ``_degree_split`` rejects a rho that is no antimorphism.
    """
    cyc = _validate_cycle(rho, cycle)
    rest = sum(1 << v for v, w in enumerate(rho.image) if v != w)
    high = _degree_split(g, rho, rest)
    members = sum(1 << v for v in cyc)
    in_high = (members & high).bit_count()
    per_vertex = tuple(
        (g._adj[v] & members & (~high if high >> v & 1 else high)).bit_count() for v in cyc
    )
    return in_high, len(cyc) - in_high, per_vertex
