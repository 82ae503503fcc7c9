"""Seeded input families.  Every graph is returned as adjacency masks.

The program under test never sees these objects: the runner hands it the
graph6 text of each one.  Draws are decided before any timing starts.
"""

from __future__ import annotations

import random

import scminor

import truth


def from_library(g: scminor.Graph) -> tuple[int, ...]:
    return truth.adjacency(g.n, g.edges())


def relabel(adj: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n) if (adj[u] >> v) & 1]
    return truth.adjacency(n, edges)


def random_sc(n: int, rng: random.Random) -> tuple[int, ...]:
    return from_library(scminor.random_sc(n, rng.randrange(2**32)))


def circulant(p: int, connection: set[int]) -> tuple[int, ...]:
    return truth.adjacency(p, [(i, (i + s) % p) for i in range(p) for s in connection if s < p - s])


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        if len({pow(g, i, p) for i in range(p - 1)}) == p - 1:
            return g
    raise ValueError(f"{p} is not prime")


def sc_circulant(p: int, rng: random.Random) -> tuple[int, ...]:
    """Random self-complementary circulant of prime order p = 1 mod 4.

    Take a = g^j with g a primitive root and j odd, so the order of a is a
    multiple of 4 and -1 is an even power of a.  On every coset of <a>,
    keep alternate elements: then a maps S onto its complement and S = -S.
    """
    a = pow(_primitive_root(p), rng.randrange(1, p - 1, 2), p)
    connection: set[int] = set()
    seen: set[int] = set()
    for x in range(1, p):
        if x in seen:
            continue
        parity = rng.getrandbits(1)
        y, step = x, 0
        while y not in seen:
            seen.add(y)
            if step % 2 == parity:
                connection.add(y)
            y, step = y * a % p, step + 1
    assert truth.circulant_is_sc(p, connection)
    return circulant(p, connection)


def non_sc_circulant(p: int, rng: random.Random) -> tuple[int, ...]:
    """Random (p-1)/2-regular circulant of prime order that is not SC."""
    while True:
        halves = list(range(1, (p - 1) // 2 + 1))
        rng.shuffle(halves)
        connection = {s for x in halves[: (p - 1) // 4] for s in (x, p - x)}
        if not truth.circulant_is_sc(p, connection):
            return circulant(p, connection)


def paley(q: int) -> tuple[int, ...]:
    """Paley graph of order q, for q prime or the square of a prime."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    if q == p:
        elements = [(x, 0) for x in range(p)]
        nonresidue = 0
    else:
        assert q == p * p
        nonresidue = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
        elements = [(x, y) for y in range(p) for x in range(p)]

    def mul(s, t):
        return ((s[0] * t[0] + nonresidue * s[1] * t[1]) % p, (s[0] * t[1] + s[1] * t[0]) % p)

    squares = {mul(e, e) for e in elements if e != (0, 0)}
    index = {e: i for i, e in enumerate(elements)}
    edges = [
        (index[s], index[t])
        for s in elements
        for t in elements
        if index[s] < index[t] and ((s[0] - t[0]) % p, (s[1] - t[1]) % p) in squares
    ]
    return truth.adjacency(q, edges)


SWAP_TRIES = 10_000


def swapped_sc(n: int, swaps: int, rng: random.Random) -> tuple[int, ...]:
    """A random SC graph after degree-preserving edge swaps, kept only when
    its triangle profile differs from its complement's (so it is not SC).
    A graph that admits no more swaps within a bounded number of tries is
    redrawn."""
    while True:
        adj = list(random_sc(n, rng))
        edges = sorted((u, v) for u in range(n) for v in range(u + 1, n) if (adj[u] >> v) & 1)
        done = tries = 0
        while done < swaps and tries < SWAP_TRIES:
            tries += 1
            (a, b), (c, d) = rng.sample(edges, 2)
            if len({a, b, c, d}) < 4 or (adj[a] >> c) & 1 or (adj[b] >> d) & 1:
                continue
            for u, v in ((a, b), (c, d)):
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            for u, v in ((a, c), (b, d)):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            edges.remove((a, b))
            edges.remove((c, d))
            edges += [(min(a, c), max(a, c)), (min(b, d), max(b, d))]
            done += 1
        result = tuple(adj)
        if done == swaps and truth.triangle_profile(result) != truth.triangle_profile(truth.complement(result)):
            return result
