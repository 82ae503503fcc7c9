"""Exact minor containment and Hadwiger numbers by branch and bound.

This is the independent ground truth the constructive certificates are
checked against, so it favours simplicity over cleverness.  One anchored
search serves every target: the least still-available host vertex either
starts the branch set of an unplaced target vertex, as a connected subset
of the available vertices, or it is discarded, so each branch-set family
is visited once.  Complete targets first look for a clique subgraph.  All
work is metered against an explicit expansion budget; running out is
reported as its own outcome and is never silently converted to "no".

Two sound rules cut the tree.  Twins (N(u) - v == N(v) - u) can trade
branch sets, so only the least unplaced member of a twin class is tried;
on K_k all vertices are twins.  Reach: each placed branch set B carries
N(B) minus B, which a disjoint candidate touches iff it meets it, and a
node is dropped once some B has fewer neighbours in ``avail`` than its
target vertex has unplaced target neighbours, whose sets are disjoint
subsets of ``avail`` that must each contain a neighbour of B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import DEFAULT_BUDGET, Graph, complete_graph, iter_bits, neighbourhood
from .construction import MinorModel, checked_model

YES = "yes"
NO = "no"
BUDGET_EXCEEDED = "budget_exceeded"


class _OutOfBudget(Exception):
    pass


class _Budget:
    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError(f"budget must be positive, got {limit}")
        self.limit = limit
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise _OutOfBudget


@dataclass(frozen=True)
class MinorOutcome:
    answer: str  # YES, NO, or BUDGET_EXCEEDED
    model: MinorModel | None
    expansions: int


@dataclass(frozen=True)
class HadwigerOutcome:
    """Largest verified complete-minor order, with exactness bookkeeping.

    ``value`` is always a proven lower bound with ``witness`` as evidence;
    when ``exact`` the next order up was exhaustively refuted and
    ``upper_bound == value``, otherwise the budget ran out and
    ``upper_bound`` falls back to the vertex count.
    """

    value: int
    witness: MinorModel | None
    exact: bool
    upper_bound: int
    expansions: int


def _connected_sets(adj, anchor: int, region: int, max_size: int, budget: _Budget):
    """All connected subsets of ``region`` containing ``anchor``, each once,
    of at most ``max_size >= 1`` vertices; ``anchor`` must lie in ``region``."""

    def grow(current: int, size: int, cand: int, banned: int):
        budget.spend()
        yield current
        if size >= max_size:
            return
        todo = cand & ~banned
        while todo:
            low = todo & -todo
            todo ^= low
            u = low.bit_length() - 1
            bigger = current | low
            newcand = (cand | (adj[u] & region)) & ~bigger & ~banned
            yield from grow(bigger, size + 1, newcand, banned)
            banned |= low

    start = 1 << anchor
    yield from grow(start, 1, adj[anchor] & region & ~start, 0)


def _clique_subgraph(g: Graph, k: int, budget: _Budget) -> int | None:
    """Lexicographically least k-clique of g as a mask, or None."""
    adj = g._adj

    def extend(chosen: int, count: int, allowed: int) -> int | None:
        budget.spend()
        if count == k:
            return chosen
        if count + allowed.bit_count() < k:
            return None
        todo = allowed
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            found = extend(chosen | low, count + 1, todo & adj[v])
            if found is not None:
                return found
        return None

    return extend(0, 0, (1 << g.n) - 1)


def _minor_sets(host: Graph, target: Graph, budget: _Budget) -> tuple[int, ...] | None:
    """Branch-set masks indexed by target vertex, or None."""
    adj, tadj, t = host._adj, target._adj, target.n
    # the twins of each target vertex with a lower index
    lower_twins = [
        sum(1 << j for j in range(i) if tadj[i] & ~(1 << j) == tadj[j] & ~(1 << i))
        for i in range(t)
    ]
    sets = [0] * t
    reach = [0] * t  # N(sets[i]) minus sets[i], for each placed i

    # per set of unplaced target vertices: each placed vertex with its count
    # of unplaced target neighbours, and each vertex to try with the placed
    # target neighbours its branch set must touch (4096 plans hold every set
    # for targets up to 12 vertices)
    @lru_cache(maxsize=1 << 12)
    def plan(unplaced: int):
        placed = [i for i in range(t) if not unplaced >> i & 1]
        checks = tuple((i, (tadj[i] & unplaced).bit_count()) for i in placed)
        tries = tuple(
            (i, tuple(j for j in placed if tadj[i] >> j & 1))
            for i in iter_bits(unplaced)
            if not lower_twins[i] & unplaced
        )
        return checks, tries

    def place(unplaced: int, avail: int) -> bool:
        budget.spend()
        need = unplaced.bit_count()
        if need == 0:
            return True
        if avail.bit_count() < need:
            return False
        checks, tries = plan(unplaced)
        for i, r in checks:
            if (reach[i] & avail).bit_count() < r:
                return False
        anchor = (avail & -avail).bit_length() - 1
        limit = avail.bit_count() - (need - 1)
        for cand in _connected_sets(adj, anchor, avail, limit, budget):
            for i, required in tries:
                if all(reach[j] & cand for j in required):
                    sets[i], reach[i] = cand, neighbourhood(adj, cand)
                    if place(unplaced & ~(1 << i), avail & ~cand):
                        return True
        return place(unplaced, avail & ~(1 << anchor))

    return tuple(sets) if place((1 << t) - 1, (1 << host.n) - 1) else None


def _clique_minor_sets(g: Graph, k: int, budget: _Budget) -> tuple[int, ...] | None:
    """Branch-set masks for a complete minor of order k, or None."""
    if k == 0:
        return ()
    if k > g.n:
        return None
    clique = _clique_subgraph(g, k, budget)
    if clique is not None:
        return tuple(1 << v for v in iter_bits(clique))
    return _minor_sets(g, complete_graph(k), budget)


def has_minor(host: Graph, target: Graph, budget: int = DEFAULT_BUDGET) -> MinorOutcome:
    """Decide whether ``target`` is a minor of ``host`` within ``budget``
    expansions.

    One anchored search, with the module's twin and reach rules, serves
    every target.  Every yes comes with a branch-set witness re-verified
    against the minor definition; no means the search space was exhausted.
    """
    meter = _Budget(budget)
    if target.n > host.n or target.num_edges > host.num_edges:
        return MinorOutcome(NO, None, 0)
    try:
        if target.num_edges == target.n * (target.n - 1) // 2:  # complete target
            sets = _clique_minor_sets(host, target.n, meter)
        else:
            sets = _minor_sets(host, target, meter)
    except _OutOfBudget:
        return MinorOutcome(BUDGET_EXCEEDED, None, meter.spent)
    if sets is None:
        return MinorOutcome(NO, None, meter.spent)
    model = checked_model(host, MinorModel(sets), target, "oracle witness")
    return MinorOutcome(YES, model, meter.spent)


def hadwiger(g: Graph, budget: int = DEFAULT_BUDGET) -> HadwigerOutcome:
    """Order of the largest complete minor, with a verified witness."""
    meter = _Budget(budget)
    value = 0
    witness: MinorModel | None = None
    try:
        for k in range(1, g.n + 1):
            sets = _clique_minor_sets(g, k, meter)
            if sets is None:
                break
            witness = checked_model(g, MinorModel(sets), complete_graph(k), "oracle witness")
            value = k
    except _OutOfBudget:
        return HadwigerOutcome(value, witness, False, g.n, meter.spent)
    return HadwigerOutcome(value, witness, True, value, meter.spent)
