"""Exact minor containment and Hadwiger numbers by branch and bound.

This is the independent ground truth the constructive certificates are
checked against, so it favours simplicity over cleverness: branch sets are
assembled as connected vertex subsets, with complete targets getting a
specialised anchored search (every candidate branch set must contain the
least still-available vertex, or that vertex is discarded), which visits
each branch-set family exactly once.  All work is metered against an
explicit expansion budget; running out is reported as its own outcome and
is never silently converted to "no".

Every placed branch set B carries its neighbourhood mask N(B) minus B, so
a disjoint candidate touches B iff it meets that mask.  The complete search
also prunes by reach: a node with ``need`` sets still to place is dropped
once some placed B has fewer than ``need`` neighbours in ``avail``.  This
is sound because the remaining sets are disjoint subsets of ``avail`` and
each must contain a neighbour of B.  The rule removes only subtrees that
hold no completion, so the surviving nodes are visited in the same order
and every answer and witness is unchanged; only the expansion count falls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, iter_bits, neighbourhood
from .construction import MinorModel, checked_model
from .generators import complete_graph

DEFAULT_BUDGET = 10**8

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
    """All connected subsets of ``region`` containing ``anchor``, each once."""

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
    if max_size < 1 or not region & start:
        return
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


def _clique_minor_sets(g: Graph, k: int, budget: _Budget) -> tuple[int, ...] | None:
    """Branch-set masks for a complete minor of order k, or None."""
    if k == 0:
        return ()
    if k > g.n:
        return None
    clique = _clique_subgraph(g, k, budget)
    if clique is not None:
        return tuple(1 << v for v in iter_bits(clique))
    adj = g._adj

    def place(done: tuple[int, ...], reach: tuple[int, ...], avail: int):
        budget.spend()
        need = k - len(done)
        if need == 0:
            return done
        if avail.bit_count() < need:
            return None
        for nb in reach:
            if (nb & avail).bit_count() < need:
                return None
        anchor = (avail & -avail).bit_length() - 1
        limit = avail.bit_count() - (need - 1)
        for cand in _connected_sets(adj, anchor, avail, limit, budget):
            if all(nb & cand for nb in reach):
                found = place(
                    done + (cand,),
                    reach + (neighbourhood(adj, cand),),
                    avail & ~cand,
                )
                if found is not None:
                    return found
        return place(done, reach, avail & ~(1 << anchor))

    return place((), (), (1 << g.n) - 1)


def _general_minor_sets(
    host: Graph, target: Graph, budget: _Budget
) -> tuple[int, ...] | None:
    """Branch-set masks indexed by target vertex, for an arbitrary target."""
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


def has_minor(host: Graph, target: Graph, budget: int = DEFAULT_BUDGET) -> MinorOutcome:
    """Decide whether ``target`` is a minor of ``host`` within ``budget``
    expansions.

    Every yes comes with a branch-set witness that has been re-verified
    against the minor definition; no means the search space was exhausted.
    """
    meter = _Budget(budget)
    if target.n > host.n or target.num_edges > host.num_edges:
        return MinorOutcome(NO, None, 0)
    try:
        if target.num_edges == target.n * (target.n - 1) // 2:  # complete target
            sets = _clique_minor_sets(host, target.n, meter)
        else:
            sets = _general_minor_sets(host, target, meter)
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
                return HadwigerOutcome(value, witness, True, value, meter.spent)
            witness = checked_model(g, MinorModel(sets), complete_graph(k), "oracle witness")
            value = k
        return HadwigerOutcome(value, witness, True, value, meter.spent)
    except _OutOfBudget:
        return HadwigerOutcome(value, witness, False, g.n, meter.spent)
