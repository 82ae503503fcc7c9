"""Contraction plans that turn an antimorphism into a clique-minor certificate.

Every self-complementary graph on n vertices contains a complete minor of
order floor((n+1)/2).  The witness is assembled cycle by cycle: along each
antimorphism cycle, pick a generator a with {a, rho(a)} an edge, then contract
the edges {rho^(2i)(a), rho^(2i+1)(a)}.  Even powers of an antimorphism are
automorphisms, so all of these pairs really are edges; pairs inside a cycle,
pairs across cycles, and the fixed point (when n = 4k + 1) are mutually joined
because whenever a pair image misses an edge, applying the antimorphism once
produces one.  ``realize_minor`` re-verifies all of this explicitly, so the
returned model is a machine-checked certificate rather than a trusted proof.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from collections.abc import Sequence

from .graphs import (
    ConsistencyError,
    Graph,
    complete_graph,
    iter_bits,
    mask_is_connected,
    neighbourhood,
)
from .antimorphism import (
    Permutation,
    _validate_cycle,
    check_sachs,
    cycle_decomposition,
    find_antimorphism,
    is_antimorphism,
)


@dataclass(frozen=True)
class CycleContraction:
    """One cycle's slice of a contraction plan: 2m disjoint edges covering it."""

    cycle: tuple[int, ...]
    generator: int
    matching: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ContractionPlan:
    per_cycle: tuple[CycleContraction, ...]
    fixed_vertex: int | None

    def matching_edges(self) -> list[tuple[int, int]]:
        return [edge for part in self.per_cycle for edge in part.matching]


@dataclass(frozen=True)
class MinorModel:
    """Disjoint connected branch sets witnessing a minor in some host graph.

    Each branch set is a vertex mask: bit v is set iff vertex v is in it.
    """

    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", tuple(map(operator.index, self.masks)))

    @property
    def k(self) -> int:
        return len(self.masks)

    def to_json_dict(self) -> dict:
        """The one JSON shape of a witness: its order k and its sorted branch sets."""
        return {"k": self.k, "branch_sets": [list(iter_bits(m)) for m in self.masks]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def verify_minor_model(g: Graph, model: MinorModel, target: Graph) -> str | None:
    """Check a branch-set family directly against the minor definition.

    Returns None iff the sets are nonempty, disjoint, each connected in the
    host, one per target vertex, and every target edge has a host edge
    between the corresponding sets.  Otherwise returns the first fault as
    text, which names the first violated target pair if a pair fails.
    """
    masks = model.masks
    if len(masks) != target.n:
        return f"{len(masks)} branch sets for a {target.n}-vertex target"
    seen = 0
    for i, mask in enumerate(masks):
        if not mask:
            return f"branch set {i} is empty"
        # before any iter_bits, which raises on a negative int
        if mask < 0 or mask >> g.n:
            return f"branch set {i} leaves the host range"
        if mask & seen:
            return f"branch set {i} overlaps an earlier one"
        seen |= mask
        if not mask_is_connected(g, mask):
            return f"branch set {i} is not connected"
    for i, mask in enumerate(masks):
        reach = neighbourhood(g._adj, mask)
        for j in iter_bits(target._adj[i] >> (i + 1) << (i + 1)):
            if not reach & masks[j]:
                return f"no host edge between branch sets at target edge {(i, j)}"
    return None


def checked_model(host: Graph, model: MinorModel, target: Graph, producer: str) -> MinorModel:
    """``model``, once it verifies as a minor model of ``target`` in ``host``.

    Every producer of a model guarantees it, so a failure is a bug in the
    producer: it raises ``ConsistencyError`` naming the producer.
    """
    fault = verify_minor_model(host, model, target)
    if fault is not None:
        raise ConsistencyError(f"{producer} failed verification: {fault}")
    return model


def choose_generator(g: Graph, rho: Permutation, cycle: Sequence[int]) -> int:
    """Least vertex a on the cycle with {a, rho(a)} an edge.

    An antimorphism reverses incidence, so every vertex neighbours exactly one
    of its two cycle neighbours; in particular such an a always exists, and a
    miss means the permutation was not a valid antimorphism.
    """
    cyc = _validate_cycle(rho, cycle)
    for a in sorted(cyc):
        if g.has_edge(a, rho(a)):
            return a
    raise ConsistencyError(
        f"no vertex of cycle {cyc!r} neighbours its image; "
        "the permutation cannot be an antimorphism"
    )


def cycle_matching(
    g: Graph, rho: Permutation, cycle: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """The 2m contraction edges {rho^(2i)(a), rho^(2i+1)(a)} of a 4m-cycle,
    each checked to be an edge."""
    seq = rho.orbit(choose_generator(g, rho, cycle))
    pairs = tuple(zip(seq[::2], seq[1::2]))
    for u, v in pairs:
        if not g.has_edge(u, v):
            raise ConsistencyError(
                f"claimed matching edge ({u}, {v}) is absent; "
                "even powers of an antimorphism must preserve edges"
            )
    return pairs


def build_plan(g: Graph, rho: Permutation) -> ContractionPlan:
    """One shift-1 matching per cycle, plus the fixed vertex when n = 4k + 1."""
    if not is_antimorphism(g, rho):
        raise ValueError("permutation is not an antimorphism of the graph")
    dec = cycle_decomposition(rho)
    fault = check_sachs(dec)
    if fault is not None:
        raise ValueError(f"antimorphism fails its structure check: {fault}")
    parts = []
    for cyc in dec.cycles:
        matching = cycle_matching(g, rho, cyc)
        # The matching starts at the generator: rho.orbit(a) begins with a.
        parts.append(CycleContraction(cyc, matching[0][0], matching))
    fixed = dec.fixed_points[0] if dec.fixed_points else None
    return ContractionPlan(tuple(parts), fixed)


def realize_minor(g: Graph, plan: ContractionPlan) -> MinorModel:
    """Contract the plan's matchings into branch sets and verify the clique.

    The result always has floor((n+1)/2) branch sets: one per matching edge
    plus the fixed vertex alone.  Verification failure would falsify the
    construction itself, so it raises instead of returning a bad model.
    """
    masks = [1 << u | 1 << v for u, v in plan.matching_edges()]
    if plan.fixed_vertex is not None:
        masks.append(1 << plan.fixed_vertex)
    return checked_model(
        g, MinorModel(masks), complete_graph((g.n + 1) // 2), "constructed model"
    )


def guaranteed_minor(g: Graph) -> MinorModel | None:
    """Verified complete-minor certificate of order floor((n+1)/2), or None.

    None exactly when the graph is not self-complementary.
    """
    rho = find_antimorphism(g)
    if rho is None:
        return None
    return realize_minor(g, build_plan(g, rho))
