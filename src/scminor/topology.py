"""Topological predicates driven by excluded minors.

Outerplanarity and planarity are settled by exact edge-count rules where
they can be: fewer than 9 edges means planar and fewer than 6 outerplanar
(no minor has more edges than its host, K3,3 has 9 and K4 and K2,3 have 6);
more than 3n - 6 edges means not planar and more than 2n - 3 not
outerplanar (Euler's formula).  What the counts leave open goes to
networkx's planarity algorithm (a graph is outerplanar iff adding an apex
joined to everything keeps it planar).  The minor oracle is only consulted
when an explicit excluded-minor witness is requested.  Intrinsic linking
and knotting are reported as one-sided certificates: a complete minor of
order 6 (resp. 7) proves the property, its absence proves nothing, and the
result type keeps that distinction explicit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, ConsistencyError, induced_subgraph
from .antimorphism import find_antimorphism
from .construction import (
    MinorModel,
    build_plan,
    realize_minor,
    verify_minor_model,
)
from .generators import complete_graph, complete_bipartite
from .oracle import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    YES,
    MinorQuery,
    has_minor,
)

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


def _planar(g: Graph, apex: bool) -> bool:
    """Planarity of g, with one extra vertex joined to all of g if ``apex``.

    Edge counts decide first.  A non-planar graph has a K5 or K3,3 minor,
    so at least 9 edges; a non-outerplanar one has a K4 or K2,3 minor, so
    at least 6.  Fewer edges therefore mean yes.  More than 3n - 6 edges
    (planar) or 2n - 3 (outerplanar) mean no, by Euler's formula; a graph
    that gets that far has at least 6 edges, so n >= 4 and the formula
    applies.  networkx is imported only for what the counts leave open, so
    the verbs and graphs that never reach it do not pay for loading it.
    """
    m = g.num_edges
    fewest, most = (6, 2 * g.n - 3) if apex else (9, 3 * g.n - 6)
    if m < fewest:
        return True
    if m > most:
        return False
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    if apex:
        h.add_edges_from((g.n, v) for v in range(g.n))
    ok, _ = nx.check_planarity(h, counterexample=False)
    return ok


def is_planar(g: Graph) -> bool:
    return _planar(g, apex=False)


def is_outerplanar(g: Graph) -> bool:
    """True iff g embeds with all vertices on the outer face.

    Equivalent to planarity of g with one extra vertex joined to all of g.
    The apex is added to the networkx graph only, so a 64-vertex g works.
    """
    return _planar(g, apex=True)


def _excluded_minor_witness(
    g: Graph, targets: list[tuple[str, Graph]], budget: int, none_target: str | None = None
) -> CertificateSearch:
    spent = 0
    for name, target in targets:
        outcome = has_minor(MinorQuery(g, target, budget))
        spent += outcome.expansions
        if outcome.answer == YES:
            return CertificateSearch(CERTIFICATE, name, outcome.model, spent)
        if outcome.answer == BUDGET_EXCEEDED:
            return CertificateSearch(INDETERMINATE, name, None, spent)
    return CertificateSearch(NONE_FOUND, none_target, None, spent)


def nonplanarity_witness(g: Graph, budget: int = DEFAULT_BUDGET) -> CertificateSearch:
    """A verified K5 or K3,3 minor; one exists in every non-planar graph."""
    return _excluded_minor_witness(
        g,
        [("K5", complete_graph(5)), ("K3,3", complete_bipartite(3, 3))],
        budget,
    )


def nonouterplanarity_witness(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> CertificateSearch:
    """A verified K4 or K2,3 minor; one exists in every non-outerplanar graph."""
    return _excluded_minor_witness(
        g,
        [("K4", complete_graph(4)), ("K2,3", complete_bipartite(2, 3))],
        budget,
    )


def _constructive_model(g: Graph, order: int) -> MinorModel | None:
    """Verified K_floor((n+1)/2) model of an SC g, else None; no search runs
    when floor((n+1)/2) < ``order``, as the caller could not use its answer."""
    if (g.n + 1) // 2 < order:
        return None
    rho = find_antimorphism(g)
    return None if rho is None else realize_minor(g, build_plan(g, rho))


def _complete_certificate(
    g: Graph, order: int, budget: int, model: MinorModel | None
) -> CertificateSearch:
    """Verified complete minor of the given order, constructively when possible.

    A ``model`` with at least ``order`` branch sets skips the oracle: the
    certificate is its first ``order`` branch sets, verified again.
    """
    name = f"K{order}"
    if model is not None and model.k >= order:
        prefix = MinorModel(model.branch_sets[:order])
        check = verify_minor_model(g, prefix, complete_graph(order))
        if not check.ok:
            raise ConsistencyError(f"trimmed constructive certificate failed: {check.reason}")
        return CertificateSearch(CERTIFICATE, name, prefix)
    if g.n > ORACLE_HOST_CAP:
        return CertificateSearch(INDETERMINATE, name)
    return _excluded_minor_witness(g, [(name, complete_graph(order))], budget, name)


def il_certificate(g: Graph, budget: int = DEFAULT_BUDGET) -> CertificateSearch:
    """Sufficient certificate that g is intrinsically linked: a K6 minor."""
    return _complete_certificate(g, 6, budget, _constructive_model(g, 6))


def ik_certificate(g: Graph, budget: int = DEFAULT_BUDGET) -> CertificateSearch:
    """Sufficient certificate that g is intrinsically knotted: a K7 minor."""
    return _complete_certificate(g, 7, budget, _constructive_model(g, 7))


def _check_apex_parameter(j: int) -> None:
    if j < 0:
        raise ValueError(f"apex parameter must be >= 0, got {j}")
    if j > APEX_CAP:
        raise ValueError(f"apex search is capped at j <= {APEX_CAP}, got {j}")


def is_n_apex(g: Graph, j: int) -> tuple[bool, frozenset[int] | None]:
    """Can deleting at most j vertices make g planar?

    Returns the first (smallest, then lexicographically least) working
    deletion set as a witness.  j = 0 is exactly a planarity test.
    """
    _check_apex_parameter(j)
    for size in range(min(j, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            keep = [v for v in range(g.n) if v not in combo]
            sub, _ = induced_subgraph(g, keep)
            if is_planar(sub):
                return True, frozenset(combo)
    return False, None


@dataclass(frozen=True)
class TopologyReport:
    outerplanar: bool
    planar: bool
    il_certificate: CertificateSearch
    ik_certificate: CertificateSearch
    apex_numbers: dict[int, bool]

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
            "apex_numbers": {str(j): v for j, v in sorted(self.apex_numbers.items())},
        }


def report(
    g: Graph,
    apex_range: tuple[int, ...] = (0, 1, 2),
    budget: int = DEFAULT_BUDGET,
) -> TopologyReport:
    """Aggregate the topology predicates and re-check their consistency.

    An SC g with floor((n+1)/2) >= 6 gets one constructive model, and its
    IL/IK certificates are the model's first 6 and 7 branch sets where it
    has that many.  A verified K_t model with t >= 5 + j proves that g is
    not j-apex: deleting j vertices removes at most j branch sets, so a K5
    minor survives.  What is left is answered by one apex search at the
    largest open j: its deletion set is a smallest one, so it answers every
    smaller j too.
    """
    for j in apex_range:
        _check_apex_parameter(j)
    outer = is_outerplanar(g)
    model, half = _constructive_model(g, 6), (g.n + 1) // 2
    # il_certificate / ik_certificate search where half >= their order: reuse this one.
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
        # the search tests g itself first, so it answers planarity too
        found, deleted = is_n_apex(g, top)
        apex = {j: t < 5 + j and found and len(deleted) <= j for j in apex_range}
        planar = found and not deleted
    if outer and not planar:
        raise ConsistencyError("outerplanar graph reported non-planar")
    for j, val in apex.items():
        if j == 0 and val != planar:
            raise ConsistencyError("0-apex answer disagrees with planarity")
    return TopologyReport(outer, planar, il, ik, apex)
