"""Selectivity estimation for query subgraphs.

The query planner's central decision is *which search primitive goes lowest
in the SJ-Tree* (paper section 4.1): the most selective primitive should gate
the creation of partial matches.  The estimator turns the stream summary
statistics into an expected match cardinality for a candidate primitive:

* **single query edge** -- the count of data edges with the same typed
  signature ``(source label, edge label, target label)``, discounted for any
  attribute equality constraints;
* **two-edge primitive (wedge)** -- the triad census count for the wedge's
  typed pattern when available, otherwise an independence estimate
  ``|e1| * |e2| / |V_center|``;
* **larger primitives** -- a chained independence estimate (each extra edge
  multiplies by its per-shared-vertex expansion factor).

Lower estimates mean *more selective*.  Absolute accuracy matters less than
getting the ranking right, which is what the ablation experiment E8 checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, Tuple

from ..query.predicates import Predicate
from ..query.query_graph import QueryEdge, QueryGraph
from .labels import EdgeSignature
from .triads import TriadKey, wedge_key_for_query

__all__ = ["PlanningStatistics", "SelectivityEstimator"]


class PlanningStatistics(Protocol):
    """The counts an estimator reads: a :class:`GraphSummary` or a
    :class:`~repro.stats.store_stats.StoreStatistics` view of the store."""

    @property
    def edge_count(self) -> int: ...

    def signature_count(self, signature: EdgeSignature) -> int: ...

    def edge_label_count(self, label: Optional[str]) -> int: ...

    def vertex_label_count(self, label: Optional[str]) -> int: ...

    def total_wedges(self) -> int: ...

    def wedge_count(self, key: TriadKey) -> int: ...

    def wedge_count_wildcard(self, key: TriadKey) -> int: ...


class SelectivityEstimator:
    """Estimate expected match counts of query subgraphs from planning statistics.

    Parameters
    ----------
    summary:
        The statistics to estimate against (:class:`PlanningStatistics`).
    attribute_equality_selectivity:
        Multiplicative discount applied per attribute-equality constraint on
        a vertex or edge (default 0.1).  A query edge whose endpoint pins
        ``label='politics'`` is assumed to match roughly 10% of the edges its
        type signature alone would match.
    smoothing:
        Added to raw counts so unseen signatures do not produce hard zeros
        (which would make every plan containing them look equally perfect).
    use_triads:
        Read the wedge counts for two-edge primitives; ``False`` estimates
        every wedge by independence.
    """

    def __init__(
        self,
        summary: PlanningStatistics,
        attribute_equality_selectivity: float = 0.1,
        smoothing: float = 0.5,
        use_triads: bool = True,
    ):
        if not 0.0 < attribute_equality_selectivity <= 1.0:
            raise ValueError("attribute_equality_selectivity must be in (0, 1]")
        self.summary = summary
        self.attribute_equality_selectivity = attribute_equality_selectivity
        self.smoothing = smoothing
        self.use_triads = use_triads

    # ------------------------------------------------------------------
    # single edges
    # ------------------------------------------------------------------
    def estimate_edge(self, query: QueryGraph, edge: QueryEdge) -> float:
        """Return the expected number of data edges that can bind ``edge``."""
        source_label = query.vertex(edge.source).label
        target_label = query.vertex(edge.target).label
        count = float(self.summary.signature_count((source_label, edge.label, target_label)))
        if not edge.directed:
            count += float(self.summary.signature_count((target_label, edge.label, source_label)))
        if count == 0.0:
            # fall back to the edge-label count when endpoint labels were never
            # seen together (e.g. statistics collected on a different prefix)
            count = float(self.summary.edge_label_count(edge.label))
        count += self.smoothing
        count *= self._predicate_discount(edge.predicate)
        count *= self._predicate_discount(query.vertex(edge.source).predicate)
        count *= self._predicate_discount(query.vertex(edge.target).predicate)
        return count

    def _predicate_discount(self, predicate: Predicate) -> float:
        constraints = predicate.equality_constraints()
        if not constraints:
            return 1.0
        return self.attribute_equality_selectivity ** len(constraints)

    # ------------------------------------------------------------------
    # primitives (connected query subgraphs)
    # ------------------------------------------------------------------
    def estimate_primitive(self, query: QueryGraph, primitive: QueryGraph) -> float:
        """Return the expected number of embeddings of ``primitive`` in the data.

        ``primitive`` must be a subgraph of ``query`` (it shares vertex names
        and edge ids); the full query's vertex constraints are used.
        """
        edges = list(primitive.edges())
        if not edges:
            return 0.0
        if len(edges) == 1:
            return self.estimate_edge(query, edges[0])
        if len(edges) == 2:
            return self._estimate_wedge(query, edges[0], edges[1])
        return self._estimate_chain(query, edges)

    def _estimate_wedge(self, query: QueryGraph, first: QueryEdge, second: QueryEdge) -> float:
        shared = set(first.endpoints) & set(second.endpoints)
        if not shared:
            # disconnected primitive: independence (cartesian) estimate
            return self.estimate_edge(query, first) * self.estimate_edge(query, second)
        center = next(iter(shared))
        center_label = query.vertex(center).label
        triad_estimate = self._triad_count(query, center, center_label, first, second)
        if triad_estimate is not None and triad_estimate > 0:
            discount = (
                self._predicate_discount(first.predicate)
                * self._predicate_discount(second.predicate)
                * self._predicate_discount(query.vertex(center).predicate)
                * self._predicate_discount(query.vertex(first.other_endpoint(center)).predicate)
                * self._predicate_discount(query.vertex(second.other_endpoint(center)).predicate)
            )
            return (triad_estimate + self.smoothing) * discount
        return self._independence_wedge(query, center, center_label, first, second)

    def _triad_count(
        self,
        query: QueryGraph,
        center: str,
        center_label: Optional[str],
        first: QueryEdge,
        second: QueryEdge,
    ) -> Optional[float]:
        summary = self.summary
        if not self.use_triads or summary.total_wedges() == 0:
            return None
        first_leg = (
            first.label,
            "out" if first.source == center else "in",
            query.vertex(first.other_endpoint(center)).label,
        )
        second_leg = (
            second.label,
            "out" if second.source == center else "in",
            query.vertex(second.other_endpoint(center)).label,
        )
        key = wedge_key_for_query(center_label, first_leg, second_leg)
        count = summary.wedge_count(key)
        if count == 0:
            count = summary.wedge_count_wildcard(key)
        return count

    def _independence_wedge(
        self,
        query: QueryGraph,
        center: str,
        center_label: Optional[str],
        first: QueryEdge,
        second: QueryEdge,
    ) -> float:
        first_count = self.estimate_edge(query, first)
        second_count = self.estimate_edge(query, second)
        center_vertices = max(1.0, float(self.summary.vertex_label_count(center_label)))
        return first_count * second_count / center_vertices

    def _estimate_chain(self, query: QueryGraph, edges: List[QueryEdge]) -> float:
        """Chained independence estimate for primitives with three or more edges."""
        estimate = self.estimate_edge(query, edges[0])
        covered = set(edges[0].endpoints)
        remaining = edges[1:]
        while remaining:
            # prefer an edge that connects to the already-covered part
            index = next(
                (i for i, edge in enumerate(remaining) if covered & set(edge.endpoints)),
                0,
            )
            edge = remaining.pop(index)
            shared = covered & set(edge.endpoints)
            edge_count = self.estimate_edge(query, edge)
            if shared:
                center = next(iter(shared))
                center_label = query.vertex(center).label
                center_vertices = max(1.0, float(self.summary.vertex_label_count(center_label)))
                estimate *= edge_count / center_vertices
            else:
                estimate *= edge_count
            covered |= set(edge.endpoints)
        return estimate

    # ------------------------------------------------------------------
    # conditional estimates
    # ------------------------------------------------------------------
    def conditional_estimate(
        self,
        query: QueryGraph,
        primitive: QueryGraph,
        bound_vertices: Iterable[str],
        marginal: Optional[float] = None,
    ) -> float:
        """Estimate ``primitive``'s expansion *given* already-bound vertices.

        PAPERS.md "Exploiting Correlations for Expensive Predicate
        Evaluation": join order should follow conditional, not marginal,
        selectivity.  The marginal estimate counts free embeddings of the
        primitive; once upstream primitives have bound some of its vertices,
        each shared vertex no longer ranges over its label class — so the
        expected *per-partial-match* expansion divides the marginal by the
        label-class size of every shared vertex, the same conditioning used
        per join step in :meth:`_estimate_chain`.  With no shared vertices
        this degrades to the marginal (a cross product, which the
        connectivity ordering avoids anyway).

        ``marginal`` lets callers reuse a precomputed
        :meth:`estimate_primitive` value.
        """
        if marginal is None:
            marginal = self.estimate_primitive(query, primitive)
        estimate = marginal
        shared = set(primitive.vertex_names()) & set(bound_vertices)
        for name in sorted(shared):
            label = query.vertex(name).label
            estimate /= max(1.0, float(self.summary.vertex_label_count(label)))
        return estimate

    # ------------------------------------------------------------------
    # rankings
    # ------------------------------------------------------------------
    def rank_primitives(
        self, query: QueryGraph, primitives: List[QueryGraph]
    ) -> List[Tuple[QueryGraph, float]]:
        """Return ``(primitive, estimate)`` pairs sorted most-selective-first."""
        scored = [(primitive, self.estimate_primitive(query, primitive)) for primitive in primitives]
        return sorted(scored, key=lambda pair: pair[1])

    def explain(self, query: QueryGraph, primitives: List[QueryGraph]) -> Dict[str, float]:
        """Return ``{primitive name: estimate}`` for logging and the planner report."""
        return {
            primitive.name: estimate
            for primitive, estimate in self.rank_primitives(query, primitives)
        }
