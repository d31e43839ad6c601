"""Stream summarization: the statistics bundle the query planner consumes.

Paper section 4.3 lists three families of summary statistics collected from
the data stream: (1) degree distribution, (2) vertex and edge type
distribution, (3) frequency distribution of multi-relational triads.  The
:class:`GraphSummary` bundles all three plus the typed relationship-signature
counts that drive selectivity estimation; :class:`StreamSummarizer` computes
one from the window store whenever the planner asks.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ..graph.dynamic_graph import DynamicGraph
from ..graph.property_graph import PropertyGraph
from ..graph.types import Edge, VertexId
from .degree import DegreeDistribution
from .labels import LabelDistribution, SignatureDistribution
from .triads import TriadCensus

__all__ = ["GraphSummary", "StreamSummarizer"]

GraphLike = Union[DynamicGraph, PropertyGraph]


def _store_of(graph: GraphLike) -> PropertyGraph:
    return graph.graph if isinstance(graph, DynamicGraph) else graph


class GraphSummary:
    """A point-in-time bundle of stream statistics."""

    def __init__(
        self,
        vertex_labels: Optional[LabelDistribution] = None,
        edge_labels: Optional[LabelDistribution] = None,
        signatures: Optional[SignatureDistribution] = None,
        degrees: Optional[DegreeDistribution] = None,
        triads: Optional[TriadCensus] = None,
        vertex_count: int = 0,
        edge_count: int = 0,
    ) -> None:
        # `x if x is not None else ...`, not `x or ...`: these classes define
        # __len__, so an *empty* component passed by the caller is falsy yet
        # must be kept -- `or` would swap the caller's object for a fresh one.
        self.vertex_labels = vertex_labels if vertex_labels is not None else LabelDistribution()
        self.edge_labels = edge_labels if edge_labels is not None else LabelDistribution()
        self.signatures = (
            signatures if signatures is not None else SignatureDistribution()
        )
        self.degrees = degrees if degrees is not None else DegreeDistribution()
        self.triads = triads if triads is not None else TriadCensus()
        self.vertex_count = vertex_count
        self.edge_count = edge_count

    @classmethod
    def from_graph(cls, graph: GraphLike, with_triads: bool = True) -> "GraphSummary":
        """Compute an exact summary of a stored graph."""
        store = _store_of(graph)
        vertex_labels = LabelDistribution()
        for vertex in store.vertices():
            vertex_labels.observe(vertex.label)
        edge_labels = LabelDistribution()
        signatures = SignatureDistribution()
        for edge in store.edges():
            edge_labels.observe(edge.label)
            signatures.observe(
                store.vertex(edge.source).label,
                edge.label,
                store.vertex(edge.target).label,
            )
        degrees = DegreeDistribution.from_graph(store)
        triads = TriadCensus()
        if with_triads:
            triads.observe_graph(store)
        return cls(
            vertex_labels=vertex_labels,
            edge_labels=edge_labels,
            signatures=signatures,
            degrees=degrees,
            triads=triads,
            vertex_count=store.vertex_count(),
            edge_count=store.edge_count(),
        )

    def vertex_label_count(self, label: Optional[str]) -> int:
        """Return the number of vertices with ``label`` (all vertices when ``None``)."""
        if label is None:
            return self.vertex_count
        return self.vertex_labels.count(label)

    def edge_label_count(self, label: Optional[str]) -> int:
        """Return the number of edges with ``label`` (all edges when ``None``)."""
        if label is None:
            return self.edge_count
        return self.edge_labels.count(label)

    def describe(self) -> str:
        """Return a multi-line human-readable summary report."""
        lines = [
            f"Graph summary: {self.vertex_count} vertices, {self.edge_count} edges",
            f"  vertex types: {dict(self.vertex_labels.most_common())}",
            f"  edge types:   {dict(self.edge_labels.most_common())}",
            f"  degree: mean={self.degrees.mean():.2f} max={self.degrees.max()} "
            f"p99={self.degrees.percentile(0.99)}",
            f"  triad patterns: {self.triads.distinct_patterns()} "
            f"({self.triads.total_wedges():.0f} wedges)",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Serialise the headline statistics into a JSON-friendly dict."""
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "vertex_labels": self.vertex_labels.to_dict(),
            "edge_labels": self.edge_labels.to_dict(),
            "degrees": self.degrees.to_dict(),
            "triad_patterns": self.triads.distinct_patterns(),
        }


class StreamSummarizer:
    """Compute the :class:`GraphSummary` of a window store on demand.

    Nothing is folded per record.  :meth:`summary` reads the store's
    retained edges and their endpoint vertex records each time the planner
    asks -- at registration, at a replan and from
    ``engine.statistics_summary()`` -- so the statistics describe the
    retention window.  Records the store never kept (cold ones, and dead
    ones evicted by their own ingest) take no part.  A call costs
    O(live edges + the sum over vertices of their distinct leg types
    squared), and O(1) on an empty store.

    ``observe_batch`` only counts the edges the engine stores, for
    :attr:`edges_observed`.
    """

    def __init__(self, graph: GraphLike, track_triads: bool = True) -> None:
        self.graph = graph
        self.track_triads = track_triads
        self._edge_count = 0

    def observe_batch(self, edges: Sequence[Edge]) -> None:
        """Count a run of freshly stored edges."""
        self._edge_count += len(edges)

    @property
    def edges_observed(self) -> int:
        """Total number of edges the engine has stored and counted so far."""
        return self._edge_count

    def summary(self) -> GraphSummary:
        """Return the statistics of the edges the store retains right now.

        Only vertices with a live edge count.  On an unbounded window this
        is the summary of every stored record so far.
        """
        store = _store_of(self.graph)
        if not store.edge_count():
            return GraphSummary()
        label_of: Dict[VertexId, str] = {}
        vertex_labels = LabelDistribution()
        degrees = DegreeDistribution()
        for vertex in store.vertices():
            degree = vertex.degree
            if degree:
                label_of[vertex.id] = vertex.label
                vertex_labels.observe(vertex.label)
                degrees.add(degree)
        edges = list(store.edges())
        signatures = Counter((label_of[e.source], e.label, label_of[e.target]) for e in edges)
        edge_labels = LabelDistribution()
        for (_, edge_label, _), count in signatures.items():
            edge_labels.observe(edge_label, count)
        triads = None
        if self.track_triads:
            triads = TriadCensus.from_live_edges(
                (
                    (e.source, e.target, e.label, label_of[e.source], label_of[e.target])
                    for e in edges
                ),
                label_of,
            )
        return GraphSummary(
            vertex_labels=vertex_labels,
            edge_labels=edge_labels,
            signatures=SignatureDistribution(signatures),
            degrees=degrees,
            triads=triads,
            vertex_count=len(label_of),
            edge_count=len(edges),
        )

    def state_dict(self) -> Dict[str, Any]:
        """Serialise what the store cannot give back: the edge counter."""
        return {"track_triads": self.track_triads, "edge_count": self._edge_count}

    @classmethod
    def from_state(cls, state: Mapping[str, Any], graph: GraphLike) -> "StreamSummarizer":
        """Rebuild a summarizer over the restored store ``graph``."""
        summarizer = cls(graph, track_triads=state["track_triads"])
        summarizer._edge_count = state["edge_count"]
        return summarizer
