"""Stream summarization: the statistics bundle the query planner consumes.

Paper section 4.3 lists three families of summary statistics collected from
the data stream: (1) degree distribution, (2) vertex and edge type
distribution, (3) frequency distribution of multi-relational triads.  The
:class:`GraphSummary` bundles all three plus the typed relationship-signature
counts that drive selectivity estimation; :class:`StreamSummarizer` keeps a
summary up to date as edges stream in, and retracts the live legs of the
triad census as the window evicts them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..graph.dynamic_graph import DynamicGraph
from ..graph.property_graph import PropertyGraph
from ..graph.types import Edge, VertexId
from .degree import DegreeDistribution, StreamingDegreeTracker
from .labels import LabelDistribution, SignatureDistribution
from .triads import LiveEdge, TriadCensus

if TYPE_CHECKING:  # imported lazily at runtime: only sketch_stats needs them
    from .sketches import SketchLabelDistribution, SketchSignatureDistribution

__all__ = ["GraphSummary", "StreamSummarizer"]

GraphLike = Union[DynamicGraph, PropertyGraph]
LabelCounts = Union[LabelDistribution, "SketchLabelDistribution"]
SignatureCounts = Union[SignatureDistribution, "SketchSignatureDistribution"]


def _store_of(graph: GraphLike) -> PropertyGraph:
    return graph.graph if isinstance(graph, DynamicGraph) else graph


class GraphSummary:
    """A point-in-time bundle of stream statistics."""

    def __init__(
        self,
        vertex_labels: Optional[LabelCounts] = None,
        edge_labels: Optional[LabelCounts] = None,
        signatures: Optional[SignatureCounts] = None,
        degrees: Optional[DegreeDistribution] = None,
        triads: Optional[TriadCensus] = None,
        vertex_count: int = 0,
        edge_count: int = 0,
    ) -> None:
        # `x if x is not None else ...`, not `x or ...`: these classes define
        # __len__, so an *empty* component passed by the caller is falsy yet
        # must be kept -- `or` would swap the caller's object for a fresh one
        # (e.g. the census a summarizer is still folding into).
        self.vertex_labels: LabelCounts = (
            vertex_labels if vertex_labels is not None else LabelDistribution()
        )
        self.edge_labels: LabelCounts = (
            edge_labels if edge_labels is not None else LabelDistribution()
        )
        self.signatures: SignatureCounts = (
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
    """Maintain a :class:`GraphSummary` incrementally over the edge stream.

    The summarizer is driven by the engine: ``observe_batch(graph, edges)``
    (or ``observe(graph, edge)``, its one-edge case) is called after edges
    are ingested, so endpoint labels can be resolved, and once
    :meth:`follow` has hooked it to the window store, every evicted edge's
    live legs are retracted from the triad census.

    With ``sketch_stats=True`` the label/signature counters are count-min
    backed (:mod:`repro.stats.sketches`): memory stays fixed at high label
    cardinality and the planner reads one-sided estimates instead of exact
    counts.  The two backends expose the same interface, so
    :class:`GraphSummary` and the selectivity estimator are agnostic.
    """

    def __init__(
        self,
        track_triads: bool = True,
        seed: int = 7,
        sketch_stats: bool = False,
    ) -> None:
        self.sketch_stats = sketch_stats
        self.vertex_labels: LabelCounts
        self.edge_labels: LabelCounts
        self.signatures: SignatureCounts
        if sketch_stats:
            from .sketches import SketchLabelDistribution, SketchSignatureDistribution

            self.vertex_labels = SketchLabelDistribution(seed=seed + 94)
            self.edge_labels = SketchLabelDistribution(seed=seed + 190)
            self.signatures = SketchSignatureDistribution(seed=seed + 96)
        else:
            self.vertex_labels = LabelDistribution()
            self.edge_labels = LabelDistribution()
            self.signatures = SignatureDistribution()
        self.degree_tracker = StreamingDegreeTracker()
        self.track_triads = track_triads
        self.triads = TriadCensus()
        #: Every vertex ever seen, in first-sight order, with its label while
        #: the vertex has live legs (``None`` = resolve from the store).  The
        #: memo is what the eviction hook reads once an isolated endpoint has
        #: left the store, and it is dropped with the vertex's last leg
        #: because the store may re-create the id under another label.
        self._known_vertices: Dict[VertexId, Optional[str]] = {}
        self._edge_count = 0
        #: Largest edge id folded in.  The store assigns ids in ingest order
        #: and edges are observed in that order, so an evicted edge with a
        #: larger id was dead on arrival: never observed, nothing to retract.
        self._observed_through = -1

    def follow(self, graph: DynamicGraph) -> None:
        """Retract live legs as ``graph``'s window evicts edges."""
        if self.track_triads:
            graph.add_eviction_listener(self.retract_legs)

    def observe(self, graph: GraphLike, edge: Edge) -> None:
        """Fold one freshly-ingested edge into the summary."""
        self.observe_batch(graph, (edge,))

    def observe_batch(self, graph: GraphLike, edges: Sequence[Edge]) -> None:
        """Fold a run of freshly-ingested edges, in ingest order, into the summary.

        Edges must already be stored in ``graph`` (so first-sight endpoint
        labels resolve).  Feeding a stream edge by edge, in batches, or any
        mix of the two yields the same statistics, with one exception: the
        engine defers a run's eviction sweep to its end, so legs a finer
        split would have retracted mid-run stay live until the run ends and
        can form wedges with the run's later edges.  (The sketch
        backend's bounded heavy-hitter *display* tables also depend on the
        grouping once an alphabet outgrows them; its counts do not.)
        """
        if not edges:
            return
        store = _store_of(graph)
        known = self._known_vertices
        degrees = self.degree_tracker
        census = self.triads if self.track_triads else None
        groups: Dict[Tuple[str, str, str], int] = {}
        for edge in edges:
            source = edge.source
            target = edge.target
            edge_label = edge.label
            source_label = known.get(source)
            if source_label is None:
                source_label = self._admit(store, source)
            target_label = known.get(target)
            if target_label is None:
                target_label = self._admit(store, target)
            signature = (source_label, edge_label, target_label)
            groups[signature] = groups.get(signature, 0) + 1
            degrees.observe_edge(edge)
            if census is not None:
                census.observe_edge(source, target, edge_label, source_label, target_label)
        for (source_label, edge_label, target_label), count in groups.items():
            self.edge_labels.observe(edge_label, count)
            self.signatures.observe(source_label, edge_label, target_label, count)
        self._edge_count += len(edges)
        self._observed_through = edges[-1].id

    def _admit(self, store: PropertyGraph, vertex: VertexId) -> str:
        """Resolve the label of a vertex that is new or whose memo was dropped."""
        label = store.vertex(vertex).label
        if vertex not in self._known_vertices:
            self.vertex_labels.observe(label)
        # without the census no retraction tells the memo when the store
        # drops the vertex, so nothing is memoised
        self._known_vertices[vertex] = label if self.track_triads else None
        return label

    def retract_legs(self, edge: Edge) -> None:
        """Drop an evicted edge's live legs from the census (the eviction hook).

        Retracts exactly what was observed: an edge that was dead on arrival
        is evicted by its own ingest before any fold sees it, and is skipped.
        """
        if edge.id > self._observed_through or not self.track_triads:
            return
        known = self._known_vertices
        source = edge.source
        target = edge.target
        source_label = known[source]
        target_label = known[target]
        assert source_label is not None and target_label is not None
        for vertex in self.triads.retract_edge(
            source, target, edge.label, source_label, target_label
        ):
            known[vertex] = None

    def retract(self, graph: GraphLike, edge: Edge) -> None:
        """Remove an evicted edge's contribution to the type/signature counts.

        For callers that drive the summarizer by hand and want window-local
        type counts; the engine's eviction hook is :meth:`retract_legs`
        alone.  The edge's live legs are retracted with it.  The wedge counts
        and the degrees are *not*: they are cumulative, describing the stream
        the planner is optimising for ("continuously collecting the
        statistics information from the data stream").
        """
        store = _store_of(graph)
        source_label = (
            store.vertex(edge.source).label if store.has_vertex(edge.source) else None
        )
        target_label = (
            store.vertex(edge.target).label if store.has_vertex(edge.target) else None
        )
        self.edge_labels.retract(edge.label)
        if source_label is not None and target_label is not None:
            self.signatures.retract(source_label, edge.label, target_label)
        self.retract_legs(edge)

    @property
    def edges_observed(self) -> int:
        """Total number of edges folded into the summary."""
        return self._edge_count

    def state_dict(self) -> Dict[str, Any]:
        """Serialise the summarizer (distributions, trackers, cumulative census).

        The label memo and the census's live legs are derived from the window
        store and rebuilt by :meth:`from_state`; only the vertex ids travel.
        """
        return {
            "track_triads": self.track_triads,
            "sketch_stats": self.sketch_stats,
            "vertex_labels": self.vertex_labels.state_dict(),
            "edge_labels": self.edge_labels.state_dict(),
            "signatures": self.signatures.state_dict(),
            "degree_tracker": self.degree_tracker.state_dict(),
            "triads": self.triads.state_dict(),
            "known_vertices": list(self._known_vertices),
            "edge_count": self._edge_count,
            "observed_through": self._observed_through,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any], graph: GraphLike) -> "StreamSummarizer":
        """Rebuild a summarizer from :meth:`state_dict` output.

        ``graph`` is the restored window store: every edge live in it had
        been observed when the snapshot was taken (snapshots are cut at
        batch boundaries), so the label memo and the live legs are recounted
        from its edges.  Pre-sketch snapshots carry no ``sketch_stats`` flag
        and load as the exact backend they were written with.
        """
        sketch_stats = bool(state.get("sketch_stats", False))
        summarizer = cls(track_triads=state["track_triads"], sketch_stats=sketch_stats)
        if sketch_stats:
            from .sketches import SketchLabelDistribution, SketchSignatureDistribution

            summarizer.vertex_labels = SketchLabelDistribution.from_state(state["vertex_labels"])
            summarizer.edge_labels = SketchLabelDistribution.from_state(state["edge_labels"])
            summarizer.signatures = SketchSignatureDistribution.from_state(state["signatures"])
        else:
            summarizer.vertex_labels = LabelDistribution.from_state(state["vertex_labels"])
            summarizer.edge_labels = LabelDistribution.from_state(state["edge_labels"])
            summarizer.signatures = SignatureDistribution.from_state(state["signatures"])
        summarizer.degree_tracker = StreamingDegreeTracker.from_state(state["degree_tracker"])
        summarizer._known_vertices = dict.fromkeys(state["known_vertices"])
        summarizer._edge_count = state["edge_count"]
        live_edges: List[LiveEdge] = []
        # a snapshot written before the mark existed: every live edge had
        # been observed, so the mark is the largest live id
        observed_through = state.get("observed_through", -1)
        if summarizer.track_triads:
            store = _store_of(graph)
            for edge in store.edges():
                source_label = store.vertex(edge.source).label
                target_label = store.vertex(edge.target).label
                summarizer._known_vertices[edge.source] = source_label
                summarizer._known_vertices[edge.target] = target_label
                live_edges.append(
                    (edge.source, edge.target, edge.label, source_label, target_label)
                )
                observed_through = max(observed_through, edge.id)
        summarizer._observed_through = observed_through
        summarizer.triads = TriadCensus.from_state(state["triads"], live_edges)
        return summarizer

    def summary(self) -> GraphSummary:
        """Return a snapshot :class:`GraphSummary` of the current statistics."""
        return GraphSummary(
            vertex_labels=self.vertex_labels,
            edge_labels=self.edge_labels,
            signatures=self.signatures,
            degrees=self.degree_tracker.distribution(),
            triads=self.triads,
            vertex_count=len(self._known_vertices),
            edge_count=self._edge_count,
        )
