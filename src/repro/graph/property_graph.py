"""In-memory multi-relational property graph store.

This is the static storage substrate used by StreamWorks: a directed
multigraph whose vertices and edges carry labels and attribute maps.  The
dynamic (windowed) behaviour is layered on top in
:mod:`repro.graph.dynamic_graph`.

The store keeps label-aware adjacency indexes (:class:`AdjacencyIndex`) so
that the incremental matcher's local searches stay proportional to the size
of the neighbourhood being explored.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .adjacency import AdjacencyIndex, EdgeTimeRuns
from .types import (
    Direction,
    DuplicateEdgeError,
    Edge,
    EdgeId,
    EdgeNotFoundError,
    Timestamp,
    Vertex,
    VertexId,
    VertexNotFoundError,
)

__all__ = ["PropertyGraph"]


class PropertyGraph:
    """A directed, labelled, attributed multigraph.

    Vertices are identified by arbitrary hashable values; edges are
    identified by integers (assigned automatically when not supplied).
    Multiple parallel edges between the same endpoints are allowed -- a
    netflow stream routinely produces many ``connectsTo`` edges between the
    same pair of hosts.

    The class exposes the read API used by the matcher (vertex/edge lookup,
    label-filtered adjacency) and the write API used by the stream ingester
    (upserts, removal for window eviction).
    """

    def __init__(self) -> None:
        self._vertices: Dict[VertexId, Vertex] = {}
        self._edges: Dict[EdgeId, Edge] = {}
        self._adjacency = AdjacencyIndex()
        # label indexes are insertion-ordered dicts used as ordered sets:
        # label-filtered iteration must follow ingest order, not the hash
        # order of engine-local ids, so that engines fed the same stream
        # enumerate (and emit) in the same order regardless of id numbering
        self._edges_by_label: Dict[str, Dict[EdgeId, None]] = defaultdict(dict)
        self._vertices_by_label: Dict[str, Dict[VertexId, None]] = defaultdict(dict)
        self._next_edge_id: int = 0
        # columnar range-scan sidecars: per-label timestamp arrays, built
        # lazily on first range query and rebuilt the same way after a
        # restore -- deliberately derived state, never serialised
        self._label_times: Dict[str, EdgeTimeRuns] = {}  # repro-lint: ignore[snapshot-coverage]
        #: Range-scan observability (process-local, like wall-clock latency:
        #: reset by construction and restore, not part of the resume contract)
        self.range_scans = 0  # repro-lint: ignore[snapshot-coverage]
        self.range_scan_fallbacks = 0  # repro-lint: ignore[snapshot-coverage]

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        vertex_id: VertexId,
        label: str,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> Vertex:
        """Add or update a vertex and return the stored object.

        Adding an existing vertex id with the same label merges the supplied
        attributes into the stored vertex (last write wins per key); adding it
        with a *different* label raises :class:`DuplicateVertexError` via
        :meth:`upsert_vertex`'s strictness -- in a multi-relational graph a
        vertex identity has exactly one type.

        Stream contract: a stream gives each live vertex id one label.  The
        engine relies on it twice -- it routes a record by its endpoints'
        labels *before* storing it (the stored label, else the record's
        own), and the sharded router routes records by label -- so a record
        naming a live vertex under another label is outside the contract.
        """
        existing = self._vertices.get(vertex_id)
        if existing is None:
            vertex = Vertex(vertex_id, label, attrs)
            self._vertices[vertex_id] = vertex
            self._vertices_by_label[label][vertex_id] = None
            return vertex
        if existing.label != label:
            from .types import DuplicateVertexError

            raise DuplicateVertexError(
                f"vertex {vertex_id!r} already exists with label {existing.label!r}, "
                f"cannot re-add with label {label!r}"
            )
        if attrs:
            existing.attrs.update(attrs)
        return existing

    def has_vertex(self, vertex_id: VertexId) -> bool:
        """Return ``True`` when ``vertex_id`` is stored."""
        return vertex_id in self._vertices

    def vertex_label(self, vertex_id: VertexId) -> Optional[str]:
        """Return the stored vertex's label, or ``None`` when it is not stored."""
        vertex = self._vertices.get(vertex_id)
        return None if vertex is None else vertex.label

    def vertex(self, vertex_id: VertexId) -> Vertex:
        """Return the stored :class:`Vertex` or raise :class:`VertexNotFoundError`."""
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def vertices(self, label: Optional[str] = None) -> Iterator[Vertex]:
        """Iterate over stored vertices, optionally restricted to one label."""
        if label is None:
            yield from self._vertices.values()
            return
        for vertex_id in self._vertices_by_label.get(label, ()):
            yield self._vertices[vertex_id]

    def vertex_ids(self, label: Optional[str] = None) -> Iterator[VertexId]:
        """Iterate over stored vertex identifiers."""
        if label is None:
            yield from self._vertices.keys()
        else:
            yield from self._vertices_by_label.get(label, ())

    def vertex_count(self, label: Optional[str] = None) -> int:
        """Return the number of vertices (optionally of a single label)."""
        if label is None:
            return len(self._vertices)
        return len(self._vertices_by_label.get(label, ()))

    def vertex_labels(self) -> Set[str]:
        """Return the set of vertex labels present in the graph."""
        return {label for label, ids in self._vertices_by_label.items() if ids}

    def remove_vertex(self, vertex_id: VertexId) -> Vertex:
        """Remove a vertex and all of its incident edges."""
        vertex = self.vertex(vertex_id)
        incident = list(self._adjacency.incident_edge_ids(vertex_id, Direction.BOTH))
        for edge_id in incident:
            if edge_id in self._edges:
                self.remove_edge(edge_id)
        self._vertices_by_label[vertex.label].pop(vertex_id, None)
        if not self._vertices_by_label[vertex.label]:
            del self._vertices_by_label[vertex.label]
        del self._vertices[vertex_id]
        self._adjacency.remove_vertex(vertex_id)
        return vertex

    def remove_isolated_vertex(self, vertex_id: VertexId) -> bool:
        """Remove ``vertex_id`` if it is stored with no incident edge; say whether.

        Window eviction's path: it has just removed the vertex's last edge,
        so there is nothing to cascade to and :meth:`remove_vertex`'s
        incident-edge sweep would only re-prove that.
        """
        if self._adjacency.degree(vertex_id):
            return False
        vertex = self._vertices.pop(vertex_id, None)
        if vertex is None:
            return False
        labelled = self._vertices_by_label[vertex.label]
        del labelled[vertex_id]
        if not labelled:
            del self._vertices_by_label[vertex.label]
        self._adjacency.remove_vertex(vertex_id)
        return True

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(
        self,
        source: VertexId,
        target: VertexId,
        label: str,
        timestamp: Timestamp = 0.0,
        attrs: Optional[Mapping[str, Any]] = None,
        edge_id: Optional[EdgeId] = None,
        source_label: Optional[str] = None,
        target_label: Optional[str] = None,
    ) -> Edge:
        """Add a directed edge and return the stored :class:`Edge`.

        Endpoints must already exist unless ``source_label`` / ``target_label``
        are supplied, in which case missing endpoints are created on the fly
        -- the common case when ingesting a raw edge stream.
        """
        if not self.has_vertex(source):
            if source_label is None:
                raise VertexNotFoundError(source)
            self.add_vertex(source, source_label)
        if not self.has_vertex(target):
            if target_label is None:
                raise VertexNotFoundError(target)
            self.add_vertex(target, target_label)

        if edge_id is None:
            edge_id = self._next_edge_id
            self._next_edge_id += 1
        else:
            if edge_id in self._edges:
                raise DuplicateEdgeError(f"edge id {edge_id} already present")
            self._next_edge_id = max(self._next_edge_id, edge_id + 1)

        edge = Edge(edge_id, source, target, label, timestamp, attrs)
        self._edges[edge_id] = edge
        self._edges_by_label[label][edge_id] = None
        self._adjacency.add_edge(edge)
        if self._label_times:
            runs = self._label_times.get(label)
            if runs is not None:
                runs.append(edge_id, timestamp)
        return edge

    def insert_edge(self, edge: Edge, source_label: str = "node", target_label: str = "node") -> Edge:
        """Insert a pre-built :class:`Edge` object (used by stream replay).

        A fresh edge id is assigned when the supplied one collides with an
        existing edge.
        """
        edge_id: Optional[EdgeId] = edge.id
        if edge_id is None or edge_id in self._edges:
            edge_id = None
        return self.add_edge(
            edge.source,
            edge.target,
            edge.label,
            edge.timestamp,
            edge.attrs,
            edge_id=edge_id,
            source_label=source_label,
            target_label=target_label,
        )

    def has_edge(self, edge_id: EdgeId) -> bool:
        """Return ``True`` when an edge with this id is stored."""
        return edge_id in self._edges

    def edge(self, edge_id: EdgeId) -> Edge:
        """Return the stored :class:`Edge` or raise :class:`EdgeNotFoundError`."""
        try:
            return self._edges[edge_id]
        except KeyError:
            raise EdgeNotFoundError(edge_id) from None

    def edges(self, label: Optional[str] = None) -> Iterator[Edge]:
        """Iterate over stored edges, optionally restricted to one label."""
        if label is None:
            yield from self._edges.values()
            return
        for edge_id in self._edges_by_label.get(label, ()):
            yield self._edges[edge_id]

    def edge_ids(self, label: Optional[str] = None) -> Iterator[EdgeId]:
        """Iterate over stored edge identifiers."""
        if label is None:
            yield from self._edges.keys()
        else:
            yield from self._edges_by_label.get(label, ())

    def edge_count(self, label: Optional[str] = None) -> int:
        """Return the number of edges (optionally of a single label)."""
        if label is None:
            return len(self._edges)
        return len(self._edges_by_label.get(label, ()))

    def edge_labels(self) -> Set[str]:
        """Return the set of edge labels present in the graph."""
        return {label for label, ids in self._edges_by_label.items() if ids}

    def remove_edge(self, edge_id: EdgeId) -> Edge:
        """Remove an edge by id and return it."""
        edge = self.edge(edge_id)
        del self._edges[edge_id]
        self._edges_by_label[edge.label].pop(edge_id, None)
        if not self._edges_by_label[edge.label]:
            del self._edges_by_label[edge.label]
            self._label_times.pop(edge.label, None)
        elif self._label_times:
            runs = self._label_times.get(edge.label)
            if runs is not None:
                runs.discard(self._edges_by_label[edge.label])
        self._adjacency.remove_edge(edge)
        return edge

    def edges_between(
        self,
        source: VertexId,
        target: VertexId,
        label: Optional[str] = None,
        directed: bool = True,
    ) -> List[Edge]:
        """Return all edges from ``source`` to ``target`` (or either way)."""
        result: List[Edge] = []
        for edge_id in self._adjacency.incident_edge_ids(source, Direction.OUT, label):
            edge = self._edges[edge_id]
            if edge.target == target:
                result.append(edge)
        if not directed:
            for edge_id in self._adjacency.incident_edge_ids(source, Direction.IN, label):
                edge = self._edges[edge_id]
                if edge.source == target:
                    result.append(edge)
        return result

    # ------------------------------------------------------------------
    # columnar range scans
    # ------------------------------------------------------------------
    def edges_in_range(
        self, label: str, low: Timestamp, high: Timestamp
    ) -> Optional[List[Edge]]:
        """Edges with ``label`` and timestamp in ``[low, high]``, insertion order.

        Sorted-array range scan over a lazily-built per-label timestamp
        sidecar: while the label's ingest order is time-sorted (the normal
        case -- the batched fast path ingests non-decreasing runs) the range
        is one binary-searched contiguous slice whose order equals the plain
        ``edges(label)`` enumeration restricted to the range.  Returns
        ``None`` when the sidecar is unsorted (heavily disordered ingest for
        this label); callers fall back to ``edges(label)``, which is always
        correct.  Bounds are inclusive -- callers use the scan as a superset
        prefilter ahead of their exact window checks.
        """
        bucket = self._edges_by_label.get(label)
        if not bucket:
            self.range_scans += 1
            return []
        runs = self._label_times.get(label)
        if runs is None:
            edges = self._edges
            runs = EdgeTimeRuns.from_bucket(bucket, lambda eid: edges[eid].timestamp)
            self._label_times[label] = runs
        ids = runs.range_ids(low, high)
        if ids is None:
            self.range_scan_fallbacks += 1
            return None
        self.range_scans += 1
        edges = self._edges
        return [edges[edge_id] for edge_id in ids if edge_id in bucket]

    def incident_edges_in_range(
        self,
        vertex_id: VertexId,
        direction: str,
        label: str,
        low: Timestamp,
        high: Timestamp,
    ) -> Optional[List[Edge]]:
        """Incident ``label`` edges with timestamp in ``[low, high]``, ingest order.

        Timestamp-bounded adjacency enumeration backed by the adjacency
        index's per-(vertex, direction, label) sorted-array sidecars; order
        and fallback semantics mirror :meth:`edges_in_range` (``None`` =
        unsorted slot, fall back to :meth:`incident_edges`).
        """
        edges = self._edges
        ids = self._adjacency.incident_ids_in_range(
            vertex_id, direction, label, low, high, lambda eid: edges[eid].timestamp
        )
        if ids is None:
            self.range_scan_fallbacks += 1
            return None
        self.range_scans += 1
        return [edges[edge_id] for edge_id in ids]

    def range_scan_stats(self) -> Dict[str, int]:
        """Return the columnar range-scan counters (process-local)."""
        return {
            "range_scans": self.range_scans,
            "range_scan_fallbacks": self.range_scan_fallbacks,
        }

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def incident_edges(
        self,
        vertex_id: VertexId,
        direction: str = Direction.BOTH,
        label: Optional[str] = None,
    ) -> Iterator[Edge]:
        """Iterate over edges incident to ``vertex_id``.

        ``direction`` follows :class:`Direction`; ``label`` filters on the
        edge label.  This is the primitive the local search is built on.
        """
        for edge_id in self._adjacency.incident_edge_ids(vertex_id, direction, label):
            yield self._edges[edge_id]

    def neighbors(
        self,
        vertex_id: VertexId,
        direction: str = Direction.BOTH,
        label: Optional[str] = None,
    ) -> Set[VertexId]:
        """Return the set of neighbouring vertex ids."""
        result: Set[VertexId] = set()
        for edge in self.incident_edges(vertex_id, direction, label):
            result.add(edge.other_endpoint(vertex_id) if edge.source != edge.target else vertex_id)
        return result

    def degree(self, vertex_id: VertexId) -> int:
        """Return the total degree (in + out) of a vertex."""
        return self._adjacency.degree(vertex_id)

    def out_degree(self, vertex_id: VertexId) -> int:
        """Return the out degree of a vertex."""
        return self._adjacency.out_degree(vertex_id)

    def in_degree(self, vertex_id: VertexId) -> int:
        """Return the in degree of a vertex."""
        return self._adjacency.in_degree(vertex_id)

    # ------------------------------------------------------------------
    # whole-graph helpers
    # ------------------------------------------------------------------
    def subgraph(self, edge_ids: Iterable[EdgeId]) -> "PropertyGraph":
        """Return a new graph containing the given edges and their endpoints."""
        result = PropertyGraph()
        for edge_id in edge_ids:
            edge = self.edge(edge_id)
            for endpoint in edge.endpoints:
                vertex = self.vertex(endpoint)
                result.add_vertex(vertex.id, vertex.label, dict(vertex.attrs))
            result.add_edge(
                edge.source,
                edge.target,
                edge.label,
                edge.timestamp,
                dict(edge.attrs),
                edge_id=edge.id,
            )
        return result

    def copy(self) -> "PropertyGraph":
        """Return a deep-ish copy (vertices and edges are copied, attrs are copied)."""
        result = PropertyGraph()
        for vertex in self._vertices.values():
            result.add_vertex(vertex.id, vertex.label, dict(vertex.attrs))
        for edge in self._edges.values():
            result.add_edge(
                edge.source,
                edge.target,
                edge.label,
                edge.timestamp,
                dict(edge.attrs),
                edge_id=edge.id,
            )
        result._next_edge_id = self._next_edge_id
        return result

    def state_dict(self) -> Dict[str, Any]:
        """Serialise the full store into a JSON-friendly state dict.

        Vertices and edges are listed in their *insertion order* (the order
        the store enumerates them in), which is what
        :meth:`from_state` replays to reproduce every internal index --
        including the label buckets, whose iteration order is a correctness
        property of the engines (see :class:`AdjacencyIndex`).  Attribute
        values must be JSON-safe for the state to be writable.
        """
        return {
            "vertices": [
                [vertex.id, vertex.label, dict(vertex.attrs)]
                for vertex in self._vertices.values()
            ],
            "edges": [
                [edge.id, edge.source, edge.target, edge.label, edge.timestamp, dict(edge.attrs)]
                for edge in self._edges.values()
            ],
            "next_edge_id": self._next_edge_id,
            "adjacency_label_order": self._adjacency.label_order_state(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "PropertyGraph":
        """Rebuild a store from :meth:`state_dict` output (exact indexes)."""
        graph = cls()
        for vertex_id, label, attrs in state["vertices"]:
            graph.add_vertex(vertex_id, label, attrs)
        for edge_id, source, target, label, timestamp, attrs in state["edges"]:
            graph.add_edge(source, target, label, timestamp, attrs, edge_id=edge_id)
        graph._next_edge_id = state["next_edge_id"]
        graph._adjacency.apply_label_order(state.get("adjacency_label_order", ()))
        return graph

    def clear(self) -> None:
        """Remove every vertex and edge."""
        self._vertices.clear()
        self._edges.clear()
        self._adjacency.clear()
        self._edges_by_label.clear()
        self._vertices_by_label.clear()
        self._label_times.clear()
        self._next_edge_id = 0

    def to_networkx(self):  # pragma: no cover - optional interoperability helper
        """Convert to a ``networkx.MultiDiGraph`` when networkx is installed.

        networkx is *not* a dependency of the hot path; this helper exists
        only for ad-hoc analysis and plotting.
        """
        import networkx as nx

        g = nx.MultiDiGraph()
        for vertex in self._vertices.values():
            g.add_node(vertex.id, label=vertex.label, **vertex.attrs)
        for edge in self._edges.values():
            g.add_edge(
                edge.source,
                edge.target,
                key=edge.id,
                label=edge.label,
                timestamp=edge.timestamp,
                **edge.attrs,
            )
        return g

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PropertyGraph(|V|={self.vertex_count()}, |E|={self.edge_count()})"
