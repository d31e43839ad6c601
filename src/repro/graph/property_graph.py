"""In-memory multi-relational property graph store.

This is the static storage substrate used by StreamWorks: a directed
multigraph whose vertices and edges carry labels and attribute maps.  The
dynamic (windowed) behaviour is layered on top in
:mod:`repro.graph.dynamic_graph`.

Each stored vertex is one :class:`~repro.graph.adjacency.VertexRecord`
holding its label, attrs, live degree and label-keyed edge slots, so the
incremental matcher's local searches stay proportional to the size of the
neighbourhood being explored, and an edge touches each endpoint with one
dict lookup on ingest and on removal.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .adjacency import EdgeSlot, VertexRecord
from .types import (
    Direction,
    DuplicateEdgeError,
    DuplicateVertexError,
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
    (upserts, removal for window eviction).  Every label-filtered
    enumeration follows ingest order, never the hash order of engine-local
    ids, so engines fed the same stream enumerate (and emit) in the same
    order regardless of id numbering.
    """

    def __init__(self) -> None:
        self._vertices: Dict[VertexId, VertexRecord] = {}
        self._edges: Dict[EdgeId, Edge] = {}
        # live edges per label, recounted by from_state's replay; the
        # label-filtered reads derive from ``_edges`` (see :meth:`edges`)
        self._label_counts: Dict[str, int] = {}  # repro-lint: ignore[snapshot-coverage]
        self._vertices_by_label: Dict[str, Dict[VertexId, None]] = {}
        self._next_edge_id: int = 0
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
        with a *different* label raises :class:`DuplicateVertexError` -- in a
        multi-relational graph a vertex identity has exactly one type.

        Stream contract: a stream gives each live vertex id one label.  The
        engine relies on it twice -- it routes a record by its endpoints'
        labels *before* storing it (the stored label, else the record's
        own), and the sharded router routes records by label -- so a record
        naming a live vertex under another label is outside the contract.
        """
        existing = self._vertices.get(vertex_id)
        if existing is None:
            return self._new_vertex(vertex_id, label, attrs)
        if existing.label != label:
            raise DuplicateVertexError(
                f"vertex {vertex_id!r} already exists with label {existing.label!r}, "
                f"cannot re-add with label {label!r}"
            )
        if attrs:
            existing.attrs.update(attrs)
        return existing

    def _new_vertex(
        self, vertex_id: VertexId, label: str, attrs: Optional[Mapping[str, Any]] = None
    ) -> VertexRecord:
        record = self._vertices[vertex_id] = VertexRecord(vertex_id, label, attrs)
        self._vertices_by_label.setdefault(label, {})[vertex_id] = None
        return record

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

    def vertices(self, label: Optional[str] = None) -> Iterator[VertexRecord]:
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
        return set(self._vertices_by_label)

    def remove_vertex(self, vertex_id: VertexId) -> Vertex:
        """Remove a vertex and all of its incident edges."""
        record = self._vertices.get(vertex_id)
        if record is None:
            raise VertexNotFoundError(vertex_id)
        # a self loop is listed twice, OUT and IN: the second is skipped
        self.discard_edges(list(self.incident_edges(vertex_id)))
        self._drop_vertex(record)
        return record

    def remove_isolated_vertex(self, vertex_id: VertexId) -> bool:
        """Remove ``vertex_id`` if it is stored with no incident edge; say whether."""
        record = self._vertices.get(vertex_id)
        if record is None or record.degree:
            return False
        self._drop_vertex(record)
        return True

    def _drop_vertex(self, record: VertexRecord) -> None:
        del self._vertices[record.id]
        labelled = self._vertices_by_label[record.label]
        del labelled[record.id]
        if not labelled:
            del self._vertices_by_label[record.label]

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
        vertices = self._vertices
        source_record = vertices.get(source)
        if source_record is None:
            if source_label is None:
                raise VertexNotFoundError(source)
            source_record = self._new_vertex(source, source_label)
        target_record = vertices.get(target)
        if target_record is None:
            if target_label is None:
                raise VertexNotFoundError(target)
            target_record = self._new_vertex(target, target_label)

        if edge_id is None:
            edge_id = self._next_edge_id
            self._next_edge_id += 1
        else:
            if edge_id in self._edges:
                raise DuplicateEdgeError(f"edge id {edge_id} already present")
            self._next_edge_id = max(self._next_edge_id, edge_id + 1)

        edge = Edge(edge_id, source, target, label, timestamp, attrs)
        self._edges[edge_id] = edge
        counts = self._label_counts
        counts[label] = counts.get(label, 0) + 1
        slot = source_record.out.get(label)
        if slot is None:
            slot = source_record.out[label] = EdgeSlot()
        slot.append(edge)
        slot = target_record.in_.get(label)
        if slot is None:
            slot = target_record.in_[label] = EdgeSlot()
        slot.append(edge)
        source_record.degree += 1
        target_record.degree += 1
        return edge

    def insert_edge(self, edge: Edge, source_label: str = "node", target_label: str = "node") -> Edge:
        """Insert a pre-built :class:`Edge` object (used by stream replay).

        A fresh edge id is assigned when the supplied one collides with an
        existing edge.  The stored edge shares ``edge.attrs`` (see
        :class:`~repro.graph.types.Edge`).
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
        """Iterate over stored edges in ingest order, optionally of one label only.

        A label filter walks every edge (only static searches read by label)
        into a list, so the store may change while the result is consumed.
        """
        if label is None:
            return iter(self._edges.values())
        return iter([edge for edge in self._edges.values() if edge.label == label])

    def edge_ids(self, label: Optional[str] = None) -> Iterator[EdgeId]:
        """Iterate over stored edge identifiers."""
        if label is None:
            return iter(self._edges.keys())
        return (edge.id for edge in self.edges(label))

    def edge_count(self, label: Optional[str] = None) -> int:
        """Return the number of edges (optionally of a single label)."""
        if label is None:
            return len(self._edges)
        return self._label_counts.get(label, 0)

    def edge_labels(self) -> Set[str]:
        """Return the set of edge labels present in the graph."""
        return set(self._label_counts)

    def remove_edge(self, edge_id: EdgeId) -> Edge:
        """Remove an edge by id and return it."""
        edge = self.edge(edge_id)
        self.discard_edge(edge)
        return edge

    def discard_edge(self, edge: Edge, drop_isolated: bool = False) -> bool:
        """Remove ``edge`` if it is the stored edge of its id; say whether."""
        return bool(self.discard_edges((edge,), drop_isolated))

    def discard_edges(self, edges: Iterable[Edge], drop_isolated: bool = False) -> List[Edge]:
        """Remove each of ``edges`` that is the stored edge of its id; return those removed.

        Window eviction's path: the edge objects are in hand, so each
        endpoint record is looked up once per edge, and with
        ``drop_isolated`` an endpoint left without edges is removed on the
        spot (there is nothing for :meth:`remove_vertex` to cascade to).
        """
        stored = self._edges
        vertices = self._vertices
        counts = self._label_counts
        removed: List[Edge] = []
        for edge in edges:
            edge_id = edge.id
            if stored.get(edge_id) is not edge:
                continue
            del stored[edge_id]
            removed.append(edge)
            label = edge.label
            counts[label] -= 1
            if not counts[label]:
                del counts[label]
            source_record = vertices[edge.source]
            target_record = vertices[edge.target]
            slots = source_record.out
            if not slots[label].remove(edge):
                del slots[label]
            slots = target_record.in_
            if not slots[label].remove(edge):
                del slots[label]
            source_record.degree -= 1
            target_record.degree -= 1
            if drop_isolated:
                if not source_record.degree:
                    self._drop_vertex(source_record)
                if target_record is not source_record and not target_record.degree:
                    self._drop_vertex(target_record)
        return removed

    def edges_between(
        self,
        source: VertexId,
        target: VertexId,
        label: Optional[str] = None,
        directed: bool = True,
    ) -> List[Edge]:
        """Return all edges from ``source`` to ``target`` (or either way)."""
        result = [
            edge
            for edge in self.incident_edges(source, Direction.OUT, label)
            if edge.target == target
        ]
        if not directed:
            result.extend(
                edge
                for edge in self.incident_edges(source, Direction.IN, label)
                if edge.source == target
            )
        return result

    # ------------------------------------------------------------------
    # columnar range scans
    # ------------------------------------------------------------------
    def edges_in_range(self, label: str, low: Timestamp, high: Timestamp) -> List[Edge]:
        """Edges with ``label`` and timestamp in ``[low, high]``, in ingest order.

        The :meth:`edges` walk filtered by timestamp, so exact on any ingest
        order; not counted in ``range_scans`` (per-vertex slot scans only).
        """
        return [
            edge
            for edge in self._edges.values()
            if edge.label == label and low <= edge.timestamp <= high
        ]

    def incident_edges_in_range(
        self,
        vertex_id: VertexId,
        direction: str,
        label: str,
        low: Timestamp,
        high: Timestamp,
    ) -> Optional[List[Edge]]:
        """Incident ``label`` edges with timestamp in ``[low, high]``, ingest order.

        Timestamp-bounded adjacency enumeration over the vertex record's
        slots: two bisections and a slice per slot while its entries are
        time-sorted (the normal case -- the engine ingests non-decreasing
        runs).  Returns ``None`` when a slot is unsorted (disordered ingest
        into it); callers fall back to :meth:`incident_edges`, which is
        always correct.  Bounds are inclusive.  ``Direction.BOTH`` lists
        OUT then IN, a self loop (filed under both) once, with OUT.
        """
        record = self._vertices.get(vertex_id)
        found: Optional[List[Edge]] = []
        if record is not None:
            if direction == Direction.OUT:
                slot = record.out.get(label)
                if slot is not None:
                    found = slot.between(low, high)
            elif direction == Direction.IN:
                slot = record.in_.get(label)
                if slot is not None:
                    found = slot.between(low, high)
            else:
                found = _between(record.out, label, low, high)
                entering = _between(record.in_, label, low, high)
                if found is None or entering is None:
                    found = None
                elif entering:
                    found.extend(edge for edge in entering if edge.source != vertex_id)
        if found is None:
            self.range_scan_fallbacks += 1
            return None
        self.range_scans += 1
        return found

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
        Edges come slot by slot -- OUT before IN, labels in their slot
        order -- and in ingest order within a slot; with ``BOTH`` a self
        loop comes twice.
        """
        record = self._vertices.get(vertex_id)
        if record is None:
            return iter(())
        if direction == Direction.OUT:
            maps: Tuple[Dict[str, EdgeSlot], ...] = (record.out,)
        elif direction == Direction.IN:
            maps = (record.in_,)
        elif direction == Direction.BOTH:
            maps = (record.out, record.in_)
        else:
            return iter(())
        if label is None:
            return chain.from_iterable(slot.live() for slots in maps for slot in slots.values())
        if len(maps) == 1:
            slot = maps[0].get(label)
            return iter(() if slot is None else slot.live())
        return chain.from_iterable(
            slot.live() for slot in (record.out.get(label), record.in_.get(label)) if slot is not None
        )

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
        record = self._vertices.get(vertex_id)
        return 0 if record is None else record.degree

    def out_degree(self, vertex_id: VertexId) -> int:
        """Return the out degree of a vertex."""
        record = self._vertices.get(vertex_id)
        return 0 if record is None else sum(map(len, record.out.values()))

    def in_degree(self, vertex_id: VertexId) -> int:
        """Return the in degree of a vertex."""
        record = self._vertices.get(vertex_id)
        return 0 if record is None else sum(map(len, record.in_.values()))

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
        the store enumerates them in), which is what :meth:`from_state`
        replays to reproduce every slot.  Replay alone does not reproduce
        the label key order of a vertex's slots: a slot keeps its place as
        long as one live edge holds it open, even after the edge that
        created it was evicted, so that order is a function of the whole
        ingest/evict history.  ``incident_edges`` with no label enumerates
        in it -- which feeds local search and therefore match emission
        order -- so ``adjacency_label_order`` records it for every
        (vertex, direction) with two or more labels.  Attribute values must
        be JSON-safe for the state to be writable.
        """
        label_order: List[Tuple[VertexId, str, List[str]]] = []
        for record in self._vertices.values():
            if len(record.out) > 1:
                label_order.append((record.id, Direction.OUT, list(record.out)))
            if len(record.in_) > 1:
                label_order.append((record.id, Direction.IN, list(record.in_)))
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
            "adjacency_label_order": label_order,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "PropertyGraph":
        """Rebuild a store from :meth:`state_dict` output (exact slots and orders).

        Raises ``KeyError`` or ``ValueError`` when ``adjacency_label_order``
        names other vertices or labels than the replay rebuilt.
        """
        graph = cls()
        for vertex_id, label, attrs in state["vertices"]:
            graph.add_vertex(vertex_id, label, attrs)
        for edge_id, source, target, label, timestamp, attrs in state["edges"]:
            graph.add_edge(source, target, label, timestamp, attrs, edge_id=edge_id)
        graph._next_edge_id = state["next_edge_id"]
        for vertex_id, direction, labels in state["adjacency_label_order"]:
            record = graph._vertices[vertex_id]
            slots = record.out if direction == Direction.OUT else record.in_
            ordered = {label: slots[label] for label in labels}
            if len(ordered) != len(slots):
                raise ValueError(
                    f"vertex {vertex_id!r}: the recorded {direction} label order "
                    f"{labels} leaves out some of {list(slots)}"
                )
            if direction == Direction.OUT:
                record.out = ordered
            else:
                record.in_ = ordered
        return graph

    def clear(self) -> None:
        """Remove every vertex and edge."""
        self._vertices.clear()
        self._edges.clear()
        self._label_counts.clear()
        self._vertices_by_label.clear()
        self._next_edge_id = 0

    def to_networkx(self) -> Any:  # pragma: no cover - optional interoperability helper
        """Convert to a ``networkx.MultiDiGraph`` when networkx is installed.

        networkx is *not* a dependency of the hot path; this helper exists
        only for ad-hoc analysis and plotting.
        """
        import networkx as nx  # type: ignore[import]

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


def _between(
    slots: Dict[str, EdgeSlot], label: str, low: Timestamp, high: Timestamp
) -> Optional[List[Edge]]:
    slot = slots.get(label)
    return [] if slot is None else slot.between(low, high)
