"""Dynamic (streaming, windowed) multi-relational graph store.

A :class:`DynamicGraph` wraps a :class:`~repro.graph.property_graph.PropertyGraph`
and adds the temporal behaviour StreamWorks relies on:

* edges arrive from a stream in (approximately) timestamp order and carry the
  current *stream time* forward;
* edges older than the retention window are evicted so memory stays bounded;
* vertices that lose their last incident edge are evicted with it.

The retention window defaults to the query window ``tW`` -- an edge that has
aged out of the query window can never contribute to a new match, so keeping
it would only slow the local searches down.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .property_graph import PropertyGraph
from .types import Direction, Edge, EdgeId, Timestamp, Vertex, VertexId
from .window import TimeWindow

__all__ = ["DynamicGraph"]


class DynamicGraph:
    """A sliding-window view over a stream of timestamped edges.

    Parameters
    ----------
    window:
        Retention window.  ``None`` keeps the full history (useful for the
        repeated-search baseline and for tests).
    out_of_order_tolerance:
        Maximum allowed lateness (in time units) for an incoming edge.  Edges
        older than ``current_time - tolerance`` are rejected with
        ``ValueError`` to protect the monotone-eviction invariant; ``None``
        accepts any lateness (the stream time never moves backwards).
    """

    def __init__(
        self,
        window: Optional[TimeWindow] = None,
        out_of_order_tolerance: Optional[float] = None,
    ) -> None:
        self.graph = PropertyGraph()
        self.window = window if window is not None else TimeWindow(None)
        self.out_of_order_tolerance = out_of_order_tolerance
        # the expiry order: edges whose timestamp does not decrease queue
        # here, the late ones go to a side heap keyed (timestamp, edge id);
        # both are rebuilt from the retained edges on from_state
        self._fifo: Deque[Edge] = deque()  # repro-lint: ignore[snapshot-coverage]
        self._late: List[Tuple[Timestamp, EdgeId, Edge]] = []  # repro-lint: ignore[snapshot-coverage]
        self._current_time: float = float("-inf")
        self._edges_ingested = 0
        self._edges_evicted = 0

    # ------------------------------------------------------------------
    # stream time
    # ------------------------------------------------------------------
    @property
    def current_time(self) -> float:
        """Return the largest timestamp ingested so far (``-inf`` when empty)."""
        return self._current_time

    def advance_time(self, now: Timestamp) -> None:
        """Advance the stream clock to ``now`` without ingesting or evicting.

        A no-op when ``now`` is behind the current clock.  The sharded
        engine uses this to pin a shard graph's clock to the *global*
        stream time: a shard only ingests the records routed to it, so its
        own clock lags whenever newer records went elsewhere, and a lagging
        clock makes the eviction inside :meth:`ingest` keep a
        dead-on-arrival late edge (one already outside the retention
        horizon) that the single engine would have evicted before matching
        it.  Eviction itself stays the caller's move (:meth:`evict_expired`).
        """
        if now > self._current_time:
            self._current_time = float(now)

    @property
    def edges_ingested(self) -> int:
        """Total number of edges ever ingested."""
        return self._edges_ingested

    @property
    def edges_evicted(self) -> int:
        """Total number of edges evicted by the window."""
        return self._edges_evicted

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(
        self,
        source: VertexId,
        target: VertexId,
        label: str,
        timestamp: Timestamp,
        attrs: Optional[Mapping[str, Any]] = None,
        source_label: str = "node",
        target_label: str = "node",
        source_attrs: Optional[Mapping[str, Any]] = None,
        target_attrs: Optional[Mapping[str, Any]] = None,
        evict: bool = True,
    ) -> Edge:
        """Ingest a single raw edge and return the stored :class:`Edge`.

        Advances stream time, stores the edge, then evicts anything that has
        fallen out of the retention window.  ``source_attrs`` / ``target_attrs``
        are merged into the endpoint vertices (created if missing), which is
        how streams convey vertex attributes such as a keyword's topic label.

        ``evict=False`` defers the eviction sweep: the engine's batched ingest
        fast path ingests a whole batch before matching any of its edges, and
        evicting eagerly against the *latest* timestamp of the batch would
        remove edges that earlier edges of the same batch can still legally
        match against.  Callers deferring eviction must call
        :meth:`evict_expired` themselves once the batch has been processed.
        """
        timestamp = float(timestamp)
        if source_attrs:
            self.graph.add_vertex(source, source_label, source_attrs)
        if target_attrs:
            self.graph.add_vertex(target, target_label, target_attrs)
        if self.out_of_order_tolerance is not None and self._current_time != float("-inf"):
            if timestamp < self._current_time - self.out_of_order_tolerance:
                raise ValueError(
                    f"edge timestamp {timestamp} is older than the allowed lateness "
                    f"({self._current_time} - {self.out_of_order_tolerance})"
                )
        edge = self.graph.add_edge(
            source,
            target,
            label,
            timestamp,
            attrs,
            source_label=source_label,
            target_label=target_label,
        )
        self._edges_ingested += 1
        if timestamp > self._current_time:
            self._current_time = timestamp
        self._enqueue(edge)
        if evict:
            self.evict_expired()
        return edge

    def ingest_edge(self, edge: Edge, source_label: str = "node", target_label: str = "node") -> Edge:
        """Ingest a pre-built :class:`Edge` (its id may be reassigned; its attrs dict is shared)."""
        return self.ingest(
            edge.source,
            edge.target,
            edge.label,
            edge.timestamp,
            edge.attrs,
            source_label=source_label,
            target_label=target_label,
        )

    def ingest_many(self, edges: Iterable[Edge]) -> List[Edge]:
        """Ingest a batch of pre-built edges, returning the stored copies."""
        return [self.ingest_edge(edge) for edge in edges]

    def add_vertex(
        self, vertex_id: VertexId, label: str, attrs: Optional[Mapping[str, Any]] = None
    ) -> Vertex:
        """Add (or update) a vertex out of band of the edge stream."""
        return self.graph.add_vertex(vertex_id, label, attrs)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _enqueue(self, edge: Edge) -> None:
        """Queue ``edge`` for expiry: the deque unless it is older than the deque's tail."""
        fifo = self._fifo
        if not fifo or edge.timestamp >= fifo[-1].timestamp:
            fifo.append(edge)
        else:
            heappush(self._late, (edge.timestamp, edge.id, edge))

    def evict_expired(self, now: Optional[Timestamp] = None) -> List[Edge]:
        """Evict edges older than the retention window and return them.

        Edges leave in (timestamp, ingest) order: the queue's head and the
        late heap's top are merged, so on in-order input the sweep is a run
        of ``popleft`` calls, and every slot it touches gives up its head.
        An edge at the threshold has span ``tW``, which the window does not
        admit, so it leaves too.  One :meth:`PropertyGraph.discard_edges`
        call unfiles them all, skipping edges already removed out of band,
        and drops the vertices left with no incident edge.
        """
        window = self.window
        if not window.bounded:
            return []
        if now is None:
            now = self._current_time
        threshold = window.expiry_threshold(now)
        fifo = self._fifo
        late = self._late
        due: List[Edge] = []
        while late or fifo:
            if late and (
                not fifo or (late[0][0], late[0][1]) < (fifo[0].timestamp, fifo[0].id)
            ):
                if late[0][0] > threshold:
                    break
                due.append(heappop(late)[2])
            else:
                if fifo[0].timestamp > threshold:
                    break
                due.append(fifo.popleft())
        evicted = self.graph.discard_edges(due, drop_isolated=True)
        self._edges_evicted += len(evicted)
        return evicted

    # ------------------------------------------------------------------
    # read API (delegation to the underlying property graph)
    # ------------------------------------------------------------------
    def has_vertex(self, vertex_id: VertexId) -> bool:
        """Return ``True`` when the vertex is currently retained."""
        return self.graph.has_vertex(vertex_id)

    def vertex(self, vertex_id: VertexId) -> Vertex:
        """Return a retained vertex."""
        return self.graph.vertex(vertex_id)

    def has_edge(self, edge_id: EdgeId) -> bool:
        """Return ``True`` when the edge is currently retained."""
        return self.graph.has_edge(edge_id)

    def edge(self, edge_id: EdgeId) -> Edge:
        """Return a retained edge."""
        return self.graph.edge(edge_id)

    def edges(self, label: Optional[str] = None) -> Iterator[Edge]:
        """Iterate over retained edges."""
        return self.graph.edges(label)

    def vertices(self, label: Optional[str] = None) -> Iterator[Vertex]:
        """Iterate over retained vertices."""
        return self.graph.vertices(label)

    def edges_in_range(self, label: str, low: float, high: float) -> List[Edge]:
        """Retained ``label`` edges in a timestamp range (see :meth:`PropertyGraph.edges_in_range`)."""
        return self.graph.edges_in_range(label, low, high)

    def incident_edges_in_range(
        self,
        vertex_id: VertexId,
        direction: str,
        label: str,
        low: float,
        high: float,
    ) -> Optional[List[Edge]]:
        """Timestamp-bounded adjacency scan (see :meth:`PropertyGraph.incident_edges_in_range`)."""
        return self.graph.incident_edges_in_range(vertex_id, direction, label, low, high)

    def range_scan_stats(self) -> Dict[str, int]:
        """Return the store's columnar range-scan counters."""
        return self.graph.range_scan_stats()

    def incident_edges(
        self,
        vertex_id: VertexId,
        direction: str = Direction.BOTH,
        label: Optional[str] = None,
    ) -> Iterator[Edge]:
        """Iterate over retained edges incident to a vertex."""
        return self.graph.incident_edges(vertex_id, direction, label)

    def degree(self, vertex_id: VertexId) -> int:
        """Return the retained degree of a vertex."""
        return self.graph.degree(vertex_id)

    def vertex_count(self, label: Optional[str] = None) -> int:
        """Return the number of retained vertices."""
        return self.graph.vertex_count(label)

    def edge_count(self, label: Optional[str] = None) -> int:
        """Return the number of retained edges."""
        return self.graph.edge_count(label)

    def snapshot(self) -> PropertyGraph:
        """Return an independent copy of the currently retained graph."""
        return self.graph.copy()

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serialise the windowed store (graph + clock + counters).

        The expiry queue and late heap are not serialised: they are rebuilt
        from the retained edges, in ingest order, on :meth:`from_state`.
        Entries for edges removed out of band are dropped by the rebuild,
        which is behaviour-preserving -- the sweep skips them anyway -- and
        the sweep order, (timestamp, ingest), is the original's for every
        edge that can still expire.
        """
        return {
            "graph": self.graph.state_dict(),
            "window": {"duration": self.window.duration if self.window.bounded else None},
            "out_of_order_tolerance": self.out_of_order_tolerance,
            "current_time": self._current_time,
            "edges_ingested": self._edges_ingested,
            "edges_evicted": self._edges_evicted,
        }

    @classmethod
    def from_state(cls, state: dict) -> "DynamicGraph":
        """Rebuild a windowed store from :meth:`state_dict` output."""
        graph = cls(
            window=TimeWindow(state["window"]["duration"]),
            out_of_order_tolerance=state["out_of_order_tolerance"],
        )
        graph.graph = PropertyGraph.from_state(state["graph"])
        graph._current_time = float(state["current_time"])
        graph._edges_ingested = state["edges_ingested"]
        graph._edges_evicted = state["edges_evicted"]
        for edge in graph.graph.edges():
            graph._enqueue(edge)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicGraph(|V|={self.vertex_count()}, |E|={self.edge_count()}, "
            f"t={self._current_time}, window={self.window})"
        )
