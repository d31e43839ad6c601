"""Adjacency indexes for label-aware neighbourhood lookups.

StreamWorks performs a *local search* around every incoming edge (paper
section 4.1): given a new edge, the engine looks for nearby edges whose type
matches the next query edge of a search primitive.  To keep that lookup
proportional to the size of the local neighbourhood -- and never a scan of the
whole graph -- the graph store maintains an :class:`AdjacencyIndex` keyed by
``(vertex, direction, edge label)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .types import Direction, Edge, EdgeId, Timestamp, VertexId

__all__ = ["AdjacencyIndex", "EdgeTimeRuns"]


class EdgeTimeRuns:
    """Sorted-array timestamp sidecar over one insertion-ordered edge bucket.

    Parallel ``times`` / ``ids`` arrays mirror a bucket's insertion order, so
    while the times are non-decreasing (the overwhelmingly common case -- the
    engine's batched fast path ingests non-decreasing runs) a timestamp range
    resolves to one contiguous slice via binary search, *in insertion order*.
    The moment an out-of-order append lands, :attr:`is_sorted` trips and
    range queries return ``None`` -- the caller falls back to the plain
    linear enumeration, which is always correct -- until a compaction finds
    the surviving entries sorted again.  Removals are lazy (a dead counter;
    liveness is re-checked against the owning bucket at query time) with
    periodic compaction so the arrays track the live bucket's size.
    """

    __slots__ = ("times", "ids", "is_sorted", "dead")

    def __init__(self) -> None:
        self.times: List[Timestamp] = []
        self.ids: List[EdgeId] = []
        self.is_sorted = True
        self.dead = 0

    @classmethod
    def from_bucket(
        cls, bucket: Iterable[EdgeId], resolve_ts: Callable[[EdgeId], Timestamp]
    ) -> "EdgeTimeRuns":
        """Build a sidecar from an existing bucket (lazy first-query path)."""
        runs = cls()
        for edge_id in bucket:
            runs.append(edge_id, resolve_ts(edge_id))
        return runs

    def append(self, edge_id: EdgeId, timestamp: Timestamp) -> None:
        """Mirror a bucket insertion."""
        if self.times and timestamp < self.times[-1]:
            self.is_sorted = False
        self.times.append(timestamp)
        self.ids.append(edge_id)

    def discard(self, live: Iterable[EdgeId]) -> None:
        """Mirror a bucket removal; ``live`` is the bucket's surviving ids."""
        self.dead += 1
        if self.dead * 2 > len(self.ids):
            self.compact(live)

    def compact(self, live: Iterable[EdgeId]) -> None:
        """Drop dead entries (and re-detect sortedness of the survivors)."""
        live_set = live if isinstance(live, (dict, set, frozenset)) else set(live)
        pairs = [
            (timestamp, edge_id)
            for timestamp, edge_id in zip(self.times, self.ids)
            if edge_id in live_set
        ]
        self.times = [timestamp for timestamp, _ in pairs]
        self.ids = [edge_id for _, edge_id in pairs]
        self.dead = 0
        self.is_sorted = all(
            earlier <= later for earlier, later in zip(self.times, self.times[1:])
        )

    def range_ids(self, low: Timestamp, high: Timestamp) -> Optional[List[EdgeId]]:
        """Ids with ``low <= ts <= high`` in insertion order; ``None`` = unsorted.

        May include ids already removed from the bucket -- callers filter by
        bucket membership.  Inclusive on both bounds (callers use this as a
        superset prefilter ahead of an exact span check).
        """
        if not self.is_sorted:
            return None
        start = bisect_left(self.times, low)
        stop = bisect_right(self.times, high)
        return self.ids[start:stop]


class AdjacencyIndex:
    """Index of incident edge ids per vertex, direction and edge label.

    The index stores only edge identifiers; the caller resolves them through
    the owning graph.  Removal is supported so that the sliding-window store
    can evict expired edges.

    Edge ids are held in insertion-ordered dictionaries (used as ordered
    sets), so incident edges always enumerate in ingest order.  This is a
    correctness property, not a nicety: the sharded engine compares and
    merges matches across engines whose edge ids differ (each shard numbers
    its own ingest stream), and hash-ordered ``set`` iteration would make
    the enumeration order -- and therefore the emitted event order -- depend
    on the numeric ids rather than on the stream.
    """

    def __init__(self) -> None:
        # vertex -> direction -> label -> ordered set (dict) of edge ids
        self._by_vertex: Dict[VertexId, Dict[str, Dict[str, Dict[EdgeId, None]]]] = {}
        # vertex -> total incident edge count (in + out, self loops count twice)
        self._degree: Dict[VertexId, int] = defaultdict(int)
        # lazily-built timestamp sidecars for range-scanned slots, keyed
        # vertex -> (direction, label); a sidecar only exists for slots the
        # compiled hot path has actually range-queried, so the common ingest
        # path pays at most one empty-dict probe per endpoint
        self._times: Dict[VertexId, Dict[Tuple[str, str], EdgeTimeRuns]] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_edge(self, edge: Edge) -> None:
        """Register ``edge`` under both of its endpoints."""
        self._slot(edge.source, Direction.OUT, edge.label)[edge.id] = None
        self._slot(edge.target, Direction.IN, edge.label)[edge.id] = None
        self._degree[edge.source] += 1
        self._degree[edge.target] += 1
        if self._times:
            self._times_append(edge.source, Direction.OUT, edge)
            self._times_append(edge.target, Direction.IN, edge)

    def remove_edge(self, edge: Edge) -> None:
        """Remove ``edge`` from the index; missing entries are ignored."""
        self._discard(edge.source, Direction.OUT, edge.label, edge.id)
        self._discard(edge.target, Direction.IN, edge.label, edge.id)
        for endpoint in (edge.source, edge.target):
            if endpoint in self._degree:
                self._degree[endpoint] -= 1
                if self._degree[endpoint] <= 0:
                    del self._degree[endpoint]
        if self._times:
            self._times_discard(edge.source, Direction.OUT, edge.label)
            self._times_discard(edge.target, Direction.IN, edge.label)

    def remove_vertex(self, vertex_id: VertexId) -> None:
        """Drop all index entries rooted at ``vertex_id``.

        The caller is responsible for removing the corresponding entries from
        the opposite endpoints (normally by removing the edges first).
        """
        self._by_vertex.pop(vertex_id, None)
        self._degree.pop(vertex_id, None)
        self._times.pop(vertex_id, None)

    def clear(self) -> None:
        """Remove every entry from the index."""
        self._by_vertex.clear()
        self._degree.clear()
        self._times.clear()

    def _times_append(self, vertex_id: VertexId, direction: str, edge: Edge) -> None:
        per_slot = self._times.get(vertex_id)
        if per_slot is None:
            return
        runs = per_slot.get((direction, edge.label))
        if runs is not None:
            runs.append(edge.id, edge.timestamp)

    def _times_discard(self, vertex_id: VertexId, direction: str, label: str) -> None:
        per_slot = self._times.get(vertex_id)
        if per_slot is None:
            return
        runs = per_slot.get((direction, label))
        if runs is None:
            return
        bucket = self._bucket(vertex_id, direction, label)
        if bucket is None:
            # the slot emptied out entirely; the sidecar dies with it (a
            # recreated slot gets a fresh lazy build on its next range query)
            del per_slot[(direction, label)]
            if not per_slot:
                del self._times[vertex_id]
        else:
            runs.discard(bucket)

    def _bucket(
        self, vertex_id: VertexId, direction: str, label: str
    ) -> Optional[Dict[EdgeId, None]]:
        per_direction = self._by_vertex.get(vertex_id)
        if not per_direction:
            return None
        per_label = per_direction.get(direction)
        if not per_label:
            return None
        return per_label.get(label)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def incident_edge_ids(
        self,
        vertex_id: VertexId,
        direction: str = Direction.BOTH,
        label: Optional[str] = None,
    ) -> Iterator[EdgeId]:
        """Yield ids of edges incident to ``vertex_id``.

        Parameters
        ----------
        vertex_id:
            The anchor vertex.
        direction:
            ``Direction.OUT`` for edges leaving the vertex, ``Direction.IN``
            for edges entering it, ``Direction.BOTH`` for either.
        label:
            When given, only edges with this label are returned.
        """
        per_direction = self._by_vertex.get(vertex_id)
        if not per_direction:
            return
        if direction == Direction.BOTH:
            directions: Tuple[str, ...] = (Direction.OUT, Direction.IN)
        else:
            directions = (direction,)
        for d in directions:
            per_label = per_direction.get(d)
            if not per_label:
                continue
            if label is None:
                for edge_ids in per_label.values():
                    yield from edge_ids
            else:
                yield from per_label.get(label, ())

    def incident_ids_in_range(
        self,
        vertex_id: VertexId,
        direction: str,
        label: str,
        low: Timestamp,
        high: Timestamp,
        resolve_ts: Callable[[EdgeId], Timestamp],
    ) -> Optional[List[EdgeId]]:
        """Ids of ``label`` edges at ``vertex_id`` with timestamp in ``[low, high]``.

        The sorted-array fast path for timestamp-bounded adjacency
        enumeration: per (direction, label) slot a lazily-built
        :class:`EdgeTimeRuns` sidecar answers the range with binary search
        over one contiguous slice, preserving the slot's insertion order
        exactly.  ``Direction.BOTH`` concatenates OUT then IN, listing a
        self loop (filed under both slots) once, with OUT.  Returns ``None`` when
        any touched sidecar is unsorted (heavily disordered ingest at this
        slot); the caller must fall back to the plain enumeration.
        ``resolve_ts`` resolves an edge id to its timestamp for the lazy
        first build (the index itself stores only ids).
        """
        if direction == Direction.BOTH:
            directions: Tuple[str, ...] = (Direction.OUT, Direction.IN)
        else:
            directions = (direction,)
        result: List[EdgeId] = []
        listed: Optional[Dict[EdgeId, None]] = None
        for d in directions:
            bucket = self._bucket(vertex_id, d, label)
            if not bucket:
                continue
            per_slot = self._times.setdefault(vertex_id, {})
            runs = per_slot.get((d, label))
            if runs is None:
                runs = EdgeTimeRuns.from_bucket(bucket, resolve_ts)
                per_slot[(d, label)] = runs
            ids = runs.range_ids(low, high)
            if ids is None:
                return None
            if listed is None:
                result.extend(edge_id for edge_id in ids if edge_id in bucket)
            else:
                # second (IN) pass of BOTH: the OUT slot already gave the loops
                result.extend(
                    edge_id for edge_id in ids if edge_id in bucket and edge_id not in listed
                )
            listed = bucket
        return result

    def degree(self, vertex_id: VertexId) -> int:
        """Return the total number of incident edges (in + out)."""
        return self._degree.get(vertex_id, 0)

    def out_degree(self, vertex_id: VertexId) -> int:
        """Return the number of outgoing edges."""
        return self._count(vertex_id, Direction.OUT)

    def in_degree(self, vertex_id: VertexId) -> int:
        """Return the number of incoming edges."""
        return self._count(vertex_id, Direction.IN)

    def labels_at(self, vertex_id: VertexId, direction: str = Direction.BOTH) -> Set[str]:
        """Return the set of edge labels incident to ``vertex_id``."""
        per_direction = self._by_vertex.get(vertex_id)
        if not per_direction:
            return set()
        if direction == Direction.BOTH:
            directions: Tuple[str, ...] = (Direction.OUT, Direction.IN)
        else:
            directions = (direction,)
        labels: Set[str] = set()
        for d in directions:
            per_label = per_direction.get(d)
            if per_label:
                labels.update(key for key, ids in per_label.items() if ids)
        return labels

    def vertices(self) -> Iterable[VertexId]:
        """Return the vertices currently known to the index."""
        return self._by_vertex.keys()

    def __contains__(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._by_vertex

    def __len__(self) -> int:
        return len(self._by_vertex)

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def label_order_state(self) -> List[Tuple[VertexId, str, List[str]]]:
        """Return the per-(vertex, direction) *label key order* of the index.

        Rebuilding the index by re-adding the live edges in ingest order
        reproduces every per-label bucket exactly, but not necessarily the
        order of the label keys themselves: a label bucket keeps its
        original slot as long as one live edge holds it open, even after
        the edge that *created* it was evicted, so the key order is a
        function of the full ingest/evict history, not of the surviving
        edges.  ``incident_edge_ids`` with ``label=None`` iterates buckets
        in key order -- which feeds local-search enumeration and therefore
        match emission order -- so a byte-exact restore must capture it.
        Only slots with two or more labels are recorded (singletons cannot
        be mis-ordered).
        """
        orders: List[Tuple[VertexId, str, List[str]]] = []
        for vertex_id, per_direction in self._by_vertex.items():
            for direction, per_label in per_direction.items():
                if len(per_label) > 1:
                    orders.append((vertex_id, direction, list(per_label)))
        return orders

    def apply_label_order(self, orders: Iterable[Tuple[VertexId, str, List[str]]]) -> None:
        """Re-impose a label key order captured by :meth:`label_order_state`.

        Must be called after the index has been rebuilt with the same live
        edges; labels present in the stored order but absent from the
        rebuilt slot are skipped (and vice versa keep their rebuilt
        positions after the ordered prefix).
        """
        for vertex_id, direction, labels in orders:
            per_direction = self._by_vertex.get(vertex_id)
            if not per_direction:
                continue
            per_label = per_direction.get(direction)
            if not per_label:
                continue
            reordered = {
                label: per_label[label] for label in labels if label in per_label
            }
            for label, bucket in per_label.items():
                if label not in reordered:
                    reordered[label] = bucket
            per_direction[direction] = reordered

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _slot(self, vertex_id: VertexId, direction: str, label: str) -> Dict[EdgeId, None]:
        per_direction = self._by_vertex.setdefault(vertex_id, {})
        per_label = per_direction.setdefault(direction, {})
        return per_label.setdefault(label, {})

    def _discard(self, vertex_id: VertexId, direction: str, label: str, edge_id: EdgeId) -> None:
        per_direction = self._by_vertex.get(vertex_id)
        if not per_direction:
            return
        per_label = per_direction.get(direction)
        if not per_label:
            return
        edge_ids = per_label.get(label)
        if not edge_ids:
            return
        edge_ids.pop(edge_id, None)
        if not edge_ids:
            del per_label[label]
        if not per_label:
            del per_direction[direction]
        if not per_direction:
            del self._by_vertex[vertex_id]

    def _count(self, vertex_id: VertexId, direction: str) -> int:
        per_direction = self._by_vertex.get(vertex_id)
        if not per_direction:
            return 0
        per_label = per_direction.get(direction)
        if not per_label:
            return 0
        return sum(len(ids) for ids in per_label.values())
