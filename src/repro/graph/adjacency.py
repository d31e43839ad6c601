"""Per-vertex adjacency records and the insertion-ordered edge slot.

StreamWorks performs a *local search* around every incoming edge (paper
section 4.1): given a new edge, the engine looks for nearby edges whose type
matches the next query edge of a search primitive.  To keep that lookup
proportional to the size of the local neighbourhood -- and never a scan of the
whole graph -- the store keeps, per vertex, one :class:`VertexRecord` whose
``out`` / ``in_`` maps file the incident edges by label into
:class:`EdgeSlot` objects.  These are the only slots: an edge is filed
twice, in its source's out-slot and its target's in-slot.

Slots hold edges in insertion order.  That is a correctness property, not a
nicety: the sharded engine compares and merges matches across engines whose
edge ids differ (each shard numbers its own ingest stream), so enumeration
order -- and therefore the emitted event order -- must follow the stream,
never the numeric ids.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Mapping, Optional

from .types import Edge, Timestamp, Vertex, VertexId

__all__ = ["EdgeSlot", "VertexRecord"]


class EdgeSlot:
    """Edges in insertion order, with a parallel timestamp list and a head.

    The window evicts in (timestamp, ingest) order, so on in-order input
    every removal takes a slot's oldest entry: the head advances and nothing
    is copied.  Any other removal (a late record, an out-of-band delete)
    leaves a tombstone (``None``) that reads skip and the head steps over;
    once tombstones exceed half the entries past the head the slot compacts.
    The consumed prefix is released with one slice deletion once it is more
    than half the list, so on in-order input a slot holds at most twice its
    live edges.

    While the timestamps from the head on are non-decreasing, a timestamp
    range is one bisected slice of the entries, in insertion order.  An
    append below its predecessor records its position in ``disorder``; the
    entries from the head on are sorted exactly when ``disorder <= head``,
    so the range scan recovers as soon as the head has passed the late
    entry, or a compaction finds the survivors sorted.
    """

    __slots__ = ("edges", "times", "head", "dead", "disorder")

    def __init__(self) -> None:
        #: entries before ``head`` are consumed; ``None`` past it is a tombstone
        self.edges: List[Optional[Edge]] = []
        self.times: List[Timestamp] = []
        self.head = 0
        #: tombstones at or past the head
        self.dead = 0
        #: index of the last entry appended below its predecessor (0: none)
        self.disorder = 0

    def __len__(self) -> int:
        return len(self.edges) - self.head - self.dead

    def append(self, edge: Edge) -> None:
        """File ``edge`` after every entry."""
        times = self.times
        stamp = edge.timestamp
        if times and stamp < times[-1]:
            self.disorder = len(times)
        times.append(stamp)
        self.edges.append(edge)

    def remove(self, edge: Edge) -> int:
        """Remove ``edge``, which must be filed here; return the live entries left."""
        edges = self.edges
        head = self.head
        end = len(edges)
        if edges[head] is edge:
            edges[head] = None
            head += 1
            while head < end and edges[head] is None:
                head += 1
                self.dead -= 1
            self.head = head
            if head == end:
                return 0
            if self.dead * 2 > end - head:
                self._compact()
            elif head * 2 > end:
                del edges[:head]
                del self.times[:head]
                self.disorder = self.disorder - head if self.disorder > head else 0
                self.head = 0
        else:
            edges[self._index(edge)] = None
            self.dead += 1
            if self.dead * 2 > end - head:
                self._compact()
        return len(self.edges) - self.head - self.dead

    def live(self) -> List[Edge]:
        """The live edges in insertion order (a fresh list)."""
        found = self.edges[self.head :]
        if self.dead:
            return [edge for edge in found if edge is not None]
        return found  # type: ignore[return-value]

    def between(self, low: Timestamp, high: Timestamp) -> Optional[List[Edge]]:
        """Live edges with ``low <= timestamp <= high``, in insertion order.

        Two bisections and a slice; ``None`` when the entries from the head
        on are unsorted, and the caller must fall back to :meth:`live`.
        Inclusive on both bounds: callers use it as a superset prefilter
        ahead of their exact span test.
        """
        head = self.head
        if self.disorder > head:
            return None
        times = self.times
        start = bisect_left(times, low, head)
        found = self.edges[start : bisect_right(times, high, start)]
        if self.dead:
            return [edge for edge in found if edge is not None]
        return found  # type: ignore[return-value]

    def _index(self, edge: Edge) -> int:
        edges = self.edges
        start = self.head
        if self.disorder <= start:
            start = bisect_left(self.times, edge.timestamp, start)
        for index in range(start, len(edges)):
            if edges[index] is edge:
                return index
        raise ValueError(f"{edge!r} is not filed in this slot")

    def _compact(self) -> None:
        """Drop the consumed prefix and the tombstones; find the last descent again."""
        edges = [edge for edge in self.edges[self.head :] if edge is not None]
        times = [edge.timestamp for edge in edges]
        self.edges = edges  # type: ignore[assignment]
        self.times = times
        self.head = self.dead = 0
        self.disorder = 0
        for index in range(len(times) - 1, 0, -1):
            if times[index] < times[index - 1]:
                self.disorder = index
                break


class VertexRecord(Vertex):
    """A stored vertex: label and attrs, its edge slots by label, its live degree.

    ``out`` / ``in_`` map an edge label to the slot of the live edges
    leaving / entering the vertex with that label.  A slot is deleted when
    it empties, so the maps' key order -- which ``incident_edges`` with no
    label enumerates in -- depends on the ingest *and* eviction history;
    :meth:`PropertyGraph.state_dict` records it.  ``degree`` counts
    incident edges, a self loop twice.
    """

    __slots__ = ("out", "in_", "degree")

    def __init__(
        self, vertex_id: VertexId, label: str, attrs: Optional[Mapping[str, Any]] = None
    ) -> None:
        super().__init__(vertex_id, label, attrs)
        self.out: Dict[str, EdgeSlot] = {}
        self.in_: Dict[str, EdgeSlot] = {}
        self.degree = 0
