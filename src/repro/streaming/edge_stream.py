"""Edge streams: the input abstraction of the continuous query engine.

An *edge stream* is simply an iterable of :class:`StreamEdge` records -- an
edge payload plus the vertex labels of its endpoints, which raw feeds (flow
logs, article metadata) always know at emission time.  The module provides
constructors from lists, generators and files, plus merging of several
streams in timestamp order (e.g. background traffic + injected attack).
"""

from __future__ import annotations

import heapq
import json
import math
from numbers import Real
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

from ..graph.types import Edge, Timestamp, VertexId

__all__ = ["StreamEdge", "EdgeStream", "merge_streams"]


class StreamEdge:
    """A raw stream record: an edge plus its endpoint vertex labels/attributes.

    ``source_id`` names the *collector* (feed, ingestion pipeline) the record
    arrived from -- not to be confused with ``source``, the source *vertex*
    of the edge.  It is optional: records without one belong to a single
    implicit default source.  The event-time reorder buffer
    (:class:`~repro.streaming.reorder.ReorderBuffer`) tracks one
    watermark per ``source_id`` so independently-skewed collector clocks do
    not push each other's records past the lateness horizon.

    The label must be a ``str``, and the timestamp a finite real number (a
    ``bool`` or a numeric string is not one): a NaN compares false against
    every eviction horizon and would stay in the window store forever, and
    an infinite one would advance the stream clock past every window.  A
    record breaking either rule raises ``ValueError`` naming it.

    The record copies the mappings it is given and owns the copies.  Once
    it is offered to an engine it is read-only: the edge the window store
    keeps adopts ``attrs`` itself (:class:`~repro.graph.types.Edge` does
    not copy a plain dict), so the store, the SJ-tree partials and every
    emitted match share that one dict, and a change to it would change
    them all.  ``source_attrs`` / ``target_attrs`` are merged into copies
    held by the endpoint vertices and stay the record's own.
    """

    __slots__ = (
        "source",
        "target",
        "label",
        "timestamp",
        "attrs",
        "source_label",
        "target_label",
        "source_attrs",
        "target_attrs",
        "source_id",
    )

    def __init__(
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
        source_id: Optional[str] = None,
    ) -> None:
        if not isinstance(label, str):
            raise ValueError(
                f"StreamEdge {source!r}-[{label!r}]->{target!r} has a "
                f"{type(label).__name__} label; an edge label must be a str"
            )
        kind = type(timestamp)
        real = kind is float or kind is int or (kind is not bool and isinstance(timestamp, Real))
        if not real or not math.isfinite(timestamp):
            raise ValueError(
                f"StreamEdge {source!r}-[{label}]->{target!r} has a non-numeric or "
                f"non-finite timestamp {timestamp!r}; stream time must be a finite "
                f"real number, not a bool or a string"
            )
        self.source = source
        self.target = target
        self.label = label
        self.timestamp = float(timestamp)
        self.attrs = dict(attrs or {})
        self.source_label = source_label
        self.target_label = target_label
        self.source_attrs = dict(source_attrs or {})
        self.target_attrs = dict(target_attrs or {})
        self.source_id = source_id

    def to_edge(self, edge_id: int = -1) -> Edge:
        """Convert to a bare :class:`Edge` sharing this record's ``attrs`` (mostly for tests)."""
        return Edge(edge_id, self.source, self.target, self.label, self.timestamp, self.attrs)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a JSON-friendly dict (inverse of :meth:`from_dict`)."""
        return {
            "source": self.source,
            "target": self.target,
            "label": self.label,
            "timestamp": self.timestamp,
            "attrs": dict(self.attrs),
            "source_label": self.source_label,
            "target_label": self.target_label,
            "source_attrs": dict(self.source_attrs),
            "target_attrs": dict(self.target_attrs),
            "source_id": self.source_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StreamEdge":
        """Inverse of :meth:`to_dict` (missing optional keys take their defaults)."""
        return cls(
            payload["source"],
            payload["target"],
            payload["label"],
            payload["timestamp"],
            payload.get("attrs"),
            payload.get("source_label", "node"),
            payload.get("target_label", "node"),
            payload.get("source_attrs"),
            payload.get("target_attrs"),
            payload.get("source_id"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamEdge({self.source!r}-[{self.label}]->{self.target!r}, t={self.timestamp})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamEdge):
            return NotImplemented
        return self.to_dict() == other.to_dict()


class EdgeStream:
    """A (re-)iterable sequence of :class:`StreamEdge` records.

    Wrapping a concrete list keeps replays cheap for the benchmarks, which
    run the same stream through several engine configurations.
    """

    def __init__(self, edges: Iterable[StreamEdge], name: str = "stream") -> None:
        self._edges: List[StreamEdge] = list(edges)
        self.name = name

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls,
        rows: Iterable[Sequence[Any]],
        source_label: str = "node",
        target_label: str = "node",
        name: str = "stream",
    ) -> "EdgeStream":
        """Build a stream from ``(source, target, label, timestamp[, attrs])`` tuples."""
        edges: List[StreamEdge] = []
        for row in rows:
            attrs = row[4] if len(row) > 4 else None
            edges.append(
                StreamEdge(row[0], row[1], row[2], row[3], attrs, source_label, target_label)
            )
        return cls(edges, name=name)

    @classmethod
    def from_jsonl(cls, path: str, name: Optional[str] = None) -> "EdgeStream":
        """Load a stream from a JSON-lines file written by :meth:`to_jsonl`."""
        edges: List[StreamEdge] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    edges.append(StreamEdge.from_dict(json.loads(line)))
        return cls(edges, name=name or path)

    def to_jsonl(self, path: str) -> None:
        """Persist the stream as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for edge in self._edges:
                handle.write(json.dumps(edge.to_dict(), default=str) + "\n")

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def sorted_by_time(self) -> "EdgeStream":
        """Return a copy sorted by timestamp (stable)."""
        return EdgeStream(sorted(self._edges, key=lambda e: e.timestamp), name=self.name)

    def is_time_ordered(self) -> bool:
        """Return ``True`` when timestamps are non-decreasing."""
        return all(
            self._edges[i].timestamp <= self._edges[i + 1].timestamp
            for i in range(len(self._edges) - 1)
        )

    def filter(self, predicate: Callable[[StreamEdge], bool], name: Optional[str] = None) -> "EdgeStream":
        """Return a stream containing only the records accepted by ``predicate``."""
        return EdgeStream(
            [edge for edge in self._edges if predicate(edge)],
            name=name or f"{self.name}[filtered]",
        )

    def slice_time(self, start: float, end: float) -> "EdgeStream":
        """Return the records with ``start <= timestamp < end``."""
        return self.filter(lambda edge: start <= edge.timestamp < end, name=f"{self.name}[{start},{end})")

    def limit(self, count: int) -> "EdgeStream":
        """Return the first ``count`` records."""
        return EdgeStream(self._edges[:count], name=f"{self.name}[:{count}]")

    def concat(self, other: "EdgeStream") -> "EdgeStream":
        """Return the concatenation of two streams (no re-sorting)."""
        return EdgeStream(self._edges + other._edges, name=f"{self.name}+{other.name}")

    def label_counts(self) -> Dict[str, int]:
        """Return ``{edge label: count}`` over the stream."""
        counts: Dict[str, int] = {}
        for edge in self._edges:
            counts[edge.label] = counts.get(edge.label, 0) + 1
        return counts

    def time_span(self) -> float:
        """Return last timestamp minus first timestamp (0 for empty streams)."""
        if not self._edges:
            return 0.0
        timestamps = [edge.timestamp for edge in self._edges]
        return max(timestamps) - min(timestamps)

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[StreamEdge]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    @overload
    def __getitem__(self, index: int) -> StreamEdge: ...

    @overload
    def __getitem__(self, index: slice) -> "EdgeStream": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[StreamEdge, "EdgeStream"]:
        if isinstance(index, slice):
            return EdgeStream(self._edges[index], name=f"{self.name}[{index}]")
        return self._edges[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeStream({self.name!r}, {len(self._edges)} edges)"


def merge_streams(*streams: EdgeStream, name: str = "merged") -> EdgeStream:
    """Merge several streams into one, ordered by timestamp.

    Uses a heap merge so already-sorted inputs merge in O(n log k); unsorted
    inputs are sorted first (stably).  Timestamp ties are broken
    deterministically by the position of the stream in the argument list and
    then by the record's position within its (sorted) stream, so merging the
    same streams always yields the same record order -- an explicit contract
    rather than an accident of the heap implementation, because downstream
    engines derive event sequence numbers from the merged record order.
    """

    def keyed(
        stream_index: int, stream: EdgeStream
    ) -> Iterator[Tuple[Tuple[float, int, int], StreamEdge]]:
        for position, edge in enumerate(stream.sorted_by_time()):
            yield (edge.timestamp, stream_index, position), edge

    merged = heapq.merge(
        *(keyed(index, stream) for index, stream in enumerate(streams)),
        key=lambda item: item[0],
    )
    return EdgeStream((edge for _, edge in merged), name=name)
