"""Match events and event sinks.

When the incremental matcher completes a match, the engine wraps it into a
:class:`MatchEvent` -- the thing a StreamWorks user actually consumes: which
registered query fired, which data vertices/edges are involved, when the
triggering edge arrived and how long after the event's first edge the
detection happened (the *detection latency* the paper's motivation is all
about).

Sinks decouple the engine from what users do with events: collect them,
call back into application code, or print a log line.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..isomorphism.match import Match

__all__ = [
    "MatchEvent",
    "EventSink",
    "CollectingSink",
    "CallbackSink",
    "CountingSink",
    "MultiSink",
    "QueryFilterSink",
    "merge_events",
]


class MatchEvent:
    """A complete match of a registered query, as delivered to the user."""

    __slots__ = ("query_name", "match", "detected_at", "sequence", "trigger_index")

    def __init__(
        self,
        query_name: str,
        match: Match,
        detected_at: float,
        sequence: int,
        trigger_index: Optional[int] = None,
    ) -> None:
        self.query_name = query_name
        self.match = match
        #: Stream time (timestamp of the edge that completed the match).
        self.detected_at = detected_at
        #: Monotone per-engine event number.
        self.sequence = sequence
        #: Index (within the emitting engine's ingest stream, 0-based) of the
        #: edge whose arrival completed the match; ``None`` when the emitter
        #: does not track it.  The sharded engine uses this to merge
        #: per-shard events back into the exact single-engine order.
        self.trigger_index = trigger_index

    @property
    def detection_latency(self) -> float:
        """Stream-time lag between the event's first edge and its detection."""
        return self.detected_at - self.match.earliest

    @property
    def span(self) -> float:
        """Temporal extent of the matched subgraph."""
        return self.match.span

    def to_dict(self) -> Dict[str, object]:
        """Serialise to a JSON-friendly dict (vertex bindings + edge ids)."""
        return {
            "query": self.query_name,
            "sequence": self.sequence,
            "detected_at": self.detected_at,
            "detection_latency": self.detection_latency,
            "span": self.span,
            "vertices": dict(self.match.vertex_map),
            "edges": sorted(self.match.data_edge_ids()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchEvent(query={self.query_name!r}, seq={self.sequence}, "
            f"t={self.detected_at}, {self.match.describe()})"
        )


class EventSink:
    """Interface: receives every :class:`MatchEvent` the engine emits."""

    def deliver(self, event: MatchEvent) -> None:
        raise NotImplementedError


class CollectingSink(EventSink):
    """Store every event in memory (the default sink)."""

    def __init__(self) -> None:
        self.events: List[MatchEvent] = []

    def deliver(self, event: MatchEvent) -> None:
        self.events.append(event)

    def for_query(self, query_name: str) -> List[MatchEvent]:
        """Return the collected events of one registered query."""
        return [event for event in self.events if event.query_name == query_name]

    def clear(self) -> None:
        """Drop all collected events."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[MatchEvent]:
        return iter(self.events)


class CallbackSink(EventSink):
    """Invoke a user callback per event (errors propagate to the caller)."""

    def __init__(self, callback: Callable[[MatchEvent], None]) -> None:
        self.callback = callback

    def deliver(self, event: MatchEvent) -> None:
        self.callback(event)


class QueryFilterSink(EventSink):
    """Forward only the events of one named query to an inner sink.

    The engine wraps per-query ``on_match`` callbacks in this filter so a
    callback registered for query A never sees query B's events (and can be
    detached as a unit when A is unregistered).
    """

    def __init__(self, query_name: str, inner: EventSink) -> None:
        self.query_name = query_name
        self.inner = inner

    def deliver(self, event: MatchEvent) -> None:
        if event.query_name == self.query_name:
            self.inner.deliver(event)


class CountingSink(EventSink):
    """Count events per query without retaining them (cheap for benchmarks)."""

    def __init__(self) -> None:
        self.total = 0
        self.per_query: Dict[str, int] = {}

    def deliver(self, event: MatchEvent) -> None:
        self.total += 1
        self.per_query[event.query_name] = self.per_query.get(event.query_name, 0) + 1


def merge_events(*event_lists: Sequence[MatchEvent]) -> List[MatchEvent]:
    """Merge several event lists into one deterministic order.

    Events are ordered by ``(detected_at, sequence, query name)`` -- the
    detection timestamp first, with ties broken by the emitting engine's
    sequence number and then the query name.  Events fully tied on all
    three keys (possible when merging outputs of independent engines, whose
    sequence numbers collide) keep concatenation order: stable within each
    input list, and between lists in the order the lists are passed.

    This is the generic merger for event lists that share (or don't care
    about) a sequence space -- splitting one engine's output by query and
    recombining, interleaving replay runs, and the like.  It is *not* how
    the sharded engine reconstructs single-engine order: that requires the
    triggering edge's global stream index, which
    :class:`~repro.core.sharded.ShardedStreamEngine` tracks internally via
    :attr:`MatchEvent.trigger_index`.
    """
    combined: List[MatchEvent] = []
    for events in event_lists:
        combined.extend(events)
    combined.sort(key=lambda event: (event.detected_at, event.sequence, event.query_name))
    return combined


class MultiSink(EventSink):
    """Fan an event out to several sinks."""

    def __init__(self, sinks: Optional[Iterable[EventSink]] = None) -> None:
        self.sinks: List[EventSink] = list(sinks or [])

    def add(self, sink: EventSink) -> None:
        """Attach another sink."""
        self.sinks.append(sink)

    def remove(self, sink: EventSink) -> bool:
        """Detach a sink; returns ``False`` when it was not attached."""
        try:
            self.sinks.remove(sink)
        except ValueError:
            return False
        return True

    def deliver(self, event: MatchEvent) -> None:
        for sink in self.sinks:
            sink.deliver(event)
