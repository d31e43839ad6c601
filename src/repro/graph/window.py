"""Sliding time-window bookkeeping for dynamic graphs.

The paper's query semantics (section 2.1) bound the temporal extent of every
reported match by a window ``tW``: an isomorphic subgraph is reported only
when the difference between its latest and earliest edge timestamp is smaller
than ``tW``.  The same window also bounds how much history the dynamic graph
store needs to retain -- an edge older than ``now - tW`` can never participate
in a *new* match, so it may be evicted.

:class:`TimeWindow` captures the policy -- a span is admissible when it is
strictly shorter than ``tW``, and an item expires once its span reaches
``tW`` -- and :class:`ExpiryQueue` tracks stored items in timestamp order so
that eviction is amortised O(1) per item.
"""

from __future__ import annotations

import heapq
from typing import Generic, Iterable, List, Optional, Tuple, TypeVar

from .types import Timestamp

__all__ = ["TimeWindow", "ExpiryQueue"]

T = TypeVar("T")

_INF = float("inf")


class TimeWindow:
    """A sliding window of length ``duration`` over event time.

    Parameters
    ----------
    duration:
        The window length ``tW``.  ``None`` (or ``float("inf")``) means an
        unbounded window: nothing ever expires and every span is admissible.
        A subgraph is admissible only if its span is *strictly* smaller than
        ``duration`` (the paper's definition).
    """

    __slots__ = ("duration",)

    def __init__(self, duration: Optional[float] = None):
        if duration is not None and duration < 0:
            raise ValueError("window duration must be non-negative")
        self.duration = float("inf") if duration is None else float(duration)

    @property
    def bounded(self) -> bool:
        """Return ``True`` when the window has a finite duration."""
        return self.duration != _INF

    def admits_span(self, span: float) -> bool:
        """Return ``True`` when a subgraph with temporal extent ``span`` is admissible."""
        return span < self.duration

    def admits_interval(self, earliest: Timestamp, latest: Timestamp) -> bool:
        """Return ``True`` when the interval ``[earliest, latest]`` fits in the window."""
        return self.admits_span(latest - earliest)

    def expiry_threshold(self, now: Timestamp) -> float:
        """Return the timestamp below which items can no longer join new matches.

        An item with timestamp ``t`` combined with anything at time ``now``
        has span ``now - t``; once that span is inadmissible the item is dead
        weight.  For unbounded windows the threshold is ``-inf``.
        """
        if not self.bounded:
            return float("-inf")
        return now - self.duration

    def is_expired(self, timestamp: Timestamp, now: Timestamp) -> bool:
        """Return ``True`` when an item stamped ``timestamp`` is expired at ``now``."""
        return now - timestamp >= self.duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeWindow(span < {self.duration})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeWindow):
            return NotImplemented
        return self.duration == other.duration

    def __hash__(self) -> int:
        return hash(self.duration)


class ExpiryQueue(Generic[T]):
    """Min-heap of ``(timestamp, item)`` pairs supporting bulk expiry.

    The dynamic graph and the SJ-Tree match collections both need to answer
    "which items are now older than the window?" cheaply after every batch.
    Items are pushed with their timestamp; :meth:`pop_expired_at` pops every
    item the window has expired.

    The queue tolerates logically-removed items: callers that delete items
    out of band can simply ignore stale pops (the queue hands back whatever
    was stored; it does not track liveness).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[Timestamp, int, T]] = []
        self._counter = 0

    def push(self, timestamp: Timestamp, item: T) -> None:
        """Add ``item`` with the given timestamp."""
        heapq.heappush(self._heap, (timestamp, self._counter, item))
        self._counter += 1

    def push_all(self, pairs: Iterable[Tuple[Timestamp, T]]) -> None:
        """Add many ``(timestamp, item)`` pairs."""
        for timestamp, item in pairs:
            self.push(timestamp, item)

    def pop_expired_at(self, window: TimeWindow, now: Timestamp) -> List[T]:
        """Pop and return every item ``window.is_expired`` at ``now``."""
        expired: List[T] = []
        heap = self._heap
        while heap and window.is_expired(heap[0][0], now):
            expired.append(heapq.heappop(heap)[2])
        return expired

    def peek_oldest(self) -> Optional[Tuple[Timestamp, T]]:
        """Return the oldest ``(timestamp, item)`` without removing it."""
        if not self._heap:
            return None
        timestamp, _, item = self._heap[0]
        return timestamp, item

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
