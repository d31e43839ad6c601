"""Event-time reordering: bounded-lateness buffers, watermarks, run splitting.

The paper's query semantics are defined over *event time* -- a match is
admissible when its temporal extent fits inside ``tW`` -- but real feeds
(netflow collectors, article wires) deliver records late and out of order.
Historically any internally out-of-order batch silently demoted the engine
to its slowest per-record path, so the most realistic workload ran on the
least optimised code.  This module provides the event-time ingestion layer
that keeps disordered streams on the batched fast path:

* :class:`ReorderBuffer` -- a bounded-lateness reorder buffer.  Records are
  appended to a pending list that is stable-sorted by timestamp on release
  (near-linear on its almost-sorted shape); the *watermark* trails the
  largest timestamp seen by ``allowed_lateness``.  Once the watermark
  passes a record's timestamp nothing earlier can still arrive (by the
  lateness contract), so the watermark-closed prefix is released as a
  sorted, in-order batch -- exactly what the engines' batched ingest fast
  path requires.  Records arriving *below* the watermark are genuinely
  late: they are dropped and counted, never silently.
* :func:`ordered_run_slices` -- split a batch at its inversion points into
  maximal non-decreasing runs, so engines can keep the ordered stretches of
  a disordered batch on the batched path instead of demoting the whole
  batch.
* :func:`bounded_shuffle` / :func:`max_time_displacement` -- workload
  helpers producing (and measuring) bounded-displacement disorder, used by
  the property tests.

Ordering the cheap admission check (one watermark comparison) ahead of the
expensive matching work is the same argument as predicate ordering for
expensive predicates: pay the cheap filter first, run the costly operator
only on records that passed it, and batch those so the operator amortises.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from .edge_stream import StreamEdge

__all__ = [
    "ReorderBuffer",
    "bounded_shuffle",
    "max_time_displacement",
    "ordered_run_slices",
]


def ordered_run_slices(records: Sequence[StreamEdge]) -> List[Tuple[int, int]]:
    """Split a batch at inversion points into maximal non-decreasing runs.

    Returns ``[(start, end), ...]`` half-open index slices covering
    ``records`` exactly; each slice's timestamps never move backwards, and
    each slice is as long as possible (a new run starts only where a record
    is stamped earlier than its predecessor).  An in-order batch yields the
    single slice ``[(0, len(records))]``.
    """
    if not records:
        return []
    slices: List[Tuple[int, int]] = []
    start = 0
    previous = records[0].timestamp
    for index in range(1, len(records)):
        timestamp = records[index].timestamp
        if timestamp < previous:
            slices.append((start, index))
            start = index
        previous = timestamp
    slices.append((start, len(records)))
    return slices


def max_time_displacement(records: Sequence[StreamEdge]) -> float:
    """Return the largest event-time lateness present in an arrival sequence.

    For each record this is how far its timestamp lies behind the running
    maximum of everything that arrived before it; the overall maximum is
    exactly the smallest ``allowed_lateness`` under which a
    :class:`ReorderBuffer` re-sorts the sequence without declaring anything
    late.  An in-order sequence has displacement ``0.0``.
    """
    displacement = 0.0
    running_max = float("-inf")
    for record in records:
        if running_max - record.timestamp > displacement:
            displacement = running_max - record.timestamp
        if record.timestamp > running_max:
            running_max = record.timestamp
    return displacement


def bounded_shuffle(
    records: Sequence[StreamEdge], max_displacement: int, seed: int = 0
) -> List[StreamEdge]:
    """Shuffle a sequence so no record moves more than ``max_displacement`` slots.

    Records are permuted within consecutive blocks of ``max_displacement + 1``
    positions (deterministically, from ``seed``), which bounds every record's
    positional displacement by ``max_displacement`` while producing dense
    local disorder -- the shape of a stream assembled from slightly-skewed
    parallel collectors.  ``max_displacement=0`` returns an unchanged copy.
    """
    if max_displacement < 0:
        raise ValueError("max_displacement must be >= 0")
    shuffled = list(records)
    if max_displacement == 0:
        return shuffled
    rng = random.Random(seed)
    block = max_displacement + 1
    for start in range(0, len(shuffled), block):
        segment = shuffled[start : start + block]
        rng.shuffle(segment)
        shuffled[start : start + block] = segment
    return shuffled


class ReorderBuffer:
    """Bounded-lateness reorder buffer that drops and counts late records.

    Parameters
    ----------
    allowed_lateness:
        The lateness horizon in stream-time units.  The watermark trails
        the largest timestamp seen by this amount; records within the
        horizon are re-sorted, records below it are *late*: dropped and
        counted (``records_late_dropped``).  ``0.0`` admits only non-decreasing
        input (every inversion is late); ``float("inf")`` buffers the
        entire stream until :meth:`flush`.

    The buffer releases records through :meth:`drain_ready`, which pops the
    watermark-closed prefix in ``(timestamp, arrival index)`` order.  The
    concatenation of all drained batches (plus a final :meth:`flush`) is
    therefore globally non-decreasing, and -- when nothing was late -- it
    is exactly the stable timestamp sort of the arrival sequence.
    """

    def __init__(self, allowed_lateness: float) -> None:
        if isinstance(allowed_lateness, str):
            raise ValueError(
                f"allowed_lateness must be a number of stream-time units, "
                f"got {allowed_lateness!r}"
            )
        allowed_lateness = float(allowed_lateness)
        if not allowed_lateness >= 0.0:  # also rejects NaN
            raise ValueError("allowed_lateness must be >= 0 (stream-time units)")
        self.allowed_lateness = allowed_lateness
        #: Buffered records: a sorted prefix (the tail of the previous
        #: drain) followed by new arrivals in arrival order.  Draining
        #: stable-sorts by timestamp -- timsort is near-linear on this
        #: almost-sorted shape, and stability makes the release order the
        #: stable timestamp sort of the arrival sequence (a heap keyed by
        #: ``(timestamp, arrival index)`` would give the same order at
        #: roughly twice the per-batch admission cost).
        self._pending: List[StreamEdge] = []
        #: Smallest buffered timestamp -- lets a drain with nothing ready
        #: (watermark below everything buffered, e.g. per-record ingest
        #: with a wide or infinite lateness horizon) return without
        #: re-sorting the whole buffer each call.
        self._min_pending = float("inf")
        self._max_seen = float("-inf")
        # counters (exposed via stats())
        self.records_seen = 0
        #: Records that arrived behind the running maximum but within the
        #: lateness horizon -- the disorder the buffer absorbed.
        self.records_reordered = 0
        #: Records below the watermark on arrival (genuinely late), dropped.
        self.records_late_dropped = 0
        #: Records released through drain_ready()/flush().
        self.records_released = 0
        #: Largest event-time displacement observed on arrival (late or not).
        self.max_displacement_seen = 0.0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> float:
        """The event-time watermark: largest timestamp seen minus the lateness."""
        if self._max_seen == float("-inf"):
            return float("-inf")
        return self._max_seen - self.allowed_lateness

    def offer(self, record: StreamEdge) -> None:
        """Admit one record: buffer it, or drop it if it is late.

        The one-record case of :meth:`offer_all`.
        """
        self._admit((record,))

    def offer_all(self, records: Iterable[StreamEdge]) -> None:
        """Admit many records in arrival order, dropping the late ones.

        Admitting a batch is exactly admitting its records one by one
        (:meth:`offer`); both run the buffer's one admission loop.
        """
        self._admit(records)

    def _admit(self, records: Iterable[StreamEdge]) -> None:
        """The admission loop: the hook a buffer with other watermark
        arithmetic overrides (:class:`~repro.streaming.sources.MultiSourceReorderBuffer`)."""
        pending = self._pending
        for record in records:
            self.records_seen += 1
            timestamp = record.timestamp
            displacement = self._max_seen - timestamp
            if displacement > self.max_displacement_seen:
                self.max_displacement_seen = displacement
            if displacement > self.allowed_lateness:
                self.records_late_dropped += 1
                continue
            if displacement > 0:
                self.records_reordered += 1
            pending.append(record)
            if timestamp < self._min_pending:
                self._min_pending = timestamp
            if timestamp > self._max_seen:
                self._max_seen = timestamp

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def drain_ready(self) -> List[StreamEdge]:
        """Pop and return the watermark-closed prefix as a sorted batch.

        Every returned record has ``timestamp <= watermark``; by the
        lateness contract nothing that could precede them can still arrive,
        so the batch is final and internally non-decreasing.
        """
        watermark = self.watermark
        if not self._pending or watermark < self._min_pending:
            return []
        self._pending.sort(key=attrgetter("timestamp"))
        cut = bisect_right(self._pending, watermark, key=attrgetter("timestamp"))
        ready = self._pending[:cut]
        del self._pending[:cut]
        self._min_pending = (
            self._pending[0].timestamp if self._pending else float("inf")
        )
        self.records_released += len(ready)
        return ready

    def flush(self) -> List[StreamEdge]:
        """Pop and return everything still buffered, sorted (end of stream)."""
        self._pending.sort(key=attrgetter("timestamp"))
        remainder = self._pending
        self._pending = []
        self._min_pending = float("inf")
        self.records_released += len(remainder)
        return remainder

    def __len__(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serialise the buffer: pending records (arrival order) + counters.

        The pending list is stored in its exact current order -- a sorted
        prefix followed by new arrivals -- because the next drain's stable
        sort depends on it: two records with equal timestamps release in
        arrival order, and a restored buffer must release them identically.
        The ``kind`` key names the buffer class that wrote the payload.
        """
        return {
            "kind": "single",
            "allowed_lateness": self.allowed_lateness,
            "pending": [record.to_dict() for record in self._pending],
            "min_pending": self._min_pending,
            "max_seen": self._max_seen,
            "records_seen": self.records_seen,
            "records_reordered": self.records_reordered,
            "records_late_dropped": self.records_late_dropped,
            "records_released": self.records_released,
            "max_displacement_seen": self.max_displacement_seen,
        }

    def _load_base_state(self, state: Mapping[str, Any]) -> None:
        """Restore the base-class fields from a :meth:`state_dict` payload.

        The single shared restoration block: subclasses' loaders call this
        for the pending list and counters so a field added to
        :meth:`state_dict` only needs one matching loader change.
        """
        self._pending = [StreamEdge.from_dict(payload) for payload in state["pending"]]
        self._min_pending = float(state["min_pending"])
        self._max_seen = float(state["max_seen"])
        self.records_seen = state["records_seen"]
        self.records_reordered = state["records_reordered"]
        self.records_late_dropped = state["records_late_dropped"]
        self.records_released = state["records_released"]
        self.max_displacement_seen = float(state["max_displacement_seen"])

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ReorderBuffer":
        """Rebuild a buffer from :meth:`state_dict` output (exact resume:
        the restored buffer releases future records identically)."""
        buffer = cls(state["allowed_lateness"])
        buffer._load_base_state(state)
        return buffer

    def stats(self) -> Dict[str, float]:
        """Return admission/lateness counters as a plain JSON-safe dict.

        Keys: configuration (``allowed_lateness``), the current
        ``watermark`` and ``buffered`` depth, and the admission counters
        (``records_seen`` / ``records_reordered`` /
        ``records_late_dropped`` / ``records_released`` /
        ``max_displacement_seen``) -- the dictionary surfaced as
        ``engine.metrics()["reorder"]`` and documented in
        ``docs/operations.md``.
        """
        return {
            "allowed_lateness": self.allowed_lateness,
            "watermark": self.watermark,
            "buffered": float(len(self._pending)),
            "records_seen": float(self.records_seen),
            "records_reordered": float(self.records_reordered),
            "records_late_dropped": float(self.records_late_dropped),
            "records_released": float(self.records_released),
            "max_displacement_seen": self.max_displacement_seen,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReorderBuffer(lateness={self.allowed_lateness}, "
            f"buffered={len(self._pending)}, "
            f"watermark={self.watermark})"
        )
