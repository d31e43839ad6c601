"""Event-time reordering: per-source watermarks, an idle timeout, run splitting.

The paper's query semantics are defined over *event time* -- a match is
admissible when its temporal extent fits inside ``tW`` -- but real feeds
deliver records late and out of order.  This module keeps disordered
streams on the engines' batched fast path:

* :class:`ReorderBuffer` -- a bounded-lateness reorder buffer with one
  watermark per ``source_id`` (that source's largest timestamp minus
  ``allowed_lateness``), releasing the watermark-closed prefix of its
  pending records, stable-sorted by timestamp, on the **minimum across
  active sources**.  A slow collector *holds* the horizon instead of losing
  records; records without a ``source_id`` share :data:`DEFAULT_SOURCE`, so
  a sourceless stream has one global watermark.  Records below the
  watermark are late: dropped and counted.  An ``idle_timeout`` excludes a
  source whose clock lags the stream by more than it, so a silent
  collector cannot freeze the horizon.  A **monotone watermark floor**
  keeps the release non-decreasing when a source (re)appears with an old
  clock: its records are late rather than released out of order.
* :func:`ordered_run_slices` -- split a batch at its inversion points into
  maximal non-decreasing runs, so engines keep a disordered batch's
  ordered stretches on the batched path.
* :func:`bounded_shuffle` / :func:`max_time_displacement` -- workload
  helpers producing (and measuring) bounded-displacement disorder.

Ordering the cheap admission check (one watermark comparison) ahead of the
expensive matching work is the same argument as predicate ordering for
expensive predicates: pay the cheap filter first, and batch what passes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .edge_stream import StreamEdge

__all__ = [
    "DEFAULT_SOURCE",
    "ReorderBuffer",
    "bounded_shuffle",
    "check_idle_timeout",
    "check_lateness",
    "max_time_displacement",
    "ordered_run_slices",
]

#: Source key used for records that carry no ``source_id``.
DEFAULT_SOURCE = "__default__"

_NEG_INF = float("-inf")


def check_lateness(allowed_lateness: float) -> float:
    """Return ``allowed_lateness`` as a float, or raise ``ValueError``.

    A lateness horizon is a number of stream-time units, ``>= 0`` (a
    string, a negative number and NaN are rejected).
    """
    if isinstance(allowed_lateness, str):
        raise ValueError(
            f"allowed_lateness must be a number of stream-time units, "
            f"got {allowed_lateness!r}"
        )
    allowed_lateness = float(allowed_lateness)
    if not allowed_lateness >= 0.0:  # also rejects NaN
        raise ValueError("allowed_lateness must be >= 0 (stream-time units)")
    return allowed_lateness


def check_idle_timeout(timeout: float, field: str) -> float:
    """Return ``timeout`` as a float, or raise ``ValueError`` naming ``field``.

    An idle timeout is a positive number of stream-time units (NaN is
    rejected); ``None`` is handled by the caller.
    """
    timeout = float(timeout)
    if not timeout > 0.0:  # also rejects NaN
        raise ValueError(
            f"{field} must be a positive duration in stream-time units "
            "(or None to let silent sources hold the watermark)"
        )
    return timeout


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




class _SourceState:
    """Per-source watermark bookkeeping (one instance per collector)."""

    __slots__ = (
        "max_seen",
        "baseline",
        "records_seen",
        "records_reordered",
        "records_late",
        "max_displacement_seen",
    )

    def __init__(self, baseline: float = _NEG_INF):
        #: Largest event timestamp this source has delivered (its clock).
        self.max_seen = _NEG_INF
        #: Stream time at which this source became known (its registration
        #: epoch, or the stream's first record for sources registered before
        #: any data).  A source that has never spoken has its idle-timeout
        #: silence measured from here -- NOT treated as idle immediately --
        #: so a skewed-but-live collector's first record is not orphaned.
        self.baseline = baseline
        self.records_seen = 0
        #: Records behind this source's own clock but not late.
        self.records_reordered = 0
        #: Records from this source below the release watermark on arrival.
        self.records_late = 0
        #: Largest displacement behind this source's own clock.
        self.max_displacement_seen = 0.0

    def state_dict(self) -> Dict[str, Any]:
        """Serialise the source's clock, baseline and counters."""
        return {
            "max_seen": self.max_seen,
            "baseline": self.baseline,
            "records_seen": self.records_seen,
            "records_reordered": self.records_reordered,
            "records_late": self.records_late,
            "max_displacement_seen": self.max_displacement_seen,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "_SourceState":
        """Rebuild a source from :meth:`state_dict` output."""
        source = cls(baseline=float(state["baseline"]))
        source.max_seen = float(state["max_seen"])
        source.records_seen = state["records_seen"]
        source.records_reordered = state["records_reordered"]
        source.records_late = state["records_late"]
        source.max_displacement_seen = float(state["max_displacement_seen"])
        return source


def _idle(state: _SourceState, max_seen: float, timeout: Optional[float]) -> bool:
    """Whether ``state``'s source is idle when the stream clock is ``max_seen``."""
    if timeout is None:
        return False
    # a never-spoke source's silence is measured from its baseline (its
    # registration epoch, or the stream's first record); its clock once it
    # has spoken
    reference = state.max_seen if state.max_seen != _NEG_INF else state.baseline
    if reference == _NEG_INF:
        return False  # no stream time has passed that it could have missed
    return max_seen - reference > timeout


class ReorderBuffer:
    """Bounded-lateness reorder buffer with one watermark per stream source.

    Parameters
    ----------
    allowed_lateness:
        The lateness horizon in stream-time units, shared by every source.
        A record is *late* -- dropped and counted (``records_late_dropped``)
        -- when its timestamp lies below the current release watermark (it
        can no longer be released in sorted position).  ``0.0`` admits only
        non-decreasing input per source; ``float("inf")`` buffers the entire
        stream until :meth:`flush`.
    idle_timeout:
        Stream-time units after which a source whose clock lags the global
        maximum is excluded from the release minimum (``None`` -- never:
        a silent source holds the horizon indefinitely).  Doubles as the
        largest tolerated inter-source skew: a live source lagging by more
        than the timeout is treated as idle and its records may be late.

    Raises
    ------
    ValueError
        On a negative, NaN or non-numeric ``allowed_lateness`` or a
        non-positive ``idle_timeout``.

    The buffer releases records through :meth:`drain_ready`, which pops the
    watermark-closed prefix in ``(timestamp, arrival index)`` order.  The
    concatenation of all drained batches (plus a final :meth:`flush`) is
    therefore globally non-decreasing, and -- when nothing was late -- it
    is exactly the stable timestamp sort of the arrival sequence.
    """

    def __init__(self, allowed_lateness: float, idle_timeout: Optional[float] = None) -> None:
        self.allowed_lateness = check_lateness(allowed_lateness)
        if idle_timeout is not None:
            idle_timeout = check_idle_timeout(idle_timeout, "idle_timeout")
        self.idle_timeout = idle_timeout
        #: Buffered records: a sorted prefix (the tail of the previous
        #: drain) followed by new arrivals in arrival order.  Draining
        #: stable-sorts by timestamp -- timsort is near-linear on this
        #: almost-sorted shape, and stability makes the release order the
        #: stable timestamp sort of the arrival sequence.
        self._pending: List[StreamEdge] = []
        #: Smallest buffered timestamp -- lets a drain with nothing ready
        #: (watermark below everything buffered, e.g. per-record ingest
        #: with a wide or infinite lateness horizon) return without
        #: re-sorting the whole buffer each call.
        self._min_pending = float("inf")
        #: Largest timestamp admitted from any source (the stream clock).
        self._max_seen = _NEG_INF
        # counters (exposed via stats())
        self.records_seen = 0
        #: Records that arrived behind the stream clock but were not late
        #: -- the disorder the buffer absorbed.
        self.records_reordered = 0
        #: Records below the watermark on arrival (genuinely late), dropped.
        self.records_late_dropped = 0
        #: Records released through drain_ready()/flush().
        self.records_released = 0
        #: Largest displacement behind the stream clock on arrival (late or not).
        self.max_displacement_seen = 0.0
        #: ``{source key: _SourceState}`` in first-seen/registration order.
        self._sources: Dict[str, _SourceState] = {}
        #: Monotone release horizon: the raw min-watermark can regress when a
        #: source (re)appears with an old clock, but released batches must
        #: stay globally non-decreasing, so the effective watermark is the
        #: running maximum of the raw one and such records are late instead.
        self._watermark_floor = _NEG_INF
        #: The least source clock (``None`` until recomputed), read by the
        #: admission test when there is no idle timeout (:meth:`_admit`).
        #: Derived from the source clocks, so a restored buffer recomputes
        #: it on first use.
        self._min_clock: Optional[float] = None  # repro-lint: ignore[snapshot-coverage]

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def register_source(self, source_id: str) -> None:
        """Declare a collector before its first record arrives.

        A registered-but-silent source participates in the release minimum
        with a watermark of ``-inf``, i.e. **nothing is released until every
        registered source has spoken** (or gone idle: under ``idle_timeout``
        its silence is measured in stream time from its registration epoch,
        so it is excluded only once the stream has advanced past the
        timeout without it -- never merely because another source spoke
        first).  Pre-registering the known collector set is what makes the
        sorted-merge conformance guarantee hold regardless of which
        collector's records happen to arrive first; an *unregistered* source
        is added on its first record instead, and that record is admitted
        against the watermark the stream had already reached (so a brand-new
        collector whose clock starts behind the released horizon sees its
        backlog classified late).  Registering an already-known source is a
        no-op.
        """
        key = source_id if source_id is not None else DEFAULT_SOURCE
        if key not in self._sources:
            self._sources[key] = _SourceState(baseline=self._max_seen)
            self._min_clock = _NEG_INF  # the newcomer's clock

    def sources(self) -> List[str]:
        """Return the known source keys in registration/first-seen order."""
        return list(self._sources)

    # ------------------------------------------------------------------
    # watermark arithmetic
    # ------------------------------------------------------------------
    def _active_min_clock(self, max_seen: float) -> Optional[float]:
        """The least clock among the sources not idle at stream clock ``max_seen``.

        ``None`` when every source is idle.  The admission loop passes its
        own running clock, which it writes back to the buffer only when it
        ends.
        """
        timeout = self.idle_timeout
        clocks = [
            state.max_seen for state in self._sources.values() if not _idle(state, max_seen, timeout)
        ]
        return min(clocks) if clocks else None

    @property
    def watermark(self) -> float:
        """The monotone release watermark: min over active per-source watermarks.

        Each source's watermark is its largest delivered timestamp minus the
        lateness horizon; idle sources (see ``idle_timeout``) are excluded;
        the result never regresses (see the module docstring).  Without an
        idle timeout every source is active, so the least clock is the one
        :meth:`_admit` caches.
        """
        if self._max_seen == _NEG_INF:
            clock: Optional[float] = None
        elif self.idle_timeout is None:
            clock = self._min_clock
            if clock is None:
                clock = self._min_clock = min(
                    [state.max_seen for state in self._sources.values()], default=None
                )
        else:
            clock = self._active_min_clock(self._max_seen)
        # the source holding the global maximum is never idle, so with any
        # record seen at least one source is active; defensive nonetheless
        if clock is not None and clock - self.allowed_lateness > self._watermark_floor:
            self._watermark_floor = clock - self.allowed_lateness
        return self._watermark_floor

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
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
        """Admit records in arrival order under their sources' watermark bookkeeping.

        The one admission loop behind :meth:`offer` and :meth:`offer_all`:
        each record is classified against the watermark as the records
        before it left it, so a batch admits exactly as its records offered
        one by one.  A late record is dropped but still advances its
        source's clock -- the collector's progress is real, so a source that
        fell behind the released horizon catches back up instead of pinning
        the watermark (or the idle test) at its last good record forever.

        Every source shares the lateness ``L``, so "late for every active
        source" (``clock - t > L`` for each active source clock) is the test
        against the least active clock alone -- bit for bit, since
        ``fl(clock - t)`` is monotone in ``clock`` -- and so is the raw
        watermark (``least clock - L``).  The test runs in displacement
        space, not against the subtraction-form watermark, so a borderline
        record (displacement exactly the horizon, e.g. when the horizon was
        sized with :func:`max_time_displacement`) is kept: on a sourceless
        stream a record is late exactly when the largest earlier timestamp
        exceeds it by more than ``L``.  Without an idle timeout every
        source is active, so the least clock is cached and recomputed only
        when the source holding it advances or a source joins; with one, it
        is taken over the sources active at each record.  Either way the
        monotone watermark floor applies last: it is consulted only when it
        strictly exceeds the raw minimum (a source (re)appeared with an old
        clock); in steady state the raw minimum is monotone and the floor
        clause never fires.

        The buffer's counters, clocks, floor and cached least clock live in
        locals for the loop and are written back when it ends, also when a
        record raises, so the records admitted before it are not lost.
        """
        sources = self._sources
        cached = self.idle_timeout is None
        lateness = self.allowed_lateness
        append = self._pending.append
        seen = self.records_seen
        reordered = self.records_reordered
        late_dropped = self.records_late_dropped
        max_displacement = self.max_displacement_seen
        max_seen = self._max_seen
        min_pending = self._min_pending
        floor = self._watermark_floor
        min_clock = self._min_clock
        try:
            for record in records:
                key = record.source_id
                if key is None:
                    key = DEFAULT_SOURCE
                state = sources.get(key)
                if state is None:
                    state = sources[key] = _SourceState()
                    min_clock = _NEG_INF  # the newcomer's clock
                seen += 1
                state.records_seen += 1
                timestamp = record.timestamp
                # global displacement keeps the single-buffer counter semantics
                displacement = max_seen - timestamp
                if displacement > max_displacement:
                    max_displacement = displacement
                own_clock = state.max_seen
                if timestamp < own_clock:
                    if own_clock - timestamp > state.max_displacement_seen:
                        state.max_displacement_seen = own_clock - timestamp
                if max_seen == _NEG_INF:
                    late = timestamp < floor
                else:
                    if cached:
                        clock = min_clock
                        if clock is None:
                            clock = min_clock = min([source.max_seen for source in sources.values()])
                    else:
                        clock = self._active_min_clock(max_seen)
                    if clock is None:
                        late = timestamp < floor
                    else:
                        raw = clock - lateness
                        late = clock - timestamp > lateness
                        if raw > floor:
                            floor = raw
                        elif not late and floor > raw and timestamp < floor:
                            late = True
                if timestamp > own_clock:
                    if own_clock == min_clock:
                        min_clock = None  # the source holding the minimum advanced
                    state.max_seen = timestamp
                if late:
                    state.records_late += 1
                    late_dropped += 1
                    continue
                if timestamp < max_seen:
                    reordered += 1
                if timestamp < own_clock:
                    state.records_reordered += 1
                append(record)
                if timestamp < min_pending:
                    min_pending = timestamp
                if timestamp > max_seen:
                    if max_seen == _NEG_INF:
                        # stream time starts now: sources registered before any
                        # data begin their idle-timeout silence at the first record
                        for other in sources.values():
                            if other.baseline == _NEG_INF:
                                other.baseline = timestamp
                    max_seen = timestamp
        finally:
            self.records_seen = seen
            self.records_reordered = reordered
            self.records_late_dropped = late_dropped
            self.max_displacement_seen = max_displacement
            self._max_seen = max_seen
            self._min_pending = min_pending
            self._watermark_floor = floor
            self._min_clock = min_clock

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
    # introspection / persistence
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Return admission/lateness counters plus a per-source breakdown.

        Keys: configuration (``allowed_lateness``, ``idle_timeout``), the
        current ``watermark`` and ``buffered`` depth, the admission counters
        (``records_seen`` / ``records_reordered`` / ``records_late_dropped``
        / ``records_released`` / ``max_displacement_seen``), and
        ``sources``, mapping each source key to its watermark, clock, idle
        flag and admission counters -- the dictionary surfaced as
        ``engine.metrics()["reorder"]`` and documented in
        ``docs/operations.md``.
        """
        idle = [
            key
            for key, state in self._sources.items()
            if _idle(state, self._max_seen, self.idle_timeout)
        ]
        return {
            "allowed_lateness": self.allowed_lateness,
            "watermark": self.watermark,
            "buffered": float(len(self._pending)),
            "records_seen": float(self.records_seen),
            "records_reordered": float(self.records_reordered),
            "records_late_dropped": float(self.records_late_dropped),
            "records_released": float(self.records_released),
            "max_displacement_seen": self.max_displacement_seen,
            "kind": "multisource",
            "idle_timeout": self.idle_timeout,
            "source_count": len(self._sources),
            "idle_sources": idle,
            "sources": {
                key: {
                    "watermark": state.max_seen - self.allowed_lateness,
                    "max_seen": state.max_seen,
                    "idle": key in idle,
                    "records_seen": float(state.records_seen),
                    "records_reordered": float(state.records_reordered),
                    "records_late": float(state.records_late),
                    "max_displacement_seen": state.max_displacement_seen,
                }
                for key, state in self._sources.items()
            },
        }

    def state_dict(self) -> Dict[str, Any]:
        """Serialise the buffer: pending records, counters and per-source states.

        The pending list is stored in its exact current order -- a sorted
        prefix followed by new arrivals -- because the next drain's stable
        sort depends on it: two records with equal timestamps release in
        arrival order, and a restored buffer must release them identically.
        Source order is preserved (a list of pairs), and the watermark floor
        is explicit: it is *not* derivable from the source clocks, as it
        remembers horizons reached before a source appeared.  ``kind``
        names the payload shape (format-1 snapshots also carry ``"single"``,
        which :mod:`repro.persistence.upgrade` rewrites on restore).
        """
        return {
            "kind": "multisource",
            "allowed_lateness": self.allowed_lateness,
            "pending": [record.to_dict() for record in self._pending],
            "min_pending": self._min_pending,
            "max_seen": self._max_seen,
            "records_seen": self.records_seen,
            "records_reordered": self.records_reordered,
            "records_late_dropped": self.records_late_dropped,
            "records_released": self.records_released,
            "max_displacement_seen": self.max_displacement_seen,
            "idle_timeout": self.idle_timeout,
            "watermark_floor": self._watermark_floor,
            "sources": [[key, source.state_dict()] for key, source in self._sources.items()],
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ReorderBuffer":
        """Rebuild a buffer from :meth:`state_dict` output (exact resume:
        the restored buffer releases future records identically)."""
        buffer = cls(state["allowed_lateness"], idle_timeout=state["idle_timeout"])
        buffer._pending = [StreamEdge.from_dict(payload) for payload in state["pending"]]
        buffer._min_pending = float(state["min_pending"])
        buffer._max_seen = float(state["max_seen"])
        buffer.records_seen = state["records_seen"]
        buffer.records_reordered = state["records_reordered"]
        buffer.records_late_dropped = state["records_late_dropped"]
        buffer.records_released = state["records_released"]
        buffer.max_displacement_seen = float(state["max_displacement_seen"])
        buffer._watermark_floor = float(state["watermark_floor"])
        for key, payload in state["sources"]:
            buffer._sources[key] = _SourceState.from_state(payload)
        return buffer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReorderBuffer(lateness={self.allowed_lateness!r}, "
            f"sources={len(self._sources)}, buffered={len(self._pending)}, "
            f"watermark={self.watermark})"
        )
