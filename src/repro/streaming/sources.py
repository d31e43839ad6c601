"""Multi-source event time: per-source watermarks and an idle-source timeout.

The single-buffer event-time layer (:mod:`repro.streaming.reorder`) models
the input as ONE merged feed: a global watermark trails the largest
timestamp seen by ``allowed_lateness``, so the lateness horizon must cover
the *total* disorder of the merged stream.  Real deployments merge
per-collector streams whose clocks skew independently -- a netflow probe
two minutes behind the others, an article wire that batches uploads -- and
under a global watermark one fast collector pushes the horizon past every
slow collector's records: they all become "late" even though each
collector's own stream is perfectly ordered.

This module implements the classic multi-input fix:

* :class:`MultiSourceReorderBuffer` -- one watermark per ``source_id``
  (``max timestamp seen from that source - allowed_lateness``), releasing on
  the **minimum across active sources**.  A slow collector then *holds* the
  release horizon instead of losing records, and the lateness horizon only
  needs to cover each source's *own* disorder, not the inter-source skew.
* **Idle-source timeout** (``idle_timeout``, stream-time units) -- the dual
  failure mode: with a min-watermark, one *silent* collector freezes the
  horizon forever.  A source whose clock lags the global maximum by more
  than the timeout is excluded from the minimum until it speaks again;
  records it then delivers below the (monotone) watermark are late and
  dropped.  The timeout is therefore also the largest inter-source skew the
  buffer tolerates without declaring records late.

The released stream is kept globally non-decreasing by a **monotone
watermark floor**: the raw minimum can regress when a source (re)appears
with an old clock, but the effective watermark never moves backwards --
such records are classified late rather than released out of order.  With
every source known up front (:meth:`MultiSourceReorderBuffer.register_source`)
and lateness covering each source's own disorder, the release order is
exactly the stable timestamp sort of the arrival sequence -- i.e. the
sorted merge of the per-source streams -- which is the conformance oracle
the engine tests pin.

Records name their collector via :attr:`repro.streaming.edge_stream.StreamEdge.source_id`;
records without one share a single implicit default source, in which case
the buffer behaves byte-for-byte like the single-watermark
:class:`~repro.streaming.reorder.ReorderBuffer` (pinned by regression
tests).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .edge_stream import StreamEdge
from .reorder import ReorderBuffer

__all__ = [
    "DEFAULT_SOURCE",
    "MultiSourceReorderBuffer",
    "skewed_interleave",
    "split_by_source",
    "tag_sources",
]

#: Source key used for records that carry no ``source_id``.
DEFAULT_SOURCE = "__default__"

_NEG_INF = float("-inf")


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


class MultiSourceReorderBuffer(ReorderBuffer):
    """Bounded-lateness reorder buffer with one watermark per stream source.

    Parameters
    ----------
    allowed_lateness:
        The lateness horizon in stream-time units, shared by every source.
        A record is *late* -- dropped and counted -- when its timestamp lies
        below the current release watermark (it can no longer be released
        in sorted position).
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

    Release semantics are inherited from :class:`ReorderBuffer` (stable
    timestamp sort of the pending list, watermark-closed prefix per
    :meth:`drain_ready`); only the watermark arithmetic and the admission
    bookkeeping differ.  With a single (implicit) source and no idle
    timeout, behaviour is byte-for-byte the single-buffer one.
    """

    def __init__(self, allowed_lateness: float, idle_timeout: Optional[float] = None):
        super().__init__(allowed_lateness)
        if idle_timeout is not None:
            idle_timeout = float(idle_timeout)
            if not idle_timeout > 0.0:  # also rejects NaN
                raise ValueError(
                    "idle_timeout must be a positive duration in stream-time "
                    "units (or None to let silent sources hold the watermark)"
                )
        self.idle_timeout = idle_timeout
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
        the result never regresses (see the class docstring).  Without an
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
    def _admit(self, records: Iterable[StreamEdge]) -> None:
        """Admit records in arrival order under their sources' watermark bookkeeping.

        The one admission loop behind :meth:`offer` and :meth:`offer_all`
        (see :meth:`ReorderBuffer._admit`): each record is classified
        against the watermark as the records before it left it, so a batch
        admits exactly as its records offered one by one.  A late record is
        dropped but still advances its source's clock -- the collector's
        progress is real, so a source that fell behind the released horizon
        catches back up instead of pinning the watermark (or the idle test)
        at its last good record forever.

        Every source shares the lateness ``L``, so "late for every active
        source" (``clock - t > L`` for each active source clock) is the test
        against the least active clock alone -- bit for bit, since
        ``fl(clock - t)`` is monotone in ``clock`` -- and so is the raw
        watermark (``least clock - L``).  The test runs in displacement
        space, not against the subtraction-form watermark, so a borderline
        record (displacement exactly the horizon, e.g. when the horizon was
        sized with :func:`~repro.streaming.reorder.max_time_displacement`)
        classifies bit for bit as the single-watermark buffer classifies
        it.  Without an idle timeout every source is active, so the least
        clock is cached and recomputed only when the source holding it
        advances or a source joins; with one, it is taken over the sources
        active at each record.  Either way the monotone watermark floor
        applies last: it is consulted only when it strictly exceeds the raw
        minimum (a source (re)appeared with an old clock); in steady state
        the raw minimum is monotone and the floor clause never fires.

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
    # introspection / persistence
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Return the single-buffer counters plus a per-source breakdown.

        The top-level keys match :meth:`ReorderBuffer.stats` (so existing
        ``metrics()["reorder"]`` consumers keep working); ``sources`` maps
        each source key to its watermark, clock, idle flag and admission
        counters.
        """
        data = super().stats()
        data["kind"] = "multisource"
        data["idle_timeout"] = self.idle_timeout
        idle = [
            key
            for key, state in self._sources.items()
            if _idle(state, self._max_seen, self.idle_timeout)
        ]
        data["source_count"] = len(self._sources)
        data["idle_sources"] = idle
        data["sources"] = {
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
        }
        return data

    def state_dict(self) -> Dict[str, Any]:
        """Serialise the buffer: single-buffer state + per-source states.

        Source order is preserved (a dict round-trips insertion order) and
        the watermark floor is explicit (it is *not* derivable from the
        source clocks -- it remembers horizons reached before a source
        appeared).
        """
        state = super().state_dict()
        state["kind"] = "multisource"
        state["idle_timeout"] = self.idle_timeout
        state["watermark_floor"] = self._watermark_floor
        state["sources"] = [
            [
                key,
                {
                    "max_seen": source.max_seen,
                    "baseline": source.baseline,
                    "records_seen": source.records_seen,
                    "records_reordered": source.records_reordered,
                    "records_late": source.records_late,
                    "max_displacement_seen": source.max_displacement_seen,
                },
            ]
            for key, source in self._sources.items()
        ]
        return state

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "MultiSourceReorderBuffer":
        """Rebuild a buffer from :meth:`state_dict` output (exact resume)."""
        buffer = cls(state["allowed_lateness"], idle_timeout=state["idle_timeout"])
        buffer._load_base_state(state)
        buffer._watermark_floor = float(state["watermark_floor"])
        for key, payload in state["sources"]:
            source = _SourceState(baseline=float(payload["baseline"]))
            source.max_seen = float(payload["max_seen"])
            source.records_seen = payload["records_seen"]
            source.records_reordered = payload["records_reordered"]
            source.records_late = payload["records_late"]
            source.max_displacement_seen = float(payload["max_displacement_seen"])
            buffer._sources[key] = source
        return buffer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiSourceReorderBuffer(lateness={self.allowed_lateness!r}, "
            f"sources={len(self._sources)}, buffered={len(self._pending)}, "
            f"watermark={self.watermark})"
        )


# ----------------------------------------------------------------------
# workload helpers: building multi-source arrival sequences
# ----------------------------------------------------------------------
def tag_sources(
    records: Iterable[StreamEdge],
    source_for: Callable[[int, StreamEdge], Optional[str]],
) -> List[StreamEdge]:
    """Return copies of ``records`` with ``source_id`` set by ``source_for``.

    ``source_for`` receives ``(index, record)`` and returns the source id
    (or ``None`` for the implicit default source).  Records are copied --
    the input stream is not mutated -- with all other fields preserved.
    """
    tagged: List[StreamEdge] = []
    for index, record in enumerate(records):
        copy = StreamEdge.from_dict(record.to_dict())
        copy.source_id = source_for(index, record)
        tagged.append(copy)
    return tagged


def split_by_source(records: Iterable[StreamEdge]) -> Dict[Optional[str], List[StreamEdge]]:
    """Group records by their ``source_id`` (order within each group preserved)."""
    groups: Dict[Optional[str], List[StreamEdge]] = {}
    for record in records:
        groups.setdefault(record.source_id, []).append(record)
    return groups


def skewed_interleave(
    per_source: Mapping[Optional[str], Sequence[StreamEdge]],
    lag: Union[Mapping[Optional[str], float], Callable[[Optional[str], float], float]],
) -> List[StreamEdge]:
    """Interleave per-source streams as a skewed merged feed (arrival order).

    Each source delivers its records FIFO (per-source arrival order equals
    its event-time order), but source ``s``'s record stamped ``ts`` only
    *arrives* at merged position ``ts + lag(s, ts)`` -- ``lag`` is either a
    constant per-source mapping or a callable, modelling collector clock
    skew and time-varying delivery delay.  Within a source, arrival times
    are forced non-decreasing (a collector that catches up delivers its
    backlog in order, it does not reorder it).  Returns the merged arrival
    sequence with every record tagged with its source id; ties are broken
    by source-key sort order (a ``None`` key -- untagged records, as
    :func:`split_by_source` groups them -- sorts first; ``lag`` must then
    cover ``None`` too) then in-source position, so the interleaving is
    deterministic.  Event timestamps are left untouched -- only the
    *order* models the skew.
    """
    lag_of: Callable[[Optional[str], float], float]
    if callable(lag):
        lag_of = lag
    else:
        lag_mapping = lag
        lag_of = lambda source, timestamp: lag_mapping[source]  # noqa: E731 - tiny adapter
    keyed: List[Tuple[float, int, int, Optional[str], StreamEdge]] = []
    # a None key (untagged records, as split_by_source produces for them)
    # sorts first rather than crashing the str/None comparison
    source_order = sorted(per_source, key=lambda name: (name is not None, name or ""))
    for source_index, source in enumerate(source_order):
        arrival_clock = _NEG_INF
        for position, record in enumerate(per_source[source]):
            arrival = record.timestamp + lag_of(source, record.timestamp)
            if arrival < arrival_clock:
                arrival = arrival_clock  # FIFO delivery within a source
            arrival_clock = arrival
            keyed.append((arrival, source_index, position, source, record))
    keyed.sort(key=lambda item: item[:3])
    merged: List[StreamEdge] = []
    for _, _, _, source, record in keyed:
        copy = StreamEdge.from_dict(record.to_dict())
        copy.source_id = source
        merged.append(copy)
    return merged
