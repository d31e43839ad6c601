"""Multi-source event time: per-source watermarks, idle timeout, adaptive lateness.

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
  (``max timestamp seen from that source - its lateness``), releasing on the
  **minimum across active sources**.  A slow collector then *holds* the
  release horizon instead of losing records, and the lateness horizon only
  needs to cover each source's *own* disorder, not the inter-source skew.
* **Idle-source timeout** (``idle_timeout``, stream-time units) -- the dual
  failure mode: with a min-watermark, one *silent* collector freezes the
  horizon forever.  A source whose clock lags the global maximum by more
  than the timeout is excluded from the minimum until it speaks again;
  records it then delivers below the (monotone) watermark are late and
  follow the normal late policy.  The timeout is therefore also the largest
  inter-source skew the buffer tolerates without declaring records late.
* **Adaptive lateness** (``allowed_lateness="adaptive"``) -- each source's
  lateness horizon tracks a running quantile of its own observed
  displacement (how far records arrive behind that source's clock), so the
  completeness/latency trade-off is made online per collector instead of
  provisioned for the worst case up front.

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

import math
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
from .reorder import LatePolicy, ReorderBuffer

__all__ = [
    "ADAPTIVE_LATENESS",
    "DEFAULT_SOURCE",
    "MultiSourceReorderBuffer",
    "reorder_buffer_from_state",
    "skewed_interleave",
    "split_by_source",
    "tag_sources",
]

#: Source key used for records that carry no ``source_id``.
DEFAULT_SOURCE = "__default__"

#: ``allowed_lateness`` sentinel selecting per-source adaptive horizons.
ADAPTIVE_LATENESS = "adaptive"

_NEG_INF = float("-inf")


class _SourceState:
    """Per-source watermark bookkeeping (one instance per collector)."""

    __slots__ = (
        "max_seen",
        "baseline",
        "lateness",
        "records_seen",
        "records_reordered",
        "records_late",
        "max_displacement_seen",
        "samples",
        "since_refresh",
    )

    def __init__(self, lateness: float, baseline: float = _NEG_INF):
        #: Largest event timestamp this source has delivered (its clock).
        self.max_seen = _NEG_INF
        #: Stream time at which this source became known (its registration
        #: epoch, or the stream's first record for sources registered before
        #: any data).  A source that has never spoken has its idle-timeout
        #: silence measured from here -- NOT treated as idle immediately --
        #: so a skewed-but-live collector's first record is not orphaned.
        self.baseline = baseline
        #: This source's lateness horizon (fixed, or the adaptive estimate).
        self.lateness = lateness
        self.records_seen = 0
        #: Records behind this source's own clock but not late.
        self.records_reordered = 0
        #: Records from this source below the release watermark on arrival.
        self.records_late = 0
        #: Largest displacement behind this source's own clock.
        self.max_displacement_seen = 0.0
        #: Recent own-clock displacements (adaptive mode only; bounded).
        self.samples: List[float] = []
        self.since_refresh = 0


def _quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Return the ``q``-quantile of an ascending sample list (nearest-rank)."""
    if not sorted_samples:
        return 0.0
    rank = math.ceil(q * len(sorted_samples)) - 1
    return sorted_samples[max(0, min(rank, len(sorted_samples) - 1))]


class MultiSourceReorderBuffer(ReorderBuffer):
    """Bounded-lateness reorder buffer with one watermark per stream source.

    Parameters
    ----------
    allowed_lateness:
        A float horizon (stream-time units, applied to every source), or the
        string ``"adaptive"`` to let each source's horizon track the
        ``adaptive_quantile`` of its own observed displacement.
    late_policy:
        :attr:`~repro.streaming.reorder.LatePolicy.DROP` (default) or
        :attr:`~repro.streaming.reorder.LatePolicy.PROCESS_DEGRADED`; a
        record is *late* when its timestamp lies below the current release
        watermark (it can no longer be released in sorted position).
    idle_timeout:
        Stream-time units after which a source whose clock lags the global
        maximum is excluded from the release minimum (``None`` -- never:
        a silent source holds the horizon indefinitely).  Doubles as the
        largest tolerated inter-source skew: a live source lagging by more
        than the timeout is treated as idle and its records may be late.
    adaptive_quantile / adaptive_sample_cap / adaptive_refresh / adaptive_floor:
        Adaptive-mode tuning: the per-source horizon is
        ``max(adaptive_floor, quantile(last adaptive_sample_cap own-clock
        displacements))``, recomputed every ``adaptive_refresh`` records per
        source (quantiles are amortised off the per-record hot path).

    Raises
    ------
    ValueError
        On a negative/NaN ``allowed_lateness`` (anything that is neither a
        non-negative float nor ``"adaptive"``), a non-positive
        ``idle_timeout``, an unknown ``late_policy``, or an
        ``adaptive_quantile`` outside ``(0, 1]``.

    Release semantics are inherited from :class:`ReorderBuffer` (stable
    timestamp sort of the pending list, watermark-closed prefix per
    :meth:`drain_ready`); only the watermark arithmetic and the admission
    bookkeeping differ.  With a single (implicit) source, fixed lateness and
    no idle timeout, behaviour is byte-for-byte the single-buffer one.
    """

    def __init__(
        self,
        allowed_lateness: Union[float, str],
        late_policy: str = LatePolicy.DROP,
        idle_timeout: Optional[float] = None,
        adaptive_quantile: float = 0.99,
        adaptive_sample_cap: int = 256,
        adaptive_refresh: int = 32,
        adaptive_floor: float = 0.0,
    ):
        self.adaptive = allowed_lateness == ADAPTIVE_LATENESS
        if self.adaptive:
            if not 0.0 < adaptive_quantile <= 1.0:
                raise ValueError("adaptive_quantile must be in (0, 1]")
            if adaptive_sample_cap <= 0 or adaptive_refresh <= 0:
                raise ValueError("adaptive_sample_cap and adaptive_refresh must be positive")
            adaptive_floor = float(adaptive_floor)
            if not adaptive_floor >= 0.0:  # also rejects NaN
                raise ValueError("adaptive_floor must be >= 0 (stream-time units)")
            super().__init__(0.0, late_policy=late_policy)
        elif isinstance(allowed_lateness, str):
            raise ValueError(
                f"allowed_lateness must be a non-negative float or "
                f"{ADAPTIVE_LATENESS!r}, got {allowed_lateness!r}"
            )
        else:
            super().__init__(allowed_lateness, late_policy=late_policy)
        if idle_timeout is not None:
            idle_timeout = float(idle_timeout)
            if not idle_timeout > 0.0:  # also rejects NaN
                raise ValueError(
                    "idle_timeout must be a positive duration in stream-time "
                    "units (or None to let silent sources hold the watermark)"
                )
        self.idle_timeout = idle_timeout
        self.adaptive_quantile = adaptive_quantile
        self.adaptive_sample_cap = adaptive_sample_cap
        self.adaptive_refresh = adaptive_refresh
        self.adaptive_floor = adaptive_floor
        #: ``{source key: _SourceState}`` in first-seen/registration order.
        self._sources: Dict[str, _SourceState] = {}
        #: Monotone release horizon: the raw min-watermark can regress when a
        #: source (re)appears with an old clock, but released batches must
        #: stay globally non-decreasing, so the effective watermark is the
        #: running maximum of the raw one and such records are late instead.
        self._watermark_floor = _NEG_INF

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def _initial_lateness(self) -> float:
        return self.adaptive_floor if self.adaptive else self.allowed_lateness

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
            self._sources[key] = _SourceState(
                self._initial_lateness(), baseline=self._max_seen
            )

    def sources(self) -> List[str]:
        """Return the known source keys in registration/first-seen order."""
        return list(self._sources)

    def _is_idle(self, state: _SourceState) -> bool:
        if self.idle_timeout is None:
            return False
        # a never-spoke source's silence is measured from its baseline (its
        # registration epoch, or the stream's first record); its clock once
        # it has spoken
        reference = state.max_seen if state.max_seen != _NEG_INF else state.baseline
        if reference == _NEG_INF:
            return False  # no stream time has passed that it could have missed
        return self._max_seen - reference > self.idle_timeout

    # ------------------------------------------------------------------
    # watermark arithmetic
    # ------------------------------------------------------------------
    def _raw_watermark(self) -> float:
        if not self._sources or self._max_seen == _NEG_INF:
            return _NEG_INF
        horizon = float("inf")
        any_active = False
        for state in self._sources.values():
            if self._is_idle(state):
                continue
            any_active = True
            candidate = state.max_seen - state.lateness
            if candidate < horizon:
                horizon = candidate
        # the source holding the global maximum is never idle, so with any
        # record seen at least one source is active; defensive nonetheless
        return horizon if any_active else _NEG_INF

    def _current_watermark(self) -> float:
        raw = self._raw_watermark()
        if raw > self._watermark_floor:
            self._watermark_floor = raw
        return self._watermark_floor

    def _is_late(self, timestamp: float) -> bool:
        """Is a record below the release horizon (cannot release in order)?

        The min-watermark test runs in *displacement space* -- late iff
        ``max_seen - timestamp > lateness`` for **every** active source --
        rather than comparing against the subtraction-form watermark, so a
        borderline record (displacement exactly equal to the horizon, e.g.
        when the horizon was sized with
        :func:`~repro.streaming.reorder.max_time_displacement`) classifies
        bit-for-bit as the single-watermark buffer classifies it.  The
        monotone floor is consulted only when it strictly exceeds the raw
        minimum (a source (re)appeared with an old clock); in steady state
        the raw minimum is monotone and the floor clause never fires.
        """
        raw = self._raw_watermark()
        if raw > self._watermark_floor:
            self._watermark_floor = raw
        late = False
        if self._sources and self._max_seen != _NEG_INF:
            any_active = False
            late = True
            for state in self._sources.values():
                if self._is_idle(state):
                    continue
                any_active = True
                if not state.max_seen - timestamp > state.lateness:
                    late = False
                    break
            late = late and any_active
        if not late and self._watermark_floor > raw and timestamp < self._watermark_floor:
            late = True
        return late

    @property
    def watermark(self) -> float:
        """The monotone release watermark: min over active per-source watermarks.

        Each source's watermark is its largest delivered timestamp minus its
        lateness horizon; idle sources (see ``idle_timeout``) are excluded;
        the result never regresses (see the class docstring).
        """
        return self._current_watermark()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def offer(self, record: StreamEdge) -> Optional[StreamEdge]:
        """Admit one record under its source's watermark bookkeeping.

        Returns the record back only when it is late *and* the policy is
        :attr:`~repro.streaming.reorder.LatePolicy.PROCESS_DEGRADED`
        (mirroring :meth:`ReorderBuffer.offer`); ``None`` otherwise.  A late
        record still advances its source's clock -- the record is dropped or
        degraded, but the collector's progress is real, so a source that
        fell behind the released horizon catches back up instead of pinning
        the watermark (or the idle test) at its last good record forever.
        """
        key = record.source_id if record.source_id is not None else DEFAULT_SOURCE
        state = self._sources.get(key)
        if state is None:
            state = _SourceState(self._initial_lateness())
            self._sources[key] = state
        self.records_seen += 1
        state.records_seen += 1
        timestamp = record.timestamp
        # global displacement keeps the single-buffer counter semantics
        displacement = self._max_seen - timestamp
        if displacement > self.max_displacement_seen:
            self.max_displacement_seen = displacement
        own_displacement = state.max_seen - timestamp
        if own_displacement < 0.0:
            own_displacement = 0.0
        if own_displacement > state.max_displacement_seen:
            state.max_displacement_seen = own_displacement
        if self.adaptive:
            self._observe_displacement(state, own_displacement)
        late = self._is_late(timestamp)
        if timestamp > state.max_seen:
            state.max_seen = timestamp
        if late:
            self.records_late += 1
            state.records_late += 1
            if self.late_policy == LatePolicy.PROCESS_DEGRADED:
                self.records_late_degraded += 1
                return record
            self.records_late_dropped += 1
            return None
        if displacement > 0:
            self.records_reordered += 1
        if own_displacement > 0:
            state.records_reordered += 1
        self._pending.append(record)
        if timestamp < self._min_pending:
            self._min_pending = timestamp
        if timestamp > self._max_seen:
            first_data = self._max_seen == _NEG_INF
            self._max_seen = timestamp
            if first_data:
                # stream time starts now: sources registered before any data
                # begin their idle-timeout silence at the first record
                for other in self._sources.values():
                    if other.baseline == _NEG_INF:
                        other.baseline = timestamp
        return None

    def _observe_displacement(self, state: _SourceState, own_displacement: float) -> None:
        """Fold one own-clock displacement into the source's adaptive horizon."""
        samples = state.samples
        samples.append(own_displacement)
        if len(samples) > self.adaptive_sample_cap:
            del samples[: len(samples) - self.adaptive_sample_cap]
        state.since_refresh += 1
        # quantiles are O(n log n); recompute on a cadence, not per record
        if state.since_refresh >= self.adaptive_refresh or state.records_seen <= 1:
            state.since_refresh = 0
            estimate = _quantile(sorted(samples), self.adaptive_quantile)
            state.lateness = max(self.adaptive_floor, estimate)

    # ------------------------------------------------------------------
    # introspection / persistence
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Return the single-buffer counters plus a per-source breakdown.

        The top-level keys match :meth:`ReorderBuffer.stats` (so existing
        ``metrics()["reorder"]`` consumers keep working); ``sources`` maps
        each source key to its watermark, clock, lateness horizon, idle
        flag and admission counters.
        """
        data = super().stats()
        data["kind"] = "multisource"
        data["allowed_lateness"] = ADAPTIVE_LATENESS if self.adaptive else self.allowed_lateness
        data["idle_timeout"] = self.idle_timeout
        idle = [key for key, state in self._sources.items() if self._is_idle(state)]
        data["source_count"] = len(self._sources)
        data["idle_sources"] = idle
        data["sources"] = {
            key: {
                "watermark": state.max_seen - state.lateness,
                "max_seen": state.max_seen,
                "lateness": state.lateness,
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

        Source order is preserved (a dict round-trips insertion order), the
        watermark floor is explicit (it is *not* derivable from the source
        clocks -- it remembers horizons reached before a source appeared),
        and adaptive sample windows round-trip exactly so a restored buffer
        computes the same horizons at the same refresh points.
        """
        state = super().state_dict()
        state["kind"] = "multisource"
        state["allowed_lateness"] = ADAPTIVE_LATENESS if self.adaptive else self.allowed_lateness
        state["idle_timeout"] = self.idle_timeout
        state["adaptive_quantile"] = self.adaptive_quantile
        state["adaptive_sample_cap"] = self.adaptive_sample_cap
        state["adaptive_refresh"] = self.adaptive_refresh
        state["adaptive_floor"] = self.adaptive_floor
        state["watermark_floor"] = self._watermark_floor
        state["sources"] = [
            [
                key,
                {
                    "max_seen": source.max_seen,
                    "baseline": source.baseline,
                    "lateness": source.lateness,
                    "records_seen": source.records_seen,
                    "records_reordered": source.records_reordered,
                    "records_late": source.records_late,
                    "max_displacement_seen": source.max_displacement_seen,
                    "samples": list(source.samples),
                    "since_refresh": source.since_refresh,
                },
            ]
            for key, source in self._sources.items()
        ]
        return state

    @classmethod
    def from_single_state(cls, state: Mapping[str, Any]) -> "MultiSourceReorderBuffer":
        """Upgrade a single-watermark :class:`ReorderBuffer` payload in place.

        Engines now always own the multi-source buffer, but snapshots
        written before it existed carry a plain single-buffer state.  The
        upgrade is behaviour-preserving: the whole history is attributed to
        the implicit default source (its clock is the old global maximum,
        its lateness the old horizon, and the watermark floor is the old
        watermark), so a sourceless resumed stream releases byte-for-byte
        as the old buffer would -- while ``register_source`` and
        ``source_id``-tagged records work on the restored engine exactly as
        on a fresh one.
        """
        buffer = cls(state["allowed_lateness"], late_policy=state["late_policy"])
        buffer._load_base_state(state)
        if buffer._max_seen != _NEG_INF:
            source = _SourceState(buffer.allowed_lateness, baseline=buffer._max_seen)
            source.max_seen = buffer._max_seen
            source.records_seen = buffer.records_seen
            source.records_reordered = buffer.records_reordered
            source.records_late = buffer.records_late
            source.max_displacement_seen = buffer.max_displacement_seen
            buffer._sources[DEFAULT_SOURCE] = source
            buffer._watermark_floor = buffer._max_seen - buffer.allowed_lateness
        return buffer

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "MultiSourceReorderBuffer":
        """Rebuild a buffer from :meth:`state_dict` output (exact resume)."""
        buffer = cls(
            state["allowed_lateness"],
            late_policy=state["late_policy"],
            idle_timeout=state["idle_timeout"],
            adaptive_quantile=state["adaptive_quantile"],
            adaptive_sample_cap=state["adaptive_sample_cap"],
            adaptive_refresh=state["adaptive_refresh"],
            adaptive_floor=state["adaptive_floor"],
        )
        buffer._load_base_state(state)
        buffer._watermark_floor = float(state["watermark_floor"])
        for key, payload in state["sources"]:
            source = _SourceState(
                float(payload["lateness"]), baseline=float(payload["baseline"])
            )
            source.max_seen = float(payload["max_seen"])
            source.records_seen = payload["records_seen"]
            source.records_reordered = payload["records_reordered"]
            source.records_late = payload["records_late"]
            source.max_displacement_seen = float(payload["max_displacement_seen"])
            source.samples = [float(sample) for sample in payload["samples"]]
            source.since_refresh = payload["since_refresh"]
            buffer._sources[key] = source
        return buffer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiSourceReorderBuffer(lateness="
            f"{ADAPTIVE_LATENESS if self.adaptive else self.allowed_lateness!r}, "
            f"sources={len(self._sources)}, buffered={len(self._pending)}, "
            f"watermark={self.watermark})"
        )


def reorder_buffer_from_state(state: Mapping[str, Any]) -> "MultiSourceReorderBuffer":
    """Rebuild an *engine-owned* reorder buffer from a ``state_dict`` payload.

    Dispatches on the payload's ``kind`` tag.  Engines always own the
    multi-source buffer, so a single-watermark payload (written before the
    tag existed, or tagged ``"single"``) is **upgraded** via
    :meth:`MultiSourceReorderBuffer.from_single_state` -- the restored
    engine then supports ``register_source`` and ``source_id``-tagged
    records exactly like a fresh one, while sourceless streams resume
    byte-for-byte.  (To reconstruct a standalone ``ReorderBuffer`` as-is,
    call its own ``from_state``.)  Raises ``ValueError`` on an unknown
    kind.
    """
    kind = state.get("kind", "single")
    if kind == "single":
        return MultiSourceReorderBuffer.from_single_state(state)
    if kind == "multisource":
        return MultiSourceReorderBuffer.from_state(state)
    raise ValueError(f"unknown reorder buffer kind {kind!r} in snapshot state")


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
