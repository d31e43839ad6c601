"""Workload helpers: tag, split and skew-interleave per-source streams.

Records name their collector via ``StreamEdge.source_id``; the
:class:`~repro.streaming.reorder.ReorderBuffer` keeps one watermark per
source (untagged records share :data:`DEFAULT_SOURCE`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .edge_stream import StreamEdge
from .reorder import DEFAULT_SOURCE

__all__ = [
    "DEFAULT_SOURCE",
    "skewed_interleave",
    "split_by_source",
    "tag_sources",
]


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
        arrival_clock = float("-inf")
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
