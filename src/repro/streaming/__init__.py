"""Streaming infrastructure: edge streams, batching, events and metrics."""

from .batching import BatchReplay, BatchResult, batch_by_count, batch_by_time
from .edge_stream import EdgeStream, StreamEdge, merge_streams
from .events import (
    CallbackSink,
    CollectingSink,
    CountingSink,
    EventSink,
    MatchEvent,
    MultiSink,
    QueryFilterSink,
    merge_events,
)
from .metrics import LatencyRecorder, Stopwatch, ThroughputMeter
from .partition import BatchRouter, LabelShardMap, Routing, ShardBatch, greedy_partition
from .reorder import (
    DEFAULT_SOURCE,
    ReorderBuffer,
    bounded_shuffle,
    max_time_displacement,
    ordered_run_slices,
)
from .sources import skewed_interleave, split_by_source, tag_sources

__all__ = [
    "BatchReplay",
    "BatchResult",
    "BatchRouter",
    "CallbackSink",
    "CollectingSink",
    "CountingSink",
    "DEFAULT_SOURCE",
    "EdgeStream",
    "EventSink",
    "LabelShardMap",
    "LatencyRecorder",
    "MatchEvent",
    "MultiSink",
    "QueryFilterSink",
    "ReorderBuffer",
    "Routing",
    "ShardBatch",
    "Stopwatch",
    "StreamEdge",
    "ThroughputMeter",
    "batch_by_count",
    "batch_by_time",
    "bounded_shuffle",
    "greedy_partition",
    "max_time_displacement",
    "merge_events",
    "merge_streams",
    "ordered_run_slices",
    "skewed_interleave",
    "split_by_source",
    "tag_sources",
]
