#!/usr/bin/env python
"""Multi-source ingestion: per-source watermarks and the idle-source timeout.

A monitoring deployment rarely has ONE event feed: here two netflow
collectors watch the same network, and collector "B"'s clock delivers
three seconds behind collector "A".  The walk-through shows:

1. why a single global watermark is the wrong tool for that stream -- at
   the lateness each collector actually needs (zero: both are internally
   ordered) the fast collector pushes every record of the slow one past
   the horizon, and they are dropped;
2. per-source watermarks (``StreamEdge.source_id`` + ``register_source``):
   the release horizon is the minimum across the collectors, so the slow
   collector *holds* the horizon instead of losing records, and the
   result is exactly the sorted merge of the two feeds;
3. the idle-source timeout: when a collector goes silent it would freeze
   that minimum forever -- ``idle_source_timeout`` bounds the wait.

Run with::

    PYTHONPATH=src python examples/multisource_ingest.py
"""

from repro.core import EngineConfig, StreamWorksEngine
from repro.query import QueryBuilder
from repro.streaming import ReorderBuffer, StreamEdge, skewed_interleave, tag_sources


def build_query():
    """Two-hop connection chain: who reaches whom through one intermediary."""
    return (
        QueryBuilder("two_hop")
        .vertex("a", "Host")
        .vertex("b", "Host")
        .vertex("c", "Host")
        .edge("a", "b", "connectsTo")
        .edge("b", "c", "connectsTo")
        .build()
    )


def collector_streams():
    """Each collector's own feed is perfectly ordered; their clocks skew."""
    def flow(source, target, ts):
        return StreamEdge(
            source, target, "connectsTo", ts, source_label="Host", target_label="Host"
        )

    collector_a = [flow("h1", "h2", 1.0), flow("h4", "h5", 3.0), flow("h2", "h3", 5.0)]
    collector_b = [flow("h2", "h3", 2.0), flow("h5", "h6", 4.0), flow("h3", "h1", 6.0)]
    return {"A": collector_a, "B": collector_b}


def run_engine(idle_source_timeout=None, arrival=None):
    engine = StreamWorksEngine(
        config=EngineConfig(
            allowed_lateness=0.0, idle_source_timeout=idle_source_timeout
        )
    )
    engine.register_source("A")
    engine.register_source("B")
    engine.register_query(build_query(), name="two_hop", window=30.0)
    for record in arrival:
        for event in engine.process_record(record):
            print(f"  *** two_hop match at t={event.detected_at}")
    for event in engine.flush():
        print(f"  *** two_hop match at t={event.detected_at} (released by flush)")
    return engine


def main():
    per_source = collector_streams()
    # collector B delivers 3 seconds late: the merged arrival order
    # interleaves A's future ahead of B's past
    arrival = skewed_interleave(per_source, {"A": 0.0, "B": 3.0})
    print("Arrival order (timestamp@collector):",
          " ".join(f"{r.timestamp:g}@{r.source_id}" for r in arrival))
    print()

    print("Per-source watermarks (allowed_lateness=0, min-watermark release):")
    engine = run_engine(arrival=arrival)
    stats = engine.metrics()["reorder"]
    print(f"  released {stats['records_released']:.0f}/{stats['records_seen']:.0f} "
          f"records, late: {stats['records_late_dropped']:.0f}")
    print("  per-source watermarks:",
          {name: s["watermark"] for name, s in stats["sources"].items()})
    print()

    # contrast: the same arrivals without collector names share one global
    # watermark, which at the same lateness drops B's records
    global_buffer = ReorderBuffer(0.0)
    global_buffer.offer_all(tag_sources(arrival, lambda index, record: None))
    global_buffer.flush()
    print(f"Global watermark at the same lateness would have dropped "
          f"{global_buffer.records_late_dropped} of {len(arrival)} records.")
    print()

    print("Idle-source timeout (collector B goes silent after t=2):")
    silent_arrival = [r for r in arrival if r.source_id != "B" or r.timestamp <= 2.0]
    engine = run_engine(idle_source_timeout=2.5, arrival=silent_arrival)
    stats = engine.metrics()["reorder"]
    print(f"  idle sources at end of stream: {stats['idle_sources']}")
    print()
    print(engine.describe())


if __name__ == "__main__":
    main()
