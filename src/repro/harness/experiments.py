"""Experiment harness: one function per reproduced figure/table (see DESIGN.md).

Every function is deterministic (seeded generators), takes a ``scale``
parameter so tests can run a small version and the benchmarks the full
version, and returns a plain dictionary with

* ``rows`` -- the table/series the paper artefact corresponds to, ready for
  :func:`repro.harness.reporting.format_table`;
* scalar summary fields (totals, speedups, shape-check booleans).

The experiment ids (E1..E10) map to paper artefacts as documented in
DESIGN.md section 4 and EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.repeated_search import RepeatedSearchEngine
from ..core.decomposition import Strategy
from ..core.engine import EngineConfig, StreamWorksEngine
from ..core.sharded import ShardConfig, ShardedStreamEngine
from ..core.matcher import ContinuousQueryMatcher
from ..core.planner import PlannerConfig, QueryPlanner
from ..graph.dynamic_graph import DynamicGraph
from ..graph.window import TimeWindow
from ..isomorphism.vf2 import SubgraphMatcher
from ..query.query_graph import QueryGraph
from ..queries.cyber import (
    data_exfiltration_query,
    port_scan_query,
    smurf_ddos_query,
    worm_propagation_query,
)
from ..queries.news import common_topic_location_query, labelled_topic_query
from ..stats.selectivity import SelectivityEstimator
from ..stats.summarizer import GraphSummary, StreamSummarizer
from ..streaming.batching import BatchReplay
from ..streaming.edge_stream import EdgeStream, StreamEdge, merge_streams
from ..streaming.metrics import Stopwatch
from ..streaming.reorder import ReorderBuffer, bounded_shuffle, max_time_displacement
from ..streaming.sources import (
    MultiSourceReorderBuffer,
    skewed_interleave,
    split_by_source,
    tag_sources,
)
from ..viz.geo import EventGrid, location_of_match, subnet_of_vertex
from ..viz.snapshots import EmergingMatchTracker
from ..workloads.attacks import AttackInjector
from ..workloads.netflow import NetflowConfig, NetflowGenerator
from ..workloads.nyt import NewsStreamConfig, NewsStreamGenerator
from ..workloads.rmat import RmatConfig, RmatGenerator

__all__ = [
    "experiment_fig2_news_decomposition",
    "experiment_fig3_cyber_queries",
    "experiment_fig5_news_map",
    "experiment_fig6_ddos_cascade",
    "experiment_fig7_query_plans",
    "experiment_tab1_throughput",
    "experiment_tab2_incremental_vs_repeated",
    "experiment_tab3_selectivity_ablation",
    "experiment_tab4_summarization",
    "experiment_tab5_window_sweep",
    "experiment_out_of_order_throughput",
    "experiment_checkpoint_recovery",
    "experiment_multisource_ingest",
    "ALL_EXPERIMENTS",
]


# ----------------------------------------------------------------------
# shared workload builders
# ----------------------------------------------------------------------
def _news_workload(
    article_count: int,
    bursts: Sequence[Tuple[str, str, float]],
    seed: int = 17,
    mean_interarrival: float = 2.0,
):
    generator = NewsStreamGenerator(
        NewsStreamConfig(seed=seed, mean_interarrival=mean_interarrival)
    )
    stream, events = generator.stream_with_bursts(article_count, bursts)
    return stream, events, generator


def _netflow_with_attacks(
    record_count: int,
    seed: int = 11,
    smurf_times: Sequence[float] = (),
    worm_times: Sequence[float] = (),
    scan_times: Sequence[float] = (),
    exfil_times: Sequence[float] = (),
    subnet_count: int = 8,
    reflector_count: int = 4,
):
    generator = NetflowGenerator(NetflowConfig(seed=seed, subnet_count=subnet_count))
    background = generator.stream(record_count)
    injector = AttackInjector(generator, seed=seed + 1)
    pieces = [background]
    for t in smurf_times:
        pieces.append(injector.smurf_ddos(t, reflector_count=reflector_count))
    for t in worm_times:
        pieces.append(injector.worm_propagation(t))
    for t in scan_times:
        pieces.append(injector.port_scan(t))
    for t in exfil_times:
        pieces.append(injector.data_exfiltration(t))
    return merge_streams(*pieces, name="netflow_with_attacks"), generator, injector


def _summary_from_stream(stream: EdgeStream, window: Optional[float] = None) -> GraphSummary:
    """Build planning statistics from a store fed a stream prefix."""
    graph = DynamicGraph(TimeWindow(window) if window else TimeWindow(None))
    for record in stream:
        graph.ingest(
            record.source,
            record.target,
            record.label,
            record.timestamp,
            record.attrs,
            source_label=record.source_label,
            target_label=record.target_label,
        )
    return StreamSummarizer(graph).summary()


# ----------------------------------------------------------------------
# E1 (Fig. 2): SJ-Tree decomposition of the news query
# ----------------------------------------------------------------------
def experiment_fig2_news_decomposition(scale: float = 1.0, seed: int = 17) -> Dict[str, object]:
    """Reproduce Fig. 2: decompose the "3 articles share keyword+location" query.

    Reports the chosen primitives, their selectivity estimates, and -- after
    running the stream -- how many matches accumulated at each SJ-Tree level.
    """
    article_count = max(50, int(200 * scale))
    bursts = [
        ("politics", "washington", 120.0),
        ("accident", "paris", 260.0),
        ("politics", "london", 400.0),
    ]
    stream, planted, _ = _news_workload(article_count, bursts, seed=seed)
    query = common_topic_location_query(3)
    window = 60.0

    summary = _summary_from_stream(stream.limit(len(stream) // 3))
    planner = QueryPlanner(summary, PlannerConfig(strategy=Strategy.SELECTIVITY))
    plan = planner.plan(query)

    graph = DynamicGraph(TimeWindow(window))
    matcher = ContinuousQueryMatcher(
        query, plan.decomposition, graph, TimeWindow(window), dedupe_structural=True
    )
    for record in stream:
        edge = graph.ingest(
            record.source,
            record.target,
            record.label,
            record.timestamp,
            record.attrs,
            source_label=record.source_label,
            target_label=record.target_label,
        )
        matcher.process_edge(edge)

    rows = []
    for node_id in sorted(matcher.tree.nodes):
        node = matcher.tree.node(node_id)
        rows.append(
            {
                "node": node_id,
                "kind": "leaf" if node.is_leaf else ("root" if node.is_root else "join"),
                "query_edges": node.subgraph.edge_count(),
                "cut": ",".join(node.cut_vertices) if node.cut_vertices else "-",
                "matches_inserted": node.total_inserted,
                "matches_stored": node.match_count(),
            }
        )
    return {
        "experiment": "E1_fig2_news_decomposition",
        "article_count": article_count,
        "window": window,
        "primitives": plan.primitive_count(),
        "strategy": plan.strategy,
        "complete_matches": matcher.stats.complete_matches,
        "planted_bursts": len(planted),
        "plan_description": plan.describe(),
        "estimates": plan.estimates,
        "rows": rows,
    }


# ----------------------------------------------------------------------
# E2 (Fig. 3): cyber-attack query catalogue
# ----------------------------------------------------------------------
def experiment_fig3_cyber_queries(scale: float = 1.0, seed: int = 11) -> Dict[str, object]:
    """Reproduce Fig. 3: run the four cyber queries against traffic with planted attacks."""
    record_count = max(500, int(2000 * scale))
    duration = record_count * 0.05
    smurf_times = [duration * 0.3, duration * 0.8]
    worm_times = [duration * 0.45]
    scan_times = [duration * 0.6]
    exfil_times = [duration * 0.7]
    stream, _, _ = _netflow_with_attacks(
        record_count,
        seed=seed,
        smurf_times=smurf_times,
        worm_times=worm_times,
        scan_times=scan_times,
        exfil_times=exfil_times,
    )

    queries = {
        "smurf_ddos": (smurf_ddos_query(3), 10.0, len(smurf_times)),
        "worm_propagation": (worm_propagation_query(), 30.0, len(worm_times)),
        "port_scan": (port_scan_query(3), 5.0, len(scan_times)),
        "data_exfiltration": (data_exfiltration_query(), 30.0, len(exfil_times)),
    }

    engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True, track_triads=False))
    for name, (query, window, _) in queries.items():
        engine.register_query(query, name=name, window=window)
    engine.process_stream(stream)

    rows = []
    for name, (query, window, planted) in queries.items():
        events = engine.events(name)
        latencies = [event.detection_latency for event in events]
        rows.append(
            {
                "query": name,
                "query_edges": query.edge_count(),
                "window": window,
                "planted_attacks": planted,
                "events": len(events),
                "detected": int(bool(events)),
                "mean_detection_latency": sum(latencies) / len(latencies) if latencies else 0.0,
            }
        )
    return {
        "experiment": "E2_fig3_cyber_queries",
        "stream_edges": len(stream),
        "all_attacks_detected": all(row["events"] >= row["planted_attacks"] for row in rows),
        "rows": rows,
    }


# ----------------------------------------------------------------------
# E3 (Fig. 5): map view of news query hits
# ----------------------------------------------------------------------
def experiment_fig5_news_map(scale: float = 1.0, seed: int = 19) -> Dict[str, object]:
    """Reproduce Fig. 5: labelled topic queries aggregated by location and time bucket."""
    article_count = max(80, int(300 * scale))
    bursts = [
        ("politics", "washington", 100.0),
        ("politics", "london", 300.0),
        ("accident", "paris", 200.0),
        ("protest", "cairo", 420.0),
    ]
    stream, planted, _ = _news_workload(article_count, bursts, seed=seed)
    topics = sorted({topic for topic, _, _ in bursts})

    engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True, track_triads=False))
    for topic in topics:
        engine.register_query(labelled_topic_query(topic, article_count=3), name=f"topic:{topic}", window=60.0)
    engine.process_stream(stream)

    rows = []
    grids: Dict[str, EventGrid] = {}
    for topic in topics:
        grid = EventGrid(bucket_seconds=60.0, key_function=lambda e: location_of_match(e, "loc"))
        grid.add_all(engine.events(f"topic:{topic}"))
        grids[topic] = grid
        for cell in grid.rows():
            rows.append(
                {
                    "topic": topic,
                    "location": cell["key"],
                    "bucket_start": cell["bucket_start"],
                    "events": cell["count"],
                }
            )
    planted_pairs = {(topic, f"loc:{location}") for topic, location, _ in bursts}
    detected_pairs = {(row["topic"], row["location"]) for row in rows}
    return {
        "experiment": "E3_fig5_news_map",
        "topics": topics,
        "planted_events": len(planted),
        "planted_pairs_detected": sum(1 for pair in planted_pairs if pair in detected_pairs),
        "planted_pairs_total": len(planted_pairs),
        "rows": rows,
        "grids": {topic: grid.render() for topic, grid in grids.items()},
    }


# ----------------------------------------------------------------------
# E4 (Fig. 6): Smurf DDoS cascade across subnetworks
# ----------------------------------------------------------------------
def experiment_fig6_ddos_cascade(scale: float = 1.0, seed: int = 13) -> Dict[str, object]:
    """Reproduce Fig. 6: detect the cascade order of a multi-subnet Smurf attack."""
    record_count = max(400, int(1500 * scale))
    subnet_count = 6
    generator = NetflowGenerator(NetflowConfig(seed=seed, subnet_count=subnet_count, host_count=180))
    background = generator.stream(record_count)
    injector = AttackInjector(generator, seed=seed + 1)
    cascade_start = record_count * 0.05 * 0.3
    cascade, plan = injector.smurf_cascade(
        cascade_start, subnet_count=subnet_count, stage_gap=8.0, reflector_count=5
    )
    stream = merge_streams(background, cascade, name="ddos_cascade")

    engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True, track_triads=False))
    engine.register_query(smurf_ddos_query(3), name="smurf", window=10.0)
    engine.process_stream(stream)

    grid = EventGrid(
        bucket_seconds=8.0,
        key_function=lambda event: subnet_of_vertex(event.match.vertex_map.get("broadcast", "")),
    )
    grid.add_all(engine.events("smurf"))

    rows = []
    detection_order = grid.detection_order()
    for stage, (subnet, injected_at) in enumerate(zip(plan.subnet_order, plan.start_times)):
        key = f"10.0.{subnet}"
        first = grid.first_detection(key)
        rows.append(
            {
                "stage": stage,
                "subnet": key,
                "injected_at": injected_at,
                "first_detection": first if first is not None else float("nan"),
                "detection_lag": (first - injected_at) if first is not None else float("nan"),
                "detected": int(first is not None),
            }
        )
    expected_order = [f"10.0.{subnet}" for subnet in plan.subnet_order]
    detected_in_order = [key for key in detection_order if key in set(expected_order)]
    return {
        "experiment": "E4_fig6_ddos_cascade",
        "stream_edges": len(stream),
        "subnets_attacked": len(plan.subnet_order),
        "subnets_detected": sum(row["detected"] for row in rows),
        "cascade_order_preserved": detected_in_order == [k for k in expected_order if k in detected_in_order],
        "grid": grid.render(),
        "rows": rows,
    }


# ----------------------------------------------------------------------
# E5 (Fig. 7): emerging matches under different query plans
# ----------------------------------------------------------------------
def experiment_fig7_query_plans(scale: float = 1.0, seed: int = 23) -> Dict[str, object]:
    """Reproduce Fig. 7: track match progress under different SJ-Tree plans."""
    record_count = max(300, int(1200 * scale))
    duration = record_count * 0.05
    stream, generator, injector = _netflow_with_attacks(
        record_count,
        seed=seed,
        smurf_times=[duration * 0.4, duration * 0.75],
        reflector_count=5,
    )
    query = smurf_ddos_query(3)
    window = 10.0
    summary = _summary_from_stream(stream.limit(len(stream) // 4))

    strategies = [
        Strategy.SELECTIVITY,
        Strategy.ANTI_SELECTIVE,
        Strategy.EDGE_BY_EDGE,
        Strategy.BALANCED_PAIRS,
    ]
    rows = []
    trackers: Dict[str, EmergingMatchTracker] = {}
    complete_counts = set()
    for strategy in strategies:
        planner = QueryPlanner(summary, PlannerConfig(strategy=strategy))
        plan = planner.plan(query)
        graph = DynamicGraph(TimeWindow(window))
        matcher = ContinuousQueryMatcher(
            query, plan.decomposition, graph, TimeWindow(window), dedupe_structural=True
        )
        tracker = EmergingMatchTracker(matcher, sample_every=max(1, len(stream) // 200))
        stopwatch = Stopwatch()
        stopwatch.start()
        for record in stream:
            edge = graph.ingest(
                record.source,
                record.target,
                record.label,
                record.timestamp,
                record.attrs,
                source_label=record.source_label,
                target_label=record.target_label,
            )
            matcher.process_edge(edge)
            tracker.observe(edge.timestamp)
        elapsed = stopwatch.stop()
        trackers[strategy] = tracker
        complete_counts.add(matcher.stats.complete_matches)
        rows.append(
            {
                "strategy": strategy,
                "primitives": plan.primitive_count(),
                "complete_matches": matcher.stats.complete_matches,
                "time_to_full_match": tracker.time_to_fraction(1.0) or float("nan"),
                "peak_stored_partials": tracker.peak_stored(),
                "leaf_matches": matcher.stats.leaf_matches_found,
                "joins_attempted": matcher.stats.joins_attempted,
                "runtime_s": elapsed,
            }
        )
    return {
        "experiment": "E5_fig7_query_plans",
        "stream_edges": len(stream),
        "window": window,
        "all_plans_agree_on_matches": len(complete_counts) == 1,
        "fraction_series": {name: tracker.fraction_series() for name, tracker in trackers.items()},
        "stored_series": {name: tracker.stored_series() for name, tracker in trackers.items()},
        "rows": rows,
    }


# ----------------------------------------------------------------------
# E6 (Table 1): streaming throughput and latency
# ----------------------------------------------------------------------
def experiment_tab1_throughput(scale: float = 1.0, seed: int = 31) -> Dict[str, object]:
    """Reproduce the demo-setup throughput claim: sustained rate vs stream size."""
    sizes = [int(size * scale) for size in (1000, 2500, 5000, 10000)]
    sizes = [max(200, size) for size in sizes]
    rows = []
    for size in sizes:
        duration = size * 0.05
        stream, _, _ = _netflow_with_attacks(
            size, seed=seed, smurf_times=[duration * 0.5], reflector_count=4
        )
        engine = StreamWorksEngine(
            config=EngineConfig(dedupe_structural=True, track_triads=False)
        )
        engine.register_query(smurf_ddos_query(3), name="smurf", window=10.0)
        engine.register_query(port_scan_query(3), name="scan", window=5.0)
        stopwatch = Stopwatch()
        stopwatch.start()
        engine.process_stream(stream)
        elapsed = stopwatch.stop()
        latency = engine.latency.summary()
        rows.append(
            {
                "stream_edges": len(stream),
                "elapsed_s": elapsed,
                "edges_per_s": len(stream) / elapsed if elapsed > 0 else float("inf"),
                "latency_p50_ms": latency["p50"] * 1000,
                "latency_p99_ms": latency["p99"] * 1000,
                "events": engine.collector.__len__(),
                "retained_edges": engine.graph.edge_count(),
            }
        )
    rates = [row["edges_per_s"] for row in rows]
    return {
        "experiment": "E6_tab1_throughput",
        "sizes": sizes,
        "rate_stays_flat": max(rates) / max(1e-9, min(rates)) < 5.0,
        "rows": rows,
    }


# ----------------------------------------------------------------------
# E7 (Table 2): incremental vs repeated search
# ----------------------------------------------------------------------
def experiment_tab2_incremental_vs_repeated(
    scale: float = 1.0, seed: int = 37, batch_size: int = 50
) -> Dict[str, object]:
    """Reproduce the core claim: incremental SJ-Tree search vs per-batch re-search.

    The window is deliberately long relative to the batch span: the
    repeated-search baseline must re-enumerate every embedding in the
    retained graph after each batch, while the incremental engine only does
    work in the neighbourhood of the new edges -- that asymmetry is the
    paper's core argument for incremental processing.
    """
    article_count = max(60, int(250 * scale))
    bursts = [
        ("politics", "washington", 80.0),
        ("economy", "london", 200.0),
        ("politics", "tokyo", 330.0),
    ]
    stream, _, _ = _news_workload(article_count, bursts, seed=seed)
    query = common_topic_location_query(2)
    window = 300.0

    # incremental engine
    engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True, track_triads=False))
    engine.register_query(query, name="news", window=window)
    incremental_replay = BatchReplay(lambda batch: len(engine.process_batch(batch)))
    incremental_replay.run(stream, batch_size=batch_size)

    # repeated-search baseline
    baseline = RepeatedSearchEngine(query, window=window, dedupe_structural=True)
    baseline_replay = BatchReplay(lambda batch: len(baseline.process_batch(batch)))
    baseline_replay.run(stream, batch_size=batch_size)

    rows = []
    for incremental, repeated in zip(incremental_replay.results, baseline_replay.results):
        rows.append(
            {
                "batch": incremental.index,
                "edges": incremental.edges,
                "incremental_s": incremental.elapsed_s,
                "repeated_s": repeated.elapsed_s,
                "incremental_matches": incremental.matches,
                "repeated_matches": repeated.matches,
            }
        )
    incremental_total = incremental_replay.total_elapsed()
    repeated_total = baseline_replay.total_elapsed()
    return {
        "experiment": "E7_tab2_incremental_vs_repeated",
        "stream_edges": len(stream),
        "batch_size": batch_size,
        "incremental_total_s": incremental_total,
        "repeated_total_s": repeated_total,
        "speedup": repeated_total / incremental_total if incremental_total > 0 else float("inf"),
        "incremental_matches": incremental_replay.total_matches(),
        "repeated_matches": baseline_replay.total_matches(),
        # Periodic re-search only observes the graph at batch boundaries, so
        # matches whose window closes mid-batch are invisible to it -- the
        # timeliness blind spot the paper's continuous approach avoids.  The
        # incremental engine therefore reports at least as many matches.
        "repeated_missed_matches": incremental_replay.total_matches()
        - baseline_replay.total_matches(),
        "incremental_finds_all_repeated_finds": incremental_replay.total_matches()
        >= baseline_replay.total_matches(),
        "rows": rows,
    }


# ----------------------------------------------------------------------
# E8 (Table 3): selectivity-driven join order ablation
# ----------------------------------------------------------------------
def experiment_tab3_selectivity_ablation(scale: float = 1.0, seed: int = 41) -> Dict[str, object]:
    """Quantify how much the selective-first join order reduces stored partial matches.

    Two news workloads are compared:

    * ``correlated_story`` mixes frequent (shared keyword, shared location)
      and rare (shared cited person) relations, so the primitive that gates
      partial-match creation matters -- exactly the situation section 3.1's
      third intuition targets; the selective-first order should store far
      fewer partial matches and attempt far fewer joins.
    * ``common_topic_location`` (the Fig. 2 query) is fully symmetric -- every
      primitive has the same selectivity -- and acts as a control: join order
      cannot help there, and both orders should do the same amount of work.
    """
    from ..queries.news import correlated_story_query

    article_count = max(60, int(250 * scale))
    bursts = [("politics", "washington", 100.0), ("politics", "berlin", 280.0)]
    news_stream, _, _ = _news_workload(article_count, bursts, seed=seed)
    control_stream, _, _ = _news_workload(
        max(50, int(180 * scale)),
        [("economy", "london", 90.0), ("economy", "tokyo", 220.0)],
        seed=seed + 1,
    )

    workloads = [
        ("news/correlated_story", news_stream, correlated_story_query(), 60.0),
        ("news/common_topic_location(control)", control_stream, common_topic_location_query(3), 60.0),
    ]
    rows = []
    for workload_name, stream, query, window in workloads:
        summary = _summary_from_stream(stream.limit(len(stream) // 3))
        per_strategy = {}
        for strategy in (Strategy.SELECTIVITY, Strategy.ANTI_SELECTIVE):
            planner = QueryPlanner(summary, PlannerConfig(strategy=strategy))
            plan = planner.plan(query)
            graph = DynamicGraph(TimeWindow(window))
            matcher = ContinuousQueryMatcher(
                query, plan.decomposition, graph, TimeWindow(window), dedupe_structural=True
            )
            stopwatch = Stopwatch()
            stopwatch.start()
            for record in stream:
                edge = graph.ingest(
                    record.source,
                    record.target,
                    record.label,
                    record.timestamp,
                    record.attrs,
                    source_label=record.source_label,
                    target_label=record.target_label,
                )
                matcher.process_edge(edge)
            elapsed = stopwatch.stop()
            per_strategy[strategy] = matcher
            rows.append(
                {
                    "workload": workload_name,
                    "strategy": strategy,
                    "complete_matches": matcher.stats.complete_matches,
                    "peak_stored_partials": matcher.stats.peak_stored_matches,
                    "leaf_matches": matcher.stats.leaf_matches_found,
                    "joins_attempted": matcher.stats.joins_attempted,
                    "runtime_s": elapsed,
                }
            )
    selective = [row for row in rows if row["strategy"] == Strategy.SELECTIVITY]
    anti = [row for row in rows if row["strategy"] == Strategy.ANTI_SELECTIVE]
    reductions = [
        (a["peak_stored_partials"] + 1) / (s["peak_stored_partials"] + 1)
        for s, a in zip(selective, anti)
    ]
    return {
        "experiment": "E8_tab3_selectivity_ablation",
        "partial_match_reduction_factors": reductions,
        "selective_never_worse": all(
            s["peak_stored_partials"] <= a["peak_stored_partials"] for s, a in zip(selective, anti)
        ),
        "rows": rows,
    }


# ----------------------------------------------------------------------
# E9 (Table 4): summarization cost and estimate accuracy
# ----------------------------------------------------------------------
def experiment_tab4_summarization(scale: float = 1.0, seed: int = 43) -> Dict[str, object]:
    """Measure statistics collection cost and selectivity-estimate accuracy."""
    edge_count = max(500, int(3000 * scale))
    workloads = [
        ("rmat", RmatGenerator(RmatConfig(seed=seed)).stream(edge_count)),
        ("netflow", NetflowGenerator(NetflowConfig(seed=seed + 1)).stream(edge_count)),
        (
            "news",
            NewsStreamGenerator(NewsStreamConfig(seed=seed + 2)).background_stream(
                max(100, edge_count // 4)
            ),
        ),
    ]
    rows = []
    accuracy_rows = []
    for name, stream in workloads:
        for triads in (True, False):
            graph = DynamicGraph(TimeWindow(None))
            stopwatch = Stopwatch()
            stopwatch.start()
            for record in stream:
                graph.ingest(
                    record.source,
                    record.target,
                    record.label,
                    record.timestamp,
                    record.attrs,
                    source_label=record.source_label,
                    target_label=record.target_label,
                )
            # the statistics are computed when the planner asks: time that too
            summary = StreamSummarizer(graph, track_triads=triads).summary()
            elapsed = stopwatch.stop()
            rows.append(
                {
                    "workload": name,
                    "triads": triads,
                    "edges": len(stream),
                    "seconds": elapsed,
                    "edges_per_s": len(stream) / elapsed if elapsed > 0 else float("inf"),
                    "edge_types": len(summary.edge_labels),
                    "signatures": len(summary.signatures),
                    "triad_patterns": summary.triads.distinct_patterns() if triads else 0,
                }
            )
        # estimate accuracy on the news workload's query primitives
        if name == "news":
            summary = _summary_from_stream(stream)
            estimator = SelectivityEstimator(summary)
            query = common_topic_location_query(3)
            graph = DynamicGraph(TimeWindow(None))
            for record in stream:
                graph.ingest(
                    record.source,
                    record.target,
                    record.label,
                    record.timestamp,
                    record.attrs,
                    source_label=record.source_label,
                    target_label=record.target_label,
                )
            matcher = SubgraphMatcher(graph)
            from ..core.decomposition import enumerate_pair_primitives

            for primitive in enumerate_pair_primitives(query)[:4]:
                estimated = estimator.estimate_primitive(query, primitive)
                actual = matcher.count_matches(primitive)
                accuracy_rows.append(
                    {
                        "primitive": primitive.name,
                        "estimated": estimated,
                        "actual": actual,
                        "ratio": (estimated + 1) / (actual + 1),
                    }
                )
    return {
        "experiment": "E9_tab4_summarization",
        "rows": rows,
        "estimate_accuracy": accuracy_rows,
        "estimates_within_10x": all(0.1 <= row["ratio"] <= 10 for row in accuracy_rows)
        if accuracy_rows
        else True,
    }


# ----------------------------------------------------------------------
# E10 (Table 5): time-window semantics
# ----------------------------------------------------------------------
def experiment_tab5_window_sweep(scale: float = 1.0, seed: int = 47) -> Dict[str, object]:
    """Check the tW semantics: matches vs window size, with fast and slow planted patterns."""
    record_count = max(300, int(1200 * scale))
    duration = record_count * 0.05
    generator = NetflowGenerator(NetflowConfig(seed=seed))
    background = generator.stream(record_count)
    injector = AttackInjector(generator, seed=seed + 1)
    # fast scans (span ~0.02 * 3) and slow scans (span ~8 * 3)
    fast = [injector.port_scan(duration * f, port_count=4, spacing=0.01) for f in (0.2, 0.5)]
    slow = [injector.port_scan(duration * f, port_count=4, spacing=8.0) for f in (0.35, 0.7)]
    stream = merge_streams(background, *fast, *slow, name="window_sweep")
    query = port_scan_query(3)

    windows = [1.0, 10.0, 40.0, 200.0]
    rows = []
    previous_events = -1
    monotone = True
    spans_ok = True
    for window in windows:
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True, track_triads=False))
        engine.register_query(query, name="scan", window=window)
        engine.process_stream(stream)
        events = engine.events("scan")
        if any(event.span >= window for event in events):
            spans_ok = False
        if len(events) < previous_events:
            monotone = False
        previous_events = len(events)
        rows.append(
            {
                "window": window,
                "events": len(events),
                "max_span": max((event.span for event in events), default=0.0),
                "stored_partials": engine.queries["scan"].matcher.stored_partial_matches(),
            }
        )
    return {
        "experiment": "E10_tab5_window_sweep",
        "stream_edges": len(stream),
        "events_monotone_in_window": monotone,
        "all_spans_below_window": spans_ok,
        "rows": rows,
    }


# ----------------------------------------------------------------------
# shared multi-query workload (E13-E15): label-disjoint chain queries
# ----------------------------------------------------------------------
def _label_disjoint_chain_queries(query_count: int, chain_length: int) -> List[QueryGraph]:
    """Build ``query_count`` path queries over mutually disjoint edge labels."""
    queries = []
    for index in range(query_count):
        query = QueryGraph(f"chain{index}")
        for position in range(chain_length + 1):
            query.add_vertex(f"v{position}", "Host")
        for position in range(chain_length):
            query.add_edge(f"v{position}", f"v{position + 1}", f"rel{index}_{position}")
        queries.append(query)
    return queries


def _multiquery_dispatch_stream(
    query_count: int,
    edge_count: int,
    seed: int,
    chain_length: int,
    vertex_pool: int = 40,
    plant_probability: float = 0.08,
    interarrival: float = 0.02,
) -> List[StreamEdge]:
    """Generate a stream whose edges each target exactly one query's labels.

    Most records are single noise edges carrying a random label of a random
    query; occasionally a complete chain instance is planted so every query
    fires now and then.
    """
    rng = random.Random(seed)
    records: List[StreamEdge] = []
    timestamp = 0.0
    while len(records) < edge_count:
        query_index = rng.randrange(query_count)
        if rng.random() < plant_probability:
            vertices = [
                f"q{query_index}v{rng.randrange(vertex_pool)}" for _ in range(chain_length + 1)
            ]
            for position in range(chain_length):
                timestamp += interarrival
                records.append(
                    StreamEdge(
                        vertices[position],
                        vertices[position + 1],
                        f"rel{query_index}_{position}",
                        timestamp,
                        source_label="Host",
                        target_label="Host",
                    )
                )
        else:
            timestamp += interarrival
            records.append(
                StreamEdge(
                    f"q{query_index}v{rng.randrange(vertex_pool)}",
                    f"q{query_index}v{rng.randrange(vertex_pool)}",
                    f"rel{query_index}_{rng.randrange(chain_length)}",
                    timestamp,
                    source_label="Host",
                    target_label="Host",
                )
            )
    return records[:edge_count]


# ----------------------------------------------------------------------
# E13: event-time reordering keeps disordered streams on the fast path
# ----------------------------------------------------------------------
def experiment_out_of_order_throughput(
    scale: float = 1.0,
    seed: int = 67,
    query_count: int = 20,
    chain_length: int = 6,
    batch_size: int = 200,
    max_displacement: int = 64,
    shard_count: int = 2,
) -> Dict[str, object]:
    """Measure event-time ingestion (reorder buffer + watermark) under disorder.

    The shared multi-query stream (``query_count`` label-disjoint
    chains) is shuffled with bounded positional displacement
    (``max_displacement``) -- the shape of a feed assembled from
    slightly-skewed parallel collectors -- and replayed through:

    * ``sorted_oracle`` -- the sorted stream on the batched fast path: the
      reference match set/order and the throughput ceiling;
    * ``fallback_per_record`` -- the shuffled stream per record: every
      record its own one-record run, the finest split of the stream;
    * ``runsplit_batched`` -- the shuffled stream through ``process_batch``
      directly: disordered batches split at inversion points, ordered runs
      keep the fast path;
    * ``reordered`` -- ``EngineConfig(allowed_lateness=...)`` sized from the
      stream's measured displacement: the reorder buffer re-sorts within
      the lateness horizon and releases watermark-closed prefixes onto the
      fast path (nothing is late, nothing drops);
    * ``reordered sharded xN`` -- the same event-time config on the
      query-sharded engine (parent-level buffer, conformance must hold).

    The windows are wide relative to the disorder, so every mode can find
    every match and the comparison is equal-work: ``recall`` (fraction of
    oracle matches found) is 1.0 everywhere, and the ``reordered`` modes
    must be *identical* to the oracle as an event multiset
    (``reordered_exact``).  ``fast_path_retained`` checks the deterministic
    part of the claim: the reordered engine ran every record (the
    ``ingest_paths`` counter) and none arrived late.
    """
    edge_count = max(400, int(4000 * scale))
    window = 10.0
    queries = _label_disjoint_chain_queries(query_count, chain_length)
    records = _multiquery_dispatch_stream(query_count, edge_count, seed, chain_length)
    shuffled = bounded_shuffle(records, max_displacement, seed=seed + 1)
    lateness = max_time_displacement(shuffled)
    sorted_records = sorted(shuffled, key=lambda record: record.timestamp)

    def build_engine(allowed_lateness: Optional[float] = None):
        engine = StreamWorksEngine(
            config=EngineConfig(
                collect_statistics=False,
                record_latency=False,
                allowed_lateness=allowed_lateness,
            )
        )
        for index, query in enumerate(queries):
            engine.register_query(query, name=f"chain{index}", window=window)
        return engine

    def build_sharded(allowed_lateness: Optional[float]):
        engine = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=shard_count,
                engine=EngineConfig(
                    collect_statistics=False,
                    record_latency=False,
                    allowed_lateness=allowed_lateness,
                ),
            )
        )
        for index, query in enumerate(queries):
            engine.register_query(query, name=f"chain{index}", window=window)
        return engine

    def multiset(events) -> Dict[tuple, int]:
        counts: Dict[tuple, int] = {}
        for event in events:
            key = (event.query_name, event.match.portable_identity())
            counts[key] = counts.get(key, 0) + 1
        return counts

    def replay_per_record(engine, stream) -> list:
        collected = []
        for record in stream:
            collected.extend(engine.process_record(record))
        return collected

    def replay_batched(engine, stream) -> list:
        collected = []
        for start in range(0, len(stream), batch_size):
            collected.extend(engine.process_batch(stream[start : start + batch_size]))
        collected.extend(engine.flush())
        return collected

    modes = [
        ("sorted_oracle", lambda: (build_engine(), replay_batched, sorted_records)),
        ("fallback_per_record", lambda: (build_engine(), replay_per_record, shuffled)),
        ("runsplit_batched", lambda: (build_engine(), replay_batched, shuffled)),
        ("reordered", lambda: (build_engine(allowed_lateness=lateness), replay_batched, shuffled)),
        (
            f"reordered sharded x{shard_count}",
            lambda: (build_sharded(allowed_lateness=lateness), replay_batched, shuffled),
        ),
    ]
    rows = []
    multisets: Dict[str, Dict[tuple, int]] = {}
    reorder_stats: Dict[str, object] = {}
    ingest_paths: Dict[str, object] = {}
    for mode_name, make in modes:
        engine, replay, stream = make()
        stopwatch = Stopwatch()
        stopwatch.start()
        events = replay(engine, stream)
        elapsed = stopwatch.stop()
        multisets[mode_name] = multiset(events)
        if mode_name == "reordered":
            metrics = engine.metrics()
            reorder_stats = metrics["reorder"]
            ingest_paths = metrics["ingest_paths"]
        rows.append(
            {
                "mode": mode_name,
                "edges": len(stream),
                "elapsed_s": elapsed,
                "edges_per_s": len(stream) / elapsed if elapsed > 0 else float("inf"),
                "events": sum(multisets[mode_name].values()),
            }
        )

    oracle = multisets["sorted_oracle"]
    oracle_total = sum(oracle.values())
    by_mode = {row["mode"]: row for row in rows}
    for row in rows:
        found = multisets[row["mode"]]
        correct = sum(min(count, oracle.get(key, 0)) for key, count in found.items())
        row["recall"] = correct / oracle_total if oracle_total else 1.0
        baseline_elapsed = by_mode["fallback_per_record"]["elapsed_s"]
        row["speedup_vs_per_record"] = (
            baseline_elapsed / row["elapsed_s"] if row["elapsed_s"] > 0 else float("inf")
        )
    reordered_sharded = f"reordered sharded x{shard_count}"
    return {
        "experiment": "E13_out_of_order_throughput",
        "query_count": query_count,
        "stream_edges": len(records),
        "batch_size": batch_size,
        "max_displacement": max_displacement,
        "allowed_lateness": lateness,
        "reordered_exact": multisets["reordered"] == oracle,
        "reordered_sharded_exact": multisets[reordered_sharded] == oracle,
        "runsplit_recall": by_mode["runsplit_batched"]["recall"],
        "fallback_recall": by_mode["fallback_per_record"]["recall"],
        # the deterministic half of the claim: every shuffled record was
        # run, nothing was late or dropped
        "fast_path_retained": (
            ingest_paths.get("batched_fast_path") == len(shuffled)
            and reorder_stats.get("records_late") == 0
        ),
        "speedup_vs_per_record": by_mode["reordered"]["speedup_vs_per_record"],
        "reorder": reorder_stats,
        "ingest_paths": ingest_paths,
        "rows": rows,
    }


# ----------------------------------------------------------------------
# E14: crash-consistent checkpoint/restore vs replay-from-scratch
# ----------------------------------------------------------------------
def experiment_checkpoint_recovery(
    scale: float = 1.0,
    seed: int = 71,
    query_count: int = 12,
    chain_length: int = 4,
    batch_size: int = 100,
    windows: Sequence[float] = (2.5, 5.0, 10.0, 20.0),
    shard_count: int = 2,
) -> Dict[str, object]:
    """Measure checkpoint/restore against replaying the stream from scratch.

    Two claims are measured on the shared multi-query workload:

    * **Exact resume** (the correctness half, asserted at every scale):
      process half the stream, ``checkpoint()``, ``restore()`` into a fresh
      engine, feed the remainder -- the full event history (matches, order,
      sequence numbers) must be byte-identical to the uninterrupted run.
      Checked for the single engine and the ``shard_count``-shard serial
      sharded engine (the crash-at-every-boundary matrix lives in
      ``tests/test_checkpoint.py``; this is the harness-level smoke).
    * **Recovery cost** (the performance half): for each window in
      ``windows``, restoring from a snapshot is compared with the only
      alternative after a crash -- replaying the processed prefix from
      scratch.  Replay cost grows with everything the engine ever saw
      (fixed here: the same prefix re-run per window), while snapshot size
      and checkpoint/restore time grow only with the *live* state
      (windowed store + in-flight partials), so the sweep shows snapshot
      cost tracking the window while restore stays ahead of replay across
      the board -- most dramatically when the window (live state) is small
      relative to the history.  ``rows`` reports snapshot bytes,
      checkpoint/restore/replay seconds and the restore-vs-replay speedup
      per window.
    """
    import tempfile

    edge_count = max(400, int(4000 * scale))
    queries = _label_disjoint_chain_queries(query_count, chain_length)
    records = _multiquery_dispatch_stream(query_count, edge_count, seed, chain_length)
    half = (len(records) // (2 * batch_size)) * batch_size or min(batch_size, len(records))

    def build_single(window: float) -> StreamWorksEngine:
        engine = StreamWorksEngine(
            config=EngineConfig(collect_statistics=False, record_latency=False)
        )
        for index, query in enumerate(queries):
            engine.register_query(query, name=f"chain{index}", window=window)
        return engine

    def build_sharded(window: float) -> ShardedStreamEngine:
        engine = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=shard_count,
                engine=EngineConfig(collect_statistics=False, record_latency=False),
            )
        )
        for index, query in enumerate(queries):
            engine.register_query(query, name=f"chain{index}", window=window)
        return engine

    def replay(engine, slice_records) -> None:
        for start in range(0, len(slice_records), batch_size):
            engine.process_batch(slice_records[start : start + batch_size])

    def canonical(events) -> List[tuple]:
        return [
            (event.query_name, event.match.portable_identity(), event.detected_at, event.sequence)
            for event in events
        ]

    recovery_window = windows[len(windows) // 2]
    identical: Dict[str, bool] = {}
    with tempfile.TemporaryDirectory(prefix="streamworks-e14-") as tmp:
        # --- exact-resume smoke: single and sharded ---------------------
        for mode, build, engine_cls in (
            ("single", build_single, StreamWorksEngine),
            (f"sharded x{shard_count}", build_sharded, ShardedStreamEngine),
        ):
            oracle = build(recovery_window)
            replay(oracle, records)
            reference = canonical(oracle.events())
            crashed = build(recovery_window)
            replay(crashed, records[:half])
            path = os.path.join(tmp, "recovery.snap")
            crashed.checkpoint(path)
            del crashed  # the crash: only the snapshot survives
            resumed = engine_cls.restore(path)
            replay(resumed, records[half:])
            identical[mode] = canonical(resumed.events()) == reference

        # --- recovery cost vs window size -------------------------------
        rows = []
        for window in windows:
            engine = build_single(window)
            replay(engine, records[:half])
            path = os.path.join(tmp, f"w{window}.snap")
            stopwatch = Stopwatch()
            stopwatch.start()
            engine.checkpoint(path)
            checkpoint_s = stopwatch.stop()
            snapshot_bytes = os.path.getsize(path)
            stored_partials = sum(
                registration.matcher.stored_partial_matches()
                for registration in engine.queries.values()
            )
            stopwatch.start()
            restored = StreamWorksEngine.restore(path)
            restore_s = stopwatch.stop()
            # the crash alternative: rebuild the same state by replaying the
            # prefix from scratch into a fresh engine
            fresh = build_single(window)
            stopwatch.start()
            replay(fresh, records[:half])
            replay_s = stopwatch.stop()
            rows.append(
                {
                    "window": window,
                    "prefix_records": half,
                    "graph_edges": restored.graph.edge_count(),
                    "stored_partials": stored_partials,
                    "snapshot_kib": snapshot_bytes / 1024.0,
                    "checkpoint_s": checkpoint_s,
                    "restore_s": restore_s,
                    "replay_s": replay_s,
                    "restore_speedup": replay_s / restore_s if restore_s > 0 else float("inf"),
                }
            )

    return {
        "experiment": "E14_checkpoint_recovery",
        "query_count": query_count,
        "stream_edges": len(records),
        "batch_size": batch_size,
        "checkpoint_at": half,
        "recovery_window": recovery_window,
        "identical_single": identical["single"],
        "identical_sharded": identical[f"sharded x{shard_count}"],
        "max_restore_speedup": max(row["restore_speedup"] for row in rows),
        "rows": rows,
    }


# ----------------------------------------------------------------------
# E15: multi-source event time -- per-source watermarks vs one global one
# ----------------------------------------------------------------------
def experiment_multisource_ingest(
    scale: float = 1.0,
    seed: int = 79,
    query_count: int = 12,
    chain_length: int = 4,
    batch_size: int = 100,
    source_count: int = 4,
    shard_count: int = 2,
) -> Dict[str, object]:
    """Measure per-source watermarks against a single global watermark.

    The shared multi-query stream is split round-robin across
    ``source_count`` collectors, and each collector's records arrive with a
    *time-varying* delivery lag (small at the edges of the stream, spiking
    in the middle third) -- the shape of real per-collector feeds whose
    clocks skew independently.  Per-collector streams stay internally
    ordered; all disorder in the merged arrival sequence is inter-source
    skew.

    **Buffer-level comparison** (deterministic, asserted at every scale)
    replays the identical arrival sequence through three release policies:

    * ``global_small`` -- one global watermark with the lateness each
      *source* actually needs (zero: every collector is internally
      ordered).  The fast collector drags the watermark past the slow
      ones: their records are declared late and lost (``recall < 1``).
    * ``global_exact`` -- one global watermark with the lateness the
      *merged* stream needs (its measured maximum displacement, i.e. the
      worst-case skew).  Nothing is lost, but the horizon trails by the
      worst case **always**, so every record is released late (high mean
      staleness) and the buffer holds the worst case permanently.
    * ``per_source`` -- one watermark per collector, released on the
      minimum across active sources, lateness zero.  Nothing is lost
      *and* the horizon tracks the collectors' actual current lag, so
      release staleness and buffered depth undercut ``global_exact``
      whenever the skew is below its worst case.

    **Idle-source comparison**: the slowest collector goes silent two
    thirds in.  Without a timeout the min-watermark freezes (the held
    tail grows with everything after the silence); with
    ``idle_source_timeout`` the silent source is excluded and the tail
    stays bounded -- both remain exact.

    **Engine-level conformance** (asserted at every scale): the
    multi-source engine (single and ``shard_count``-sharded) must emit
    exactly the sorted-merge oracle's match multiset with zero late
    records; wall clock is reported for context.
    """
    edge_count = max(400, int(4000 * scale))
    window = 10.0
    queries = _label_disjoint_chain_queries(query_count, chain_length)
    records = _multiquery_dispatch_stream(query_count, edge_count, seed, chain_length)
    span = records[-1].timestamp - records[0].timestamp
    max_lag = span * 0.08
    source_names = [f"collector{index}" for index in range(source_count)]
    spike_start, spike_end = (
        records[0].timestamp + span / 3.0,
        records[0].timestamp + 2.0 * span / 3.0,
    )

    def lag(source: str, timestamp: float) -> float:
        base = max_lag * source_names.index(source) / max(1, source_count - 1)
        if spike_start <= timestamp <= spike_end:
            return base
        return base * 0.125

    tagged = tag_sources(records, lambda index, record: source_names[index % source_count])
    arrival = skewed_interleave(split_by_source(tagged), lag)
    global_lateness = max_time_displacement(arrival)

    # --- buffer-level release comparison --------------------------------
    def replay_buffer(buffer) -> Dict[str, float]:
        stream_clock = float("-inf")
        staleness_total = 0.0
        released = 0
        peak_depth = 0
        for start in range(0, len(arrival), batch_size):
            chunk = arrival[start : start + batch_size]
            buffer.offer_all(chunk)
            for record in chunk:
                if record.timestamp > stream_clock:
                    stream_clock = record.timestamp
            if len(buffer) > peak_depth:
                peak_depth = len(buffer)
            for record in buffer.drain_ready():
                staleness_total += stream_clock - record.timestamp
                released += 1
        tail = buffer.flush()
        for record in tail:
            staleness_total += stream_clock - record.timestamp
            released += 1
        stats = buffer.stats()
        return {
            "released": released,
            "late_dropped": stats["records_late_dropped"],
            "recall": released / len(arrival),
            "mean_staleness": staleness_total / released if released else 0.0,
            "peak_buffered": peak_depth,
            "tail_before_flush": len(tail),
        }

    def per_source_buffer(idle_timeout=None) -> MultiSourceReorderBuffer:
        buffer = MultiSourceReorderBuffer(0.0, idle_timeout=idle_timeout)
        for name in source_names:
            buffer.register_source(name)
        return buffer

    buffer_modes = [
        ("global_small", ReorderBuffer(0.0)),
        ("global_exact", ReorderBuffer(global_lateness)),
        ("per_source", per_source_buffer()),
    ]
    buffer_rows = []
    for mode_name, buffer in buffer_modes:
        row = {"mode": mode_name}
        row.update(replay_buffer(buffer))
        buffer_rows.append(row)
    by_buffer = {row["mode"]: row for row in buffer_rows}

    # --- idle-source comparison: slowest collector goes silent ----------
    cutoff = records[0].timestamp + 2.0 * span / 3.0
    silent_arrival = [
        record
        for record in arrival
        if record.source_id != source_names[-1] or record.timestamp <= cutoff
    ]
    idle_rows = []
    for mode_name, timeout in (("idle_frozen", None), ("idle_timeout", max_lag * 2 or 1.0)):
        buffer = per_source_buffer(idle_timeout=timeout)
        for start in range(0, len(silent_arrival), batch_size):
            chunk = silent_arrival[start : start + batch_size]
            buffer.offer_all(chunk)
            buffer.drain_ready()
        tail = buffer.flush()
        idle_rows.append(
            {
                "mode": mode_name,
                "tail_before_flush": len(tail),
                "late": buffer.records_late,
                "released": buffer.records_released,
            }
        )
    by_idle = {row["mode"]: row for row in idle_rows}

    # --- engine-level conformance + wall clock --------------------------
    def build_single(allowed_lateness: Optional[float]) -> StreamWorksEngine:
        engine = StreamWorksEngine(
            config=EngineConfig(
                collect_statistics=False,
                record_latency=False,
                allowed_lateness=allowed_lateness,
            )
        )
        for index, query in enumerate(queries):
            engine.register_query(query, name=f"chain{index}", window=window)
        return engine

    def build_sharded() -> ShardedStreamEngine:
        engine = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=shard_count,
                engine=EngineConfig(
                    collect_statistics=False, record_latency=False, allowed_lateness=0.0
                ),
            )
        )
        for index, query in enumerate(queries):
            engine.register_query(query, name=f"chain{index}", window=window)
        return engine

    def register_sources(engine) -> None:
        for name in source_names:
            engine.register_source(name)

    def multiset(events) -> Dict[tuple, int]:
        counts: Dict[tuple, int] = {}
        for event in events:
            key = (event.query_name, event.match.portable_identity())
            counts[key] = counts.get(key, 0) + 1
        return counts

    def replay_batched(engine, stream) -> list:
        collected = []
        for start in range(0, len(stream), batch_size):
            collected.extend(engine.process_batch(stream[start : start + batch_size]))
        collected.extend(engine.flush())
        return collected

    def build_registered(factory):
        engine = factory()
        register_sources(engine)
        return engine

    sorted_arrival = sorted(arrival, key=lambda record: record.timestamp)
    modes = [
        ("sorted_oracle", lambda: (build_single(None), replay_batched, sorted_arrival)),
        (
            "multisource",
            lambda: (build_registered(lambda: build_single(0.0)), replay_batched, arrival),
        ),
        (
            f"multisource sharded x{shard_count}",
            lambda: (build_registered(build_sharded), replay_batched, arrival),
        ),
    ]
    engine_rows = []
    multisets: Dict[str, Dict[tuple, int]] = {}
    reorder_stats: Dict[str, object] = {}
    for mode_name, make in modes:
        engine, replay, stream = make()
        stopwatch = Stopwatch()
        stopwatch.start()
        events = replay(engine, stream)
        elapsed = stopwatch.stop()
        multisets[mode_name] = multiset(events)
        if mode_name == "multisource":
            reorder_stats = engine.metrics()["reorder"]
        engine_rows.append(
            {
                "mode": mode_name,
                "edges": len(stream),
                "elapsed_s": elapsed,
                "edges_per_s": len(stream) / elapsed if elapsed > 0 else float("inf"),
                "events": sum(multisets[mode_name].values()),
            }
        )

    oracle = multisets["sorted_oracle"]
    per_source_row = by_buffer["per_source"]
    global_exact_row = by_buffer["global_exact"]
    return {
        "experiment": "E15_multisource_ingest",
        "stream_edges": len(arrival),
        "source_count": source_count,
        "batch_size": batch_size,
        "max_lag": max_lag,
        "global_lateness_needed": global_lateness,
        # the tentpole, in numbers: same per-source lateness, three outcomes
        "global_small_recall": by_buffer["global_small"]["recall"],
        "per_source_recall": per_source_row["recall"],
        "per_source_late": per_source_row["late_dropped"],
        "staleness_global_exact": global_exact_row["mean_staleness"],
        "staleness_per_source": per_source_row["mean_staleness"],
        "staleness_improvement": (
            global_exact_row["mean_staleness"] / per_source_row["mean_staleness"]
            if per_source_row["mean_staleness"] > 0
            else float("inf")
        ),
        "peak_depth_global_exact": global_exact_row["peak_buffered"],
        "peak_depth_per_source": per_source_row["peak_buffered"],
        "idle_frozen_tail": by_idle["idle_frozen"]["tail_before_flush"],
        "idle_timeout_tail": by_idle["idle_timeout"]["tail_before_flush"],
        # engine-level conformance flags
        "multisource_exact": multisets["multisource"] == oracle,
        "multisource_sharded_exact": multisets[f"multisource sharded x{shard_count}"] == oracle,
        "multisource_zero_late": reorder_stats.get("records_late") == 0,
        "reorder": reorder_stats,
        "buffer_rows": buffer_rows,
        "idle_rows": idle_rows,
        "rows": engine_rows,
    }


#: Experiment id -> callable, used by the CLI runner and the benchmarks.
ALL_EXPERIMENTS = {
    "E1": experiment_fig2_news_decomposition,
    "E2": experiment_fig3_cyber_queries,
    "E3": experiment_fig5_news_map,
    "E4": experiment_fig6_ddos_cascade,
    "E5": experiment_fig7_query_plans,
    "E6": experiment_tab1_throughput,
    "E7": experiment_tab2_incremental_vs_repeated,
    "E8": experiment_tab3_selectivity_ablation,
    "E9": experiment_tab4_summarization,
    "E10": experiment_tab5_window_sweep,
    "E13": experiment_out_of_order_throughput,
    "E14": experiment_checkpoint_recovery,
    "E15": experiment_multisource_ingest,
}
