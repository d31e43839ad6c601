"""Experiment harness: one function per reproduced figure/table.

Every function is deterministic (seeded generators), takes a ``scale``
parameter so tests can run a small version and the benchmarks the full
version, and returns a plain dictionary with

* ``rows`` -- the table/series the paper artefact corresponds to, ready for
  :func:`repro.harness.reporting.format_table`;
* scalar summary fields (totals, speedups, shape-check booleans).

The experiment ids (E1..E10) map to paper artefacts as listed in the
experiments table of ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..baselines.repeated_search import RepeatedSearchEngine
from ..core.decomposition import Strategy
from ..core.engine import EngineConfig, StreamWorksEngine
from ..core.matcher import ContinuousQueryMatcher
from ..core.planner import PlannerConfig, QueryPlanner
from ..graph.dynamic_graph import DynamicGraph
from ..graph.window import TimeWindow
from ..isomorphism.vf2 import SubgraphMatcher
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
from ..streaming.edge_stream import EdgeStream, merge_streams
from ..streaming.metrics import Stopwatch
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
            # the table ablates the join order alone: a lazy leaf reaches only
            # a join of two leaves, where the anti-selective order puts the
            # busy primitive, so every leaf stays eager (no epoch closes)
            matcher.epoch_end = float("inf")
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
}
