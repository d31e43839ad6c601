#!/usr/bin/env python
"""Query planning deep-dive: statistics, selectivity and SJ-Tree shapes (Fig. 7).

The quality of a StreamWorks plan depends on the summary statistics gathered
from the stream (degree distribution, vertex/edge type distribution, triad
census) and on the decomposition strategy.  This example:

1. collects statistics from a prefix of a cyber-traffic stream,
2. shows the planner's selectivity estimates for the candidate primitives of
   the Smurf DDoS query,
3. builds the SJ-Tree under four different strategies (the paper's
   selectivity-driven plan, the anti-selective worst case, edge-by-edge and
   a balanced/bushy tree),
4. replays the same stream through each plan and compares how many partial
   matches each one had to store and how quickly it converged -- the
   reproduction of the Fig. 7 comparison.

Run with::

    python examples/query_planning.py
"""

from repro.core import ContinuousQueryMatcher, PlannerConfig, QueryPlanner, Strategy
from repro.graph import DynamicGraph, TimeWindow
from repro.queries.cyber import smurf_ddos_query
from repro.stats import SelectivityEstimator, StreamSummarizer
from repro.streaming import merge_streams
from repro.viz import EmergingMatchTracker, render_sjtree
from repro.workloads import AttackInjector, NetflowConfig, NetflowGenerator


def build_stream():
    generator = NetflowGenerator(NetflowConfig(host_count=160, subnet_count=6, seed=21))
    background = generator.stream(2500)
    duration = generator.duration_for(2500)
    injector = AttackInjector(generator, seed=22)
    attack1 = injector.smurf_ddos(duration * 0.4, reflector_count=5)
    attack2 = injector.smurf_ddos(duration * 0.8, reflector_count=5)
    return merge_streams(background, attack1, attack2, name="planning_workload")


def collect_statistics(stream, prefix_edges):
    graph = DynamicGraph(TimeWindow(None))
    for record in list(stream)[:prefix_edges]:
        graph.ingest(record.source, record.target, record.label, record.timestamp,
                     record.attrs, source_label=record.source_label,
                     target_label=record.target_label)
    return StreamSummarizer(graph, track_triads=True).summary()


def main():
    stream = build_stream()
    query = smurf_ddos_query(3)
    window = 10.0

    summary = collect_statistics(stream, prefix_edges=len(stream) // 4)
    print("Stream statistics used for planning:")
    print(summary.describe())
    print()

    estimator = SelectivityEstimator(summary)
    print("Per-edge selectivity estimates (expected matching data edges):")
    for query_edge in query.edges():
        estimate = estimator.estimate_edge(query, query_edge)
        print(f"  {query_edge.describe():<45} ~{estimate:8.1f}")
    print()

    planner = QueryPlanner(summary, PlannerConfig(strategy=Strategy.SELECTIVITY))
    results = []
    for strategy in (Strategy.SELECTIVITY, Strategy.ANTI_SELECTIVE,
                     Strategy.EDGE_BY_EDGE, Strategy.BALANCED_PAIRS):
        plan = planner.plan(query, strategy=strategy)
        graph = DynamicGraph(TimeWindow(window))
        matcher = ContinuousQueryMatcher(query, plan.decomposition, graph,
                                         TimeWindow(window), dedupe_structural=True)
        tracker = EmergingMatchTracker(matcher, sample_every=50)
        for record in stream:
            edge = graph.ingest(record.source, record.target, record.label, record.timestamp,
                                record.attrs, source_label=record.source_label,
                                target_label=record.target_label)
            matcher.process_edge(edge)
            tracker.observe(edge.timestamp)
        results.append((strategy, plan, matcher, tracker))
        print(f"--- strategy: {strategy} ---")
        print(render_sjtree(matcher.tree))
        print(f"complete matches:      {matcher.stats.complete_matches}")
        print(f"peak stored partials:  {matcher.stats.peak_stored_matches}")
        print(f"joins attempted:       {matcher.stats.joins_attempted}")
        first_full = tracker.time_to_fraction(1.0)
        print(f"first full match at:   {first_full if first_full is not None else 'never'}")
        print()

    counts = {matcher.stats.complete_matches for _, _, matcher, _ in results}
    print("All strategies agree on the set of complete matches:", len(counts) == 1)
    best = min(results, key=lambda item: item[2].stats.peak_stored_matches)
    print(f"Fewest stored partial matches: {best[0]} "
          f"({best[2].stats.peak_stored_matches} partials)")


if __name__ == "__main__":
    main()
