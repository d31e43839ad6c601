"""Statistics on demand: the planner's summary is computed from the window store.

``StreamSummarizer.summary()`` reads the store's live edges and vertex
records whenever a plan is made.  Three properties pin it:

* on unbounded windows it equals what the retired per-record fold
  (:class:`FoldingReferenceSummarizer`, kept here as the reference) held --
  labels, signatures, degrees, every census count -- and so do the plans
  built from either;
* on bounded windows it equals ``GraphSummary.from_graph`` of the store
  (quadratic wedge census) at every batch boundary, and the retired fold,
  which never retracted its counts, fails that property;
* the summarizer keeps no per-vertex state however many vertices pass
  through a bounded window.
"""

import random

import pytest
from differential import summary_facts
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, Strategy, StreamWorksEngine
from repro.core.planner import PlannerConfig, QueryPlanner
from repro.graph import DynamicGraph, TimeWindow
from repro.query import QueryBuilder
from repro.query.query_graph import QueryGraph
from repro.stats import (
    DegreeDistribution,
    GraphSummary,
    LabelDistribution,
    SignatureDistribution,
    TriadCensus,
)
from repro.streaming import StreamEdge

SUPPRESS = [HealthCheck.too_slow, HealthCheck.data_too_large]


class FoldingReferenceSummarizer:
    """The retired statistics upkeep: every stored edge folded in as it arrives.

    Labels go through a first-sight vertex memo, degrees through a
    per-vertex counter, and the census adds, per new edge and endpoint, the
    wedges it forms with the legs already there, then bumps its own leg.
    Nothing is ever retracted (the retired fold dropped legs on eviction but
    kept every count), so its counts are cumulative.
    """

    def __init__(self):
        self.vertex_labels = LabelDistribution()
        self.edge_labels = LabelDistribution()
        self.signatures = SignatureDistribution()
        self.degrees = {}
        self.known = {}
        self.legs = {}
        self.counts = {}
        self.wedges = 0
        self.edge_count = 0

    def observe(self, graph, edges):
        for edge in edges:
            labels = []
            for vertex in (edge.source, edge.target):
                if vertex not in self.known:
                    self.known[vertex] = graph.vertex(vertex).label
                    self.vertex_labels.observe(self.known[vertex])
                labels.append(self.known[vertex])
                self.degrees[vertex] = self.degrees.get(vertex, 0) + 1
            source_label, target_label = labels
            self.edge_labels.observe(edge.label)
            self.signatures.observe(source_label, edge.label, target_label)
            self._add_leg(edge.source, source_label, (edge.label, "out", target_label))
            if edge.target != edge.source:
                self._add_leg(edge.target, target_label, (edge.label, "in", source_label))
            self.edge_count += 1

    def _add_leg(self, center, center_label, leg):
        legs = self.legs.setdefault(center, {})
        for other, live in legs.items():
            key = (center_label, (leg, other) if leg <= other else (other, leg))
            self.counts[key] = self.counts.get(key, 0) + live
            self.wedges += live
        legs[leg] = legs.get(leg, 0) + 1

    def summary(self):
        census = TriadCensus()
        census._counts = dict(self.counts)
        census._wedges = self.wedges
        return GraphSummary(
            vertex_labels=self.vertex_labels,
            edge_labels=self.edge_labels,
            signatures=self.signatures,
            degrees=DegreeDistribution(self.degrees.values()),
            triads=census,
            vertex_count=len(self.known),
            edge_count=self.edge_count,
        )


class StoreFeed:
    """``feed(engine)``: fold the edges the engine stored since the last call
    into the reference, and return the reference's summary."""

    def __init__(self, reference):
        self.reference = reference
        self.seen = -1

    def __call__(self, engine):
        fresh = [edge for edge in engine.graph.edges() if edge.id > self.seen]
        if fresh:
            self.seen = fresh[-1].id
        self.reference.observe(engine.graph, fresh)
        return self.reference.summary()


# ----------------------------------------------------------------------
# streams and queries
# ----------------------------------------------------------------------
VERTICES = 8
EDGE_LABELS = ("r0", "r1", "r2")


def vertex_label(vertex):
    # one label per vertex id for the whole stream (the stream contract)
    return f"T{vertex % 3}"


record_row = st.tuples(
    st.integers(min_value=0, max_value=VERTICES - 1),
    st.integers(min_value=0, max_value=VERTICES - 1),
    st.sampled_from(EDGE_LABELS),
    st.integers(min_value=0, max_value=3),  # timestamp step
)


def to_records(rows):
    records, clock = [], 0.0
    for source, target, label, step in rows:
        clock += step * 0.5
        records.append(
            StreamEdge(f"v{source}", f"v{target}", label, clock,
                       source_label=vertex_label(source), target_label=vertex_label(target))
        )
    return records


def splits_of(records, seed):
    rng = random.Random(seed)
    splits, start = [], 0
    while start < len(records):
        end = min(len(records), start + rng.randint(1, 6))
        splits.append((start, end))
        start = end
    return splits


def registered_queries(wildcard):
    chain = (
        QueryBuilder("chain").vertex("a", "T0").vertex("b").vertex("c")
        .edge("a", "b", "r0").edge("b", "c", "r1").build()
    )
    queries = [chain]
    if wildcard:
        # binds every record: nothing stays cold
        wild = QueryGraph("wild")
        wild.add_vertex("x")
        wild.add_vertex("y")
        wild.add_edge("x", "y")
        queries.append(wild)
    return queries


def planning_queries():
    """Queries whose plans read signatures, typed and wildcard wedges, labels."""
    star = (
        QueryBuilder("star").vertex("h", "T0").vertex("a", "T1").vertex("b").vertex("c", "T2")
        .edge("h", "a", "r0").edge("h", "b", "r1").edge("c", "h", "r2").build()
    )
    path = (
        QueryBuilder("path").vertex("a").vertex("b").vertex("c").vertex("d")
        .edge("a", "b", "r0").edge("b", "c", "r1").edge("c", "d", "r2").edge("d", "a", "r0")
        .build()
    )
    return [star, path]


def run(records, splits, window=None, wildcard=True, summarize=None):
    """Feed ``records`` by ``splits``; call ``summarize(engine)`` at every boundary."""
    engine = StreamWorksEngine(config=EngineConfig(default_window=window))
    for query in registered_queries(wildcard):
        engine.register_query(query)
    for start, end in splits:
        if end - start == 1:
            engine.process_record(records[start])
        else:
            engine.process_batch(records[start:end])
        if summarize is not None:
            summarize(engine)
    return engine


def plans(summary):
    return [
        (plan.decomposition, plan.estimates)
        for conditional in (False, True)
        for strategy in (Strategy.SELECTIVITY, Strategy.ANTI_SELECTIVE)
        for plan in (
            QueryPlanner(
                summary, PlannerConfig(strategy=strategy, conditional_ordering=conditional)
            ).plan(query)
            for query in planning_queries()
        )
    ]


def assert_same_plans(summary, reference):
    for (ours, our_estimates), (theirs, their_estimates) in zip(plans(summary), plans(reference)):
        assert ours.same_tree(theirs)
        assert our_estimates == their_estimates


def assert_describes_the_window(summarize):
    """A ``summarize(engine)`` callback: the summary equals a recount of the store."""

    def check(engine):
        expected = summary_facts(GraphSummary.from_graph(engine.graph))
        assert summary_facts(summarize(engine)) == expected

    return check


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------
class TestUnboundedWindowsEqualTheRetiredFold:
    @given(
        rows=st.lists(record_row, min_size=1, max_size=50),
        split_seed=st.integers(min_value=0, max_value=10_000),
        wildcard=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
    def test_summary_and_plans_equal_the_retired_fold(self, rows, split_seed, wildcard):
        records = to_records(rows)
        feed = StoreFeed(FoldingReferenceSummarizer())

        def compare(engine):
            reference = feed(engine)
            summary = engine.statistics_summary()
            assert summary_facts(summary) == summary_facts(reference)
            assert_same_plans(summary, reference)

        engine = run(records, splits_of(records, split_seed), wildcard=wildcard, summarize=compare)
        assert engine.summarizer.edges_observed == engine.graph.edge_count()


class TestBoundedWindowsDescribeTheStore:
    @given(
        rows=st.lists(record_row, min_size=1, max_size=50),
        split_seed=st.integers(min_value=0, max_value=10_000),
        window=st.sampled_from([0.75, 1.5, 3.0]),
        wildcard=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
    def test_summary_equals_a_recount_at_every_batch_boundary(
        self, rows, split_seed, window, wildcard
    ):
        records = to_records(rows)
        check = assert_describes_the_window(lambda engine: engine.statistics_summary())
        run(records, splits_of(records, split_seed), window=window, wildcard=wildcard,
            summarize=check)

    def test_the_property_fails_against_a_fold_that_never_retracts(self):
        # a hub whose spokes age out of a 3-tick window
        records = [
            StreamEdge("v0", f"v{index % 7 + 1}", EDGE_LABELS[index % 3], float(index),
                       source_label="T0", target_label=vertex_label(index % 7 + 1))
            for index in range(12)
        ]
        splits = splits_of(records, 5)
        # the pin holds for the engine ...
        run(records, splits, window=3.0,
            summarize=assert_describes_the_window(lambda engine: engine.statistics_summary()))
        # ... and has teeth: the cumulative fold is caught once edges expire
        with pytest.raises(AssertionError):
            run(records, splits, window=3.0,
                summarize=assert_describes_the_window(StoreFeed(FoldingReferenceSummarizer())))


class TestBoundedMemory:
    def test_the_summarizer_holds_no_per_vertex_state(self):
        # every record brings two vertices never seen before; a 5-tick
        # window keeps a handful of them
        records = [
            StreamEdge(f"s{index}", f"t{index}", EDGE_LABELS[index % 3], float(index),
                       source_label="T0", target_label="T1")
            for index in range(20_000)
        ]
        splits = [(start, min(start + 64, len(records))) for start in range(0, len(records), 64)]
        engine = run(records, splits, window=5.0)
        summarizer = engine.summarizer
        assert engine.graph.vertex_count() < 50
        assert {name: type(value) for name, value in vars(summarizer).items()} == {
            "graph": type(engine.graph), "track_triads": bool, "_edge_count": int,
        }
        assert summarizer.edges_observed == len(records)
        assert engine.statistics_summary().vertex_count == engine.graph.vertex_count()
        # the retired fold, fed the same edges, remembers every vertex that
        # ever passed
        graph = DynamicGraph(TimeWindow(5.0))
        folded = FoldingReferenceSummarizer()
        for record in records:
            edge = graph.ingest(record.source, record.target, record.label, record.timestamp,
                                source_label=record.source_label, target_label=record.target_label)
            folded.observe(graph, [edge])
        assert graph.vertex_count() == engine.graph.vertex_count()
        assert len(folded.known) == len(folded.degrees) == 2 * len(records)
