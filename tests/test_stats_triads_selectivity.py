"""Tests for the triad census, the stream summarizer and selectivity estimation."""

import pytest
from differential import recount_live_legs

from repro.core import EngineConfig, StreamWorksEngine
from repro.graph import DynamicGraph, PropertyGraph, TimeWindow
from repro.query import QueryBuilder
from repro.stats import (
    GraphSummary,
    SelectivityEstimator,
    StreamSummarizer,
    TriadCensus,
    wedge_key_for_query,
)
from repro.streaming import StreamEdge


def build_wedge_graph():
    """A keyword mentioned by two articles plus an unrelated edge."""
    graph = PropertyGraph()
    graph.add_vertex("a1", "Article")
    graph.add_vertex("a2", "Article")
    graph.add_vertex("k", "Keyword")
    graph.add_vertex("loc", "Location")
    graph.add_edge("a1", "k", "mentions", 1.0)
    graph.add_edge("a2", "k", "mentions", 2.0)
    graph.add_edge("a1", "loc", "locatedIn", 3.0)
    return graph


def build_self_loop_graph():
    """The wedge graph plus two self-loops and a parallel edge at ``a1``."""
    graph = build_wedge_graph()
    graph.add_edge("a1", "a1", "cites", 4.0)
    graph.add_edge("k", "a1", "tags", 5.0)
    graph.add_edge("a1", "a1", "cites", 6.0)
    graph.add_edge("a1", "k", "mentions", 7.0)
    return graph


def build_hub_graph(spokes=60):
    graph = PropertyGraph()
    graph.add_vertex("hub", "H")
    for index in range(spokes):
        graph.add_vertex(f"leaf{index}", "H")
        graph.add_edge("hub", f"leaf{index}", "link", float(index))
    return graph


@pytest.fixture
def wedge_graph():
    return build_wedge_graph()


def stream_into_census(graph, census):
    """Feed ``graph``'s edges to ``census`` one at a time, in timestamp order."""
    for edge in sorted(graph.edges(), key=lambda e: e.timestamp):
        census.observe_edge(
            edge.source,
            edge.target,
            edge.label,
            graph.vertex(edge.source).label,
            graph.vertex(edge.target).label,
        )


class TestTriadCensus:
    def test_observe_graph_counts_wedges(self, wedge_graph):
        census = TriadCensus()
        census.observe_graph(wedge_graph)
        # wedges: (a1-k, a2-k) centred at k, (a1-k, a1-loc) centred at a1
        assert census.total_wedges() == 2
        key = wedge_key_for_query("Keyword", ("mentions", "in", "Article"), ("mentions", "in", "Article"))
        assert census.count(key) == 1

    def test_self_loop_is_one_leg_at_its_one_endpoint(self):
        graph = PropertyGraph()
        graph.add_vertex("v", "V")
        graph.add_vertex("w", "W")
        graph.add_edge("v", "v", "loop", 1.0)
        graph.add_edge("v", "w", "link", 2.0)
        census = TriadCensus()
        census.observe_graph(graph)
        # one wedge, centred at v: the loop never pairs with itself
        assert census.total_wedges() == 1
        assert census.count(wedge_key_for_query("V", ("loop", "out", "V"), ("link", "out", "W"))) == 1

    @pytest.mark.parametrize(
        "build", [build_wedge_graph, build_self_loop_graph, build_hub_graph],
        ids=["wedge", "self-loops", "hub"],
    )
    def test_streamed_census_equals_brute_force_exactly(self, build):
        graph = build()
        brute_force = TriadCensus()
        brute_force.observe_graph(graph)
        streamed = TriadCensus()
        stream_into_census(graph, streamed)
        assert streamed.total_wedges() == brute_force.total_wedges()
        assert dict(streamed.most_common()) == dict(brute_force.most_common())
        # no eviction: every edge's legs are still live
        assert streamed.live_legs() == recount_live_legs(graph)

    @pytest.mark.parametrize(
        "build", [build_wedge_graph, build_self_loop_graph], ids=["wedge", "self-loops"]
    )
    def test_retract_to_zero_leaves_no_legs_and_keeps_the_wedge_counts(self, build):
        graph = build()
        census = TriadCensus()
        stream_into_census(graph, census)
        counted = census.state_dict()["counts"]
        for edge in graph.edges():
            census.retract_edge(
                edge.source, edge.target, edge.label,
                graph.vertex(edge.source).label, graph.vertex(edge.target).label,
            )
        assert census.live_legs() == {}
        assert census.state_dict()["counts"] == counted
        # nothing is live, so the next edge forms no wedge
        before = census.total_wedges()
        census.observe_edge("a1", "k", "mentions", "Article", "Keyword")
        assert census.total_wedges() == before

    def test_wildcard_count(self, wedge_graph):
        census = TriadCensus()
        census.observe_graph(wedge_graph)
        wildcard = wedge_key_for_query(None, ("mentions", "in", None), ("mentions", "in", None))
        assert census.count_wildcard(wildcard) == 1

    def test_query_key_equals_stream_key_in_either_leg_order(self):
        census = TriadCensus()
        census.observe_edge("a", "k", "mentions", "Article", "Keyword")
        census.observe_edge("a", "loc", "locatedIn", "Article", "Location")
        legs = (("mentions", "out", "Keyword"), ("locatedIn", "out", "Location"))
        assert census.count(wedge_key_for_query("Article", *legs)) == 1
        assert census.count(wedge_key_for_query("Article", *reversed(legs))) == 1

    def test_frequency_and_distinct_patterns(self, wedge_graph):
        census = TriadCensus()
        census.observe_graph(wedge_graph)
        assert census.distinct_patterns() == 2
        key = census.most_common(1)[0][0]
        assert 0 < census.frequency(key) <= 1.0

    def test_state_round_trip_recounts_legs_from_the_live_edges(self):
        graph = build_self_loop_graph()
        census = TriadCensus()
        stream_into_census(graph, census)
        live = [
            (e.source, e.target, e.label, graph.vertex(e.source).label, graph.vertex(e.target).label)
            for e in graph.edges()
        ]
        restored = TriadCensus.from_state(census.state_dict(), reversed(live))
        assert restored.state_dict() == census.state_dict()
        assert restored.live_legs() == census.live_legs()
        assert set(census.state_dict()) == {"wedges_observed", "leg_sweep_steps", "counts"}


# ----------------------------------------------------------------------
# FO+MOD-style work bound: per-edge census work is independent of degree
# ----------------------------------------------------------------------
class PerIncidentEdgeCensus(TriadCensus):
    """The shape the leg counters replaced: one sweep step per live incident edge."""

    def __init__(self):
        super().__init__()
        self._incident = {}

    def _add_leg(self, center, center_label, leg):
        incident = self._incident.setdefault(center, [])
        for other in incident:
            key = wedge_key_for_query(center_label, leg, other)
            self._counts[key] = self._counts.get(key, 0) + 1
        self._wedges_observed += len(incident)
        self.leg_sweep_steps += len(incident)
        incident.append(leg)


def sweep_steps_per_edge_at_hub_degree(census, degree, probes=50):
    """Grow one hub to ``degree`` spokes of four leg types, then measure
    the sweep steps of ``probes`` further edges at the hub."""
    for index in range(degree):
        kind = index % 4
        census.observe_edge("hub", f"leaf{index}", f"rel{kind}", "Hub", f"Leaf{kind}")
    before = census.leg_sweep_steps
    for index in range(probes):
        census.observe_edge("hub", f"probe{index}", "rel0", "Hub", "Leaf0")
    return (census.leg_sweep_steps - before) / probes


def assert_work_is_flat_in_degree(census_class, growth=100):
    small = sweep_steps_per_edge_at_hub_degree(census_class(), 50)
    large = sweep_steps_per_edge_at_hub_degree(census_class(), 50 * growth)
    assert large == small, f"steps per edge grew from {small} to {large} with hub degree x{growth}"


class TestCensusWorkBound:
    def test_leg_sweep_steps_per_edge_stay_flat_as_a_hub_grows_100x(self):
        assert_work_is_flat_in_degree(TriadCensus)
        # four leg types live at the hub: four steps per new hub edge
        assert sweep_steps_per_edge_at_hub_degree(TriadCensus(), 5000) == 4

    def test_the_pin_fails_against_a_per_incident_edge_census(self):
        # same wedges, degree-proportional work: the pin must notice
        reference, exact = PerIncidentEdgeCensus(), TriadCensus()
        for census in (reference, exact):
            sweep_steps_per_edge_at_hub_degree(census, 40, probes=5)
        assert dict(reference.most_common()) == dict(exact.most_common())
        with pytest.raises(AssertionError, match="grew"):
            assert_work_is_flat_in_degree(PerIncidentEdgeCensus, growth=10)


class TestStreamSummarizer:
    def test_observe_builds_all_statistics(self, small_news_stream):
        graph = DynamicGraph(TimeWindow(None))
        summarizer = StreamSummarizer(track_triads=True)
        for record in small_news_stream:
            edge = graph.ingest(record.source, record.target, record.label, record.timestamp,
                                record.attrs, source_label=record.source_label,
                                target_label=record.target_label)
            summarizer.observe(graph, edge)
        summary = summarizer.summary()
        assert summary.edge_count == len(small_news_stream)
        assert summary.vertex_labels.count("Article") == 50
        assert summary.edge_labels.count("mentions") == 50
        assert summary.signatures.count(("Article", "mentions", "Keyword")) == 50
        assert summary.triads.total_wedges() > 0
        assert summary.degrees.vertex_count == summary.vertex_count

    @pytest.mark.parametrize("track_triads", [False, True])
    def test_retract_removes_signature_counts_and_live_legs(self, track_triads):
        graph = DynamicGraph(TimeWindow(None))
        summarizer = StreamSummarizer(track_triads=track_triads)
        edge = graph.ingest("a", "k", "mentions", 1.0, source_label="Article", target_label="Keyword")
        other = graph.ingest("a", "k2", "mentions", 2.0, source_label="Article", target_label="Keyword")
        summarizer.observe(graph, edge)
        summarizer.observe(graph, other)
        summarizer.retract(graph, edge)
        summary = summarizer.summary()
        assert summary.edge_labels.count("mentions") == 1
        assert summary.signatures.count(("Article", "mentions", "Keyword")) == 1
        # the wedge the two edges formed stays counted; only the leg goes
        assert summary.triads.total_wedges() == (1 if track_triads else 0)
        assert summarizer.triads.live_legs() == (
            {"a": {("mentions", "out", "Keyword"): 1}, "k2": {("mentions", "in", "Article"): 1}}
            if track_triads
            else {}
        )

    def test_summary_from_graph_matches_streaming(self, small_news_stream):
        graph = DynamicGraph(TimeWindow(None))
        summarizer = StreamSummarizer(track_triads=True)
        for record in small_news_stream:
            edge = graph.ingest(record.source, record.target, record.label, record.timestamp,
                                record.attrs, source_label=record.source_label,
                                target_label=record.target_label)
            summarizer.observe(graph, edge)
        streaming = summarizer.summary()
        batch = GraphSummary.from_graph(graph)
        assert batch.edge_count == streaming.edge_count
        assert batch.vertex_count == streaming.vertex_count
        assert batch.signatures.count(("Article", "mentions", "Keyword")) == streaming.signatures.count(
            ("Article", "mentions", "Keyword")
        )
        assert batch.triads.total_wedges() == pytest.approx(streaming.triads.total_wedges())

    def test_observe_batch_is_the_same_fold_as_observe(self, small_news_stream):
        def fed(chunk):
            graph = DynamicGraph(TimeWindow(None))
            summarizer = StreamSummarizer(track_triads=True)
            for start in range(0, len(small_news_stream), chunk):
                summarizer.observe_batch(
                    graph,
                    [
                        graph.ingest(record.source, record.target, record.label, record.timestamp,
                                     record.attrs, source_label=record.source_label,
                                     target_label=record.target_label)
                        for record in small_news_stream[start:start + chunk]
                    ],
                )
            return summarizer.state_dict()

        assert fed(1) == fed(7) == fed(len(small_news_stream))

    def test_describe_and_to_dict(self, news_graph):
        summary = GraphSummary.from_graph(news_graph)
        assert "vertices" in summary.describe()
        payload = summary.to_dict()
        assert payload["edge_count"] == 6


def star_records(spokes=10):
    return [
        StreamEdge("hub", f"leaf{index}", "link", float(index), source_label="Hub", target_label="Leaf")
        for index in range(spokes)
    ]


class TestEngineStatisticsUpkeep:
    """The summarizer as the engine drives it: batch fold, eviction hook."""

    @staticmethod
    def engine(**config):
        engine = StreamWorksEngine(config=EngineConfig(**config))
        engine.register_query(
            QueryBuilder("q").vertex("h", "Hub").vertex("l", "Leaf").edge("h", "l", "link").build(),
            name="q",
        )
        return engine

    def test_batched_feed_counts_in_run_wedges_once(self):
        # the batched path ingests the whole run before folding it; a census
        # that read the *graph* saw each in-run pair from both sides (90)
        records = star_records(10)
        batched = self.engine()
        batched.process_batch(records)
        per_record = self.engine()
        for record in records:
            per_record.process_record(record)
        truth = GraphSummary.from_graph(batched.graph).triads
        assert truth.total_wedges() == 45
        for engine in (batched, per_record):
            assert engine.summarizer.triads.total_wedges() == 45
            assert dict(engine.summarizer.triads.most_common()) == dict(truth.most_common())
        assert batched.summarizer.state_dict() == per_record.summarizer.state_dict()

    def test_wedge_estimates_on_a_hub_equal_the_ground_truth(self):
        # the sampled census this replaced was within ~35 % here; exact is 0 %
        engine = self.engine()
        engine.process_batch(star_records(60))
        query = (
            QueryBuilder("pair").vertex("h", "Hub").vertex("a", "Leaf").vertex("b", "Leaf")
            .edge("h", "a", "link").edge("h", "b", "link").build()
        )
        streamed = SelectivityEstimator(engine.statistics_summary(), smoothing=0.0)
        truth = SelectivityEstimator(GraphSummary.from_graph(engine.graph), smoothing=0.0)
        assert streamed.estimate_primitive(query, query) == truth.estimate_primitive(query, query)
        assert truth.estimate_primitive(query, query) == 60 * 59 / 2

    @pytest.mark.parametrize("batched", [False, True], ids=["per-record", "batched"])
    def test_eviction_retracts_legs_but_not_wedge_counts(self, batched):
        engine = self.engine(default_window=3.0)
        records = star_records(10)
        if batched:
            engine.process_batch(records[:5])
            engine.process_batch(records[5:])
        else:
            for record in records:
                engine.process_record(record)
        census = engine.summarizer.triads
        assert engine.graph.edge_count() == 3
        assert census.live_legs() == recount_live_legs(engine.graph)
        assert census.live_legs()["hub"] == {("link", "out", "Leaf"): 3}
        # cumulative: more than the 3 wedges among the live edges
        assert census.total_wedges() > 3

    def test_dead_on_arrival_records_are_neither_folded_nor_retracted(self):
        engine = self.engine(default_window=3.0)
        engine.process_batch(star_records(10))
        before = engine.summarizer.state_dict()
        stale = StreamEdge("hub", "leaf0", "link", 1.0, source_label="Hub", target_label="Leaf")
        engine.process_record(stale)
        engine.process_batch([stale, stale])
        assert engine.records_dead_on_arrival == 3
        assert engine.summarizer.state_dict() == before
        assert engine.summarizer.triads.live_legs() == recount_live_legs(engine.graph)

    def test_vertex_recreated_under_another_label_is_read_from_the_store_again(self):
        engine = self.engine(default_window=2.0)
        engine.process_record(StreamEdge("x", "y", "link", 0.0, source_label="Hub", target_label="Leaf"))
        # x and y age out of the store entirely, then x comes back as a Leaf
        engine.process_record(StreamEdge("p", "q", "link", 10.0, source_label="Hub", target_label="Leaf"))
        assert not engine.graph.has_vertex("x")
        engine.process_record(StreamEdge("p", "x", "link", 11.0, source_label="Hub", target_label="Leaf"))
        assert engine.graph.vertex("x").label == "Leaf"
        assert engine.summarizer.triads.live_legs() == recount_live_legs(engine.graph)
        assert engine.summarizer.signatures.count(("Hub", "link", "Leaf")) == 3


class TestSelectivityEstimator:
    def build_summary(self, news_graph):
        return GraphSummary.from_graph(news_graph)

    def test_edge_estimate_uses_signature_counts(self, news_graph, pair_query):
        estimator = SelectivityEstimator(self.build_summary(news_graph), smoothing=0.0)
        mentions_edge = next(e for e in pair_query.edges() if e.label == "mentions")
        located_edge = next(e for e in pair_query.edges() if e.label == "locatedIn")
        assert estimator.estimate_edge(pair_query, mentions_edge) == pytest.approx(3.0)
        assert estimator.estimate_edge(pair_query, located_edge) == pytest.approx(3.0)

    def test_attribute_equality_discount(self, news_graph):
        query = (
            QueryBuilder("q")
            .vertex("a", "Article")
            .vertex("k", "Keyword", attrs={"label": "politics"})
            .edge("a", "k", "mentions")
            .build()
        )
        estimator = SelectivityEstimator(self.build_summary(news_graph), smoothing=0.0,
                                         attribute_equality_selectivity=0.1)
        edge = next(iter(query.edges()))
        assert estimator.estimate_edge(query, edge) == pytest.approx(0.3)

    def test_wedge_estimate_uses_triads(self, news_graph, pair_query):
        estimator = SelectivityEstimator(self.build_summary(news_graph), smoothing=0.0)
        # primitive: a1 mentions k, a2 mentions k (shared keyword wedge)
        mention_ids = [e.id for e in pair_query.edges() if e.label == "mentions"]
        primitive = pair_query.edge_subgraph(mention_ids)
        estimate = estimator.estimate_primitive(pair_query, primitive)
        # exactly one such wedge exists in the fixture (politics keyword)
        assert estimate == pytest.approx(1.0)

    def test_unknown_signature_falls_back_and_smooths(self, news_graph):
        query = QueryBuilder("q").vertex("u", "User").vertex("h", "Host").edge("u", "h", "loginTo").build()
        estimator = SelectivityEstimator(self.build_summary(news_graph), smoothing=0.5)
        edge = next(iter(query.edges()))
        assert estimator.estimate_edge(query, edge) == pytest.approx(0.5)

    def test_rank_primitives_orders_most_selective_first(self, news_graph, pair_query):
        estimator = SelectivityEstimator(self.build_summary(news_graph))
        mention_ids = [e.id for e in pair_query.edges() if e.label == "mentions"]
        located_ids = [e.id for e in pair_query.edges() if e.label == "locatedIn"]
        primitives = [
            pair_query.edge_subgraph(mention_ids, name="mentions_pair"),
            pair_query.edge_subgraph([mention_ids[0]], name="single_mention"),
        ]
        ranked = estimator.rank_primitives(pair_query, primitives)
        assert ranked[0][1] <= ranked[1][1]

    def test_invalid_equality_selectivity_rejected(self, news_graph):
        with pytest.raises(ValueError):
            SelectivityEstimator(self.build_summary(news_graph), attribute_equality_selectivity=0.0)

    def test_larger_primitive_chain_estimate(self, news_graph, pair_query):
        estimator = SelectivityEstimator(self.build_summary(news_graph))
        three_ids = sorted(pair_query.edge_ids())[:3]
        primitive = pair_query.edge_subgraph(three_ids)
        estimate = estimator.estimate_primitive(pair_query, primitive)
        assert estimate >= 0.0
