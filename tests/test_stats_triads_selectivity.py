"""Tests for the triad census, the stream summarizer and selectivity estimation."""

import pytest
from differential import summary_facts

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


def live_edges_of(graph, edges=None):
    """``(source, target, label, source label, target label)`` per edge."""
    return [
        (e.source, e.target, e.label, graph.vertex(e.source).label, graph.vertex(e.target).label)
        for e in (graph.edges() if edges is None else edges)
    ]


def leg_count(graph, edges=None):
    labels = {vertex.id: vertex.label for vertex in graph.vertices()}
    return TriadCensus.from_live_edges(live_edges_of(graph, edges), labels)


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
        key = wedge_key_for_query("V", ("loop", "out", "V"), ("link", "out", "W"))
        brute_force = TriadCensus()
        brute_force.observe_graph(graph)
        for census in (brute_force, leg_count(graph)):
            # one wedge, centred at v: the loop never pairs with itself
            assert census.total_wedges() == 1
            assert census.count(key) == 1

    @pytest.mark.parametrize(
        "build", [build_wedge_graph, build_self_loop_graph, build_hub_graph],
        ids=["wedge", "self-loops", "hub"],
    )
    def test_leg_count_equals_brute_force_exactly(self, build):
        graph = build()
        brute_force = TriadCensus()
        brute_force.observe_graph(graph)
        counted = leg_count(graph)
        assert counted.total_wedges() == brute_force.total_wedges()
        assert dict(counted.most_common()) == dict(brute_force.most_common())

    @pytest.mark.parametrize(
        "build", [build_wedge_graph, build_self_loop_graph], ids=["wedge", "self-loops"]
    )
    def test_leg_count_does_not_depend_on_the_edge_order(self, build):
        graph = build()
        forward = leg_count(graph)
        backward = leg_count(graph, reversed(list(graph.edges())))
        assert backward.most_common() == forward.most_common()
        assert backward.to_dict() == forward.to_dict()

    def test_wildcard_count(self, wedge_graph):
        census = TriadCensus()
        census.observe_graph(wedge_graph)
        wildcard = wedge_key_for_query(None, ("mentions", "in", None), ("mentions", "in", None))
        assert census.count_wildcard(wildcard) == 1

    def test_query_key_equals_stream_key_in_either_leg_order(self):
        census = TriadCensus.from_live_edges(
            [
                ("a", "k", "mentions", "Article", "Keyword"),
                ("a", "loc", "locatedIn", "Article", "Location"),
            ],
            {"a": "Article", "k": "Keyword", "loc": "Location"},
        )
        legs = (("mentions", "out", "Keyword"), ("locatedIn", "out", "Location"))
        assert census.count(wedge_key_for_query("Article", *legs)) == 1
        assert census.count(wedge_key_for_query("Article", *reversed(legs))) == 1

    def test_frequency_and_distinct_patterns(self, wedge_graph):
        census = TriadCensus()
        census.observe_graph(wedge_graph)
        assert census.distinct_patterns() == 2
        key = census.most_common(1)[0][0]
        assert 0 < census.frequency(key) <= 1.0

    def test_no_edges_and_lone_legs_count_nothing(self):
        assert TriadCensus.from_live_edges([], {}).total_wedges() == 0
        lone = TriadCensus.from_live_edges(
            [("a", "b", "link", "A", "B"), ("c", "d", "link", "A", "B")],
            {"a": "A", "b": "B", "c": "A", "d": "B"},
        )
        assert lone.total_wedges() == 0 and len(lone) == 0


class TestCensusWork:
    def test_a_hub_is_counted_from_its_distinct_legs(self):
        # 5 000 spokes of four leg types: C(1250, 2) wedges per type and
        # 1250**2 per pair of types, from four leg entries at the hub
        edges = [
            ("hub", f"leaf{index}", f"rel{index % 4}", "Hub", f"Leaf{index % 4}")
            for index in range(5000)
        ]
        legs = TriadCensus._count_legs(edges)
        assert len(legs["hub"]) == 4
        labels = {"hub": "Hub", **{f"leaf{index}": f"Leaf{index % 4}" for index in range(5000)}}
        census = TriadCensus.from_live_edges(edges, labels)
        assert census.total_wedges() == 5000 * 4999 // 2
        assert census.distinct_patterns() == 4 + 6


def ingest_all(graph, records):
    return [
        graph.ingest(record.source, record.target, record.label, record.timestamp,
                     record.attrs, source_label=record.source_label,
                     target_label=record.target_label)
        for record in records
    ]


class TestStreamSummarizer:
    def test_summary_builds_all_statistics(self, small_news_stream):
        graph = DynamicGraph(TimeWindow(None))
        ingest_all(graph, small_news_stream)
        summary = StreamSummarizer(graph).summary()
        assert summary.edge_count == len(small_news_stream)
        assert summary.vertex_labels.count("Article") == 50
        assert summary.edge_labels.count("mentions") == 50
        assert summary.signatures.count(("Article", "mentions", "Keyword")) == 50
        assert summary.triads.total_wedges() > 0
        assert summary.degrees.vertex_count == summary.vertex_count

    @pytest.mark.parametrize("track_triads", [False, True])
    def test_a_section_with_folded_statistics_loads_them_ignored(
        self, small_news_stream, track_triads, caplog
    ):
        # snapshots written while statistics were folded per record carry
        # the folded counts (count-min tables, in some); the store derives
        # all of them, so they are ignored and only the counter is kept
        from repro.persistence.state import _summarizer_from_state

        graph = DynamicGraph(TimeWindow(None))
        summarizer = StreamSummarizer(graph, track_triads=track_triads)
        summarizer.observe_batch(ingest_all(graph, small_news_stream))
        state = summarizer.state_dict()
        state["sketch_stats"] = True
        for name in ("vertex_labels", "edge_labels", "signatures"):
            state[name] = {
                "sketch": {"width": 8, "depth": 2, "seed": 0, "total": 0, "rows": [[0] * 8] * 2},
                "heavy_capacity": 64,
                "heavy": [],
                "total_count": 0,
            }
        with caplog.at_level("WARNING", logger="repro.persistence"):
            restored = _summarizer_from_state(state, graph)
        (record,) = caplog.records
        assert record.getMessage().endswith("edge_labels, signatures, sketch_stats, vertex_labels")
        assert restored.summary().edge_labels.count("mentions") == 50
        assert restored.state_dict() == summarizer.state_dict()
        assert restored.edges_observed == len(small_news_stream)

    def test_summary_from_graph_matches_streaming(self, small_news_stream):
        graph = DynamicGraph(TimeWindow(None))
        ingest_all(graph, small_news_stream)
        assert summary_facts(StreamSummarizer(graph).summary()) == summary_facts(
            GraphSummary.from_graph(graph)
        )

    def test_observe_batch_only_counts_edges(self, small_news_stream):
        graph = DynamicGraph(TimeWindow(None))
        summarizer = StreamSummarizer(graph)
        edges = ingest_all(graph, small_news_stream)
        before = summary_facts(summarizer.summary())
        summarizer.observe_batch(edges[:7])
        summarizer.observe_batch(edges[7:])
        assert summarizer.edges_observed == len(edges)
        assert summary_facts(summarizer.summary()) == before
        assert set(vars(summarizer)) == {"graph", "track_triads", "_edge_count"}

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
    """The summary as the engine serves it: from the window store, on demand."""

    @staticmethod
    def engine(**config):
        engine = StreamWorksEngine(config=EngineConfig(**config))
        engine.register_query(
            QueryBuilder("q").vertex("h", "Hub").vertex("l", "Leaf").edge("h", "l", "link").build(),
            name="q",
        )
        return engine

    def test_batched_feed_counts_in_run_wedges_once(self):
        # a census that read each in-run pair from both sides would say 90
        records = star_records(10)
        batched = self.engine()
        batched.process_batch(records)
        per_record = self.engine()
        for record in records:
            per_record.process_record(record)
        truth = GraphSummary.from_graph(batched.graph).triads
        assert truth.total_wedges() == 45
        for engine in (batched, per_record):
            assert engine.statistics_summary().triads.total_wedges() == 45
            assert dict(engine.statistics_summary().triads.most_common()) == dict(truth.most_common())
        assert summary_facts(batched.statistics_summary()) == summary_facts(
            per_record.statistics_summary()
        )

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
    def test_statistics_describe_the_window_after_eviction(self, batched):
        engine = self.engine(default_window=3.0)
        records = star_records(10)
        if batched:
            engine.process_batch(records[:5])
            engine.process_batch(records[5:])
        else:
            for record in records:
                engine.process_record(record)
        summary = engine.statistics_summary()
        assert engine.graph.edge_count() == summary.edge_count == 3
        assert summary.edge_labels.to_dict() == {"link": 3}
        assert summary.vertex_labels.to_dict() == {"Hub": 1, "Leaf": 3}
        assert summary.degrees.histogram() == {3: 1, 1: 3}
        # the wedges among the live edges, not every wedge ever formed
        assert summary.triads.total_wedges() == 3
        assert engine.summarizer.edges_observed == 10

    def test_dead_on_arrival_records_are_not_counted(self):
        engine = self.engine(default_window=3.0)
        engine.process_batch(star_records(10))
        before = summary_facts(engine.statistics_summary())
        observed = engine.summarizer.edges_observed
        stale = StreamEdge("hub", "leaf0", "link", 1.0, source_label="Hub", target_label="Leaf")
        engine.process_record(stale)
        engine.process_batch([stale, stale])
        assert engine.records_dead_on_arrival == 3
        assert summary_facts(engine.statistics_summary()) == before
        assert engine.summarizer.edges_observed == observed

    def test_vertex_recreated_under_another_label_is_read_from_the_store_again(self):
        engine = self.engine(default_window=2.0)
        engine.process_record(StreamEdge("x", "y", "link", 0.0, source_label="Hub", target_label="Leaf"))
        # x and y age out of the store entirely, then x comes back as a Leaf
        engine.process_record(StreamEdge("p", "q", "link", 10.0, source_label="Hub", target_label="Leaf"))
        assert not engine.graph.has_vertex("x")
        engine.process_record(StreamEdge("p", "x", "link", 11.0, source_label="Hub", target_label="Leaf"))
        assert engine.graph.vertex("x").label == "Leaf"
        summary = engine.statistics_summary()
        assert summary.signatures.to_dict() == {"Hub|link|Leaf": 2}
        assert summary.vertex_labels.to_dict() == {"Hub": 1, "Leaf": 2}
        assert summary_facts(summary) == summary_facts(GraphSummary.from_graph(engine.graph))

    def test_an_empty_store_summarizes_without_reading_it(self, monkeypatch):
        # registration before the first record must stay O(1)
        engine = self.engine()
        monkeypatch.setattr(type(engine.graph.graph), "edges", None)
        monkeypatch.setattr(type(engine.graph.graph), "vertices", None)
        summary = engine.statistics_summary()
        assert summary.edge_count == summary.vertex_count == 0


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
