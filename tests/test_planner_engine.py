"""Tests for the query planner and the StreamWorks engine façade."""

import pytest

from repro.core import (
    EngineConfig,
    PlannerConfig,
    QueryPlanner,
    Strategy,
    StreamWorksEngine,
)
from repro.queries.news import common_topic_location_query, labelled_topic_query
from repro.stats import GraphSummary
from repro.streaming import CountingSink, StreamEdge


@pytest.fixture
def news_summary(news_graph):
    return GraphSummary.from_graph(news_graph)


class TestQueryPlanner:
    def test_plan_with_statistics(self, news_summary):
        planner = QueryPlanner(news_summary, PlannerConfig(strategy=Strategy.SELECTIVITY))
        plan = planner.plan(common_topic_location_query(3))
        assert plan.primitive_count() == 3
        assert plan.summary_edge_count == news_summary.edge_count
        assert plan.estimates
        plan.build_tree().validate()

    def test_plan_without_statistics_falls_back(self):
        planner = QueryPlanner(None)
        plan = planner.plan(common_topic_location_query(3))
        assert plan.primitive_count() >= 2
        plan.build_tree().validate()

    def test_plan_strategy_override(self, news_summary):
        planner = QueryPlanner(news_summary)
        plan = planner.plan(common_topic_location_query(3), strategy=Strategy.EDGE_BY_EDGE)
        assert plan.strategy == Strategy.EDGE_BY_EDGE
        assert plan.primitive_count() == 6

    def test_manual_primitives(self, news_summary, pair_query):
        ids = sorted(pair_query.edge_ids())
        primitives = [pair_query.edge_subgraph(ids[:2]), pair_query.edge_subgraph(ids[2:])]
        planner = QueryPlanner(news_summary)
        plan = planner.plan(pair_query, primitives=primitives)
        assert plan.strategy == Strategy.MANUAL
        assert plan.primitive_count() == 2

    def test_plan_all_strategies(self, news_summary):
        planner = QueryPlanner(news_summary)
        plans = planner.plan_all_strategies(common_topic_location_query(3))
        assert len(plans) == 4
        assert {plan.strategy for plan in plans} == {
            Strategy.SELECTIVITY,
            Strategy.ANTI_SELECTIVE,
            Strategy.EDGE_BY_EDGE,
            Strategy.BALANCED_PAIRS,
        }

    def test_compare_returns_estimates_per_strategy(self, news_summary):
        planner = QueryPlanner(news_summary)
        comparison = planner.compare(common_topic_location_query(2))
        assert set(comparison) == {
            Strategy.SELECTIVITY,
            Strategy.ANTI_SELECTIVE,
            Strategy.EDGE_BY_EDGE,
            Strategy.BALANCED_PAIRS,
        }

    def test_primitive_size_one(self, news_summary):
        planner = QueryPlanner(news_summary, PlannerConfig(primitive_size=1))
        plan = planner.plan(common_topic_location_query(2))
        assert all(p.edge_count() == 1 for p in plan.decomposition.primitives)

    def test_invalid_primitive_size(self):
        with pytest.raises(ValueError):
            PlannerConfig(primitive_size=3)

    def test_describe_contains_strategy(self, news_summary):
        plan = QueryPlanner(news_summary).plan(common_topic_location_query(2))
        assert "selectivity" in plan.describe()


def news_records():
    """Two related articles, then an unrelated one, then a third related article."""
    return [
        StreamEdge("art1", "kw:politics", "mentions", 1.0, {"label": "politics"},
                   "Article", "Keyword", target_attrs={"label": "politics"}),
        StreamEdge("art1", "loc:paris", "locatedIn", 2.0, {}, "Article", "Location"),
        StreamEdge("art2", "kw:politics", "mentions", 3.0, {"label": "politics"},
                   "Article", "Keyword", target_attrs={"label": "politics"}),
        StreamEdge("art2", "loc:paris", "locatedIn", 4.0, {}, "Article", "Location"),
        StreamEdge("art9", "kw:sports", "mentions", 5.0, {"label": "sports"},
                   "Article", "Keyword", target_attrs={"label": "sports"}),
        StreamEdge("art3", "kw:politics", "mentions", 6.0, {"label": "politics"},
                   "Article", "Keyword", target_attrs={"label": "politics"}),
        StreamEdge("art3", "loc:paris", "locatedIn", 7.0, {}, "Article", "Location"),
    ]


class TestEngineRegistration:
    def test_register_and_describe(self):
        engine = StreamWorksEngine()
        registration = engine.register_query(common_topic_location_query(2), name="pairs", window=60.0)
        assert registration.name == "pairs"
        assert "pairs" in engine.describe()
        assert engine.queries["pairs"].window.duration == 60.0

    def test_duplicate_name_rejected(self):
        engine = StreamWorksEngine()
        engine.register_query(common_topic_location_query(2), name="q")
        with pytest.raises(ValueError):
            engine.register_query(common_topic_location_query(3), name="q")

    def test_unregister(self):
        engine = StreamWorksEngine()
        engine.register_query(common_topic_location_query(2), name="q")
        engine.unregister_query("q")
        assert engine.queries == {}
        with pytest.raises(KeyError):
            engine.unregister_query("q")

    def test_retention_window_covers_all_queries(self):
        engine = StreamWorksEngine()
        engine.register_query(common_topic_location_query(2), name="short", window=10.0)
        engine.register_query(common_topic_location_query(3), name="long", window=500.0)
        assert engine.graph.window.duration == 500.0
        engine.unregister_query("long")
        assert engine.graph.window.duration == 10.0

    def test_unbounded_query_forces_unbounded_retention(self):
        # regression: one bounded + one unbounded query used to yield a
        # finite retention window that evicted edges the unbounded query
        # still needed
        engine = StreamWorksEngine()
        engine.register_query(common_topic_location_query(2), name="bounded", window=10.0)
        engine.register_query(common_topic_location_query(3), name="forever", window=None)
        assert not engine.graph.window.bounded
        engine.unregister_query("forever")
        assert engine.graph.window.duration == 10.0

    def test_unbounded_query_overrides_default_window_retention(self):
        engine = StreamWorksEngine(default_window=5.0)
        # window=None falls back to the engine default, so an explicitly
        # unbounded query is spelled with an infinite window
        engine.register_query(common_topic_location_query(2), name="forever", window=float("inf"))
        assert not engine.graph.window.bounded
        # edges older than the 5s default must survive for the unbounded query
        engine.process_stream(news_records())
        assert engine.graph.edges_evicted == 0

    def test_default_window_applies_to_queries(self):
        engine = StreamWorksEngine(default_window=42.0)
        registration = engine.register_query(common_topic_location_query(2), name="q")
        assert registration.window.duration == 42.0

    def test_a_default_window_override_leaves_the_shared_config_alone(self):
        config = EngineConfig(default_window=10.0)
        first = StreamWorksEngine(default_window=5.0, config=config)
        StreamWorksEngine(default_window=99.0, config=config)
        registration = first.register_query(common_topic_location_query(2), name="q")
        assert registration.window.duration == 5.0
        assert first.graph.window.duration == 5.0
        assert config.default_window == 10.0


class TestEngineProcessing:
    def test_events_emitted_and_collected(self):
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="pairs", window=60.0)
        events = engine.process_stream(news_records())
        # pairs among {art1, art2, art3}: 3 distinct article pairs
        assert len(events) == 3
        assert len(engine.events("pairs")) == 3
        assert engine.match_counts()["pairs"] == 3
        assert engine.edges_processed == len(news_records())

    def test_event_metadata(self):
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="pairs", window=60.0)
        events = engine.process_stream(news_records())
        first = events[0]
        assert first.query_name == "pairs"
        assert first.detected_at == 4.0
        assert first.detection_latency == pytest.approx(3.0)
        assert first.span < 60.0
        payload = first.to_dict()
        assert payload["query"] == "pairs" and payload["vertices"]

    def test_multiple_queries_fire_independently(self):
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="any_topic", window=60.0)
        engine.register_query(labelled_topic_query("politics", article_count=2), name="politics", window=60.0)
        engine.register_query(labelled_topic_query("weather", article_count=2), name="weather", window=60.0)
        engine.process_stream(news_records())
        counts = engine.match_counts()
        assert counts["any_topic"] == 3
        assert counts["politics"] == 3
        assert counts["weather"] == 0

    def test_on_match_callback_and_extra_sink(self):
        received = []
        counting = CountingSink()
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.add_sink(counting)
        engine.register_query(common_topic_location_query(2), name="pairs", window=60.0,
                              on_match=received.append)
        engine.process_stream(news_records())
        assert len(received) == 3
        assert counting.total == 3

    def test_on_match_callback_only_sees_its_own_query(self):
        # regression: the callback used to be attached as a global sink and
        # fired for every registered query's events
        pairs_seen, politics_seen = [], []
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="pairs", window=60.0,
                              on_match=pairs_seen.append)
        engine.register_query(labelled_topic_query("politics", article_count=2), name="politics",
                              window=60.0, on_match=politics_seen.append)
        engine.process_stream(news_records())
        assert len(pairs_seen) == 3
        assert len(politics_seen) == 3
        assert all(event.query_name == "pairs" for event in pairs_seen)
        assert all(event.query_name == "politics" for event in politics_seen)

    def test_unregister_detaches_on_match_callback(self):
        # regression: unregistering a query used to leave its callback sink
        # attached, so it kept firing for other queries' events
        received = []
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(labelled_topic_query("politics", article_count=2), name="politics",
                              window=60.0, on_match=received.append)
        engine.register_query(common_topic_location_query(2), name="pairs", window=60.0)
        engine.unregister_query("politics")
        engine.process_stream(news_records())
        assert received == []
        assert len(engine.events("pairs")) == 3

    def test_metrics_structure(self):
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="pairs", window=60.0)
        engine.process_stream(news_records())
        metrics = engine.metrics()
        assert metrics["edges_processed"] == len(news_records())
        assert "pairs" in metrics["queries"]
        assert metrics["throughput"]["items"] == len(news_records())
        assert metrics["latency"]["count"] == len(news_records())

    def test_statistics_summary_available(self):
        engine = StreamWorksEngine()
        engine.register_query(common_topic_location_query(2), name="pairs", window=60.0)
        engine.process_stream(news_records())
        summary = engine.statistics_summary()
        assert summary is not None
        assert summary.edge_count == len(news_records())

    def test_statistics_can_be_disabled(self):
        engine = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        engine.register_query(common_topic_location_query(2), name="pairs", window=60.0)
        engine.process_stream(news_records())
        assert engine.statistics_summary() is None

    def test_query_window_enforced_through_engine(self):
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="pairs", window=2.5)
        events = engine.process_stream(news_records())
        assert all(event.span < 2.5 for event in events)

    def test_dedupe_reports_one_of_two_automorphic_variants(self):
        counts = {}
        for dedupe in (False, True):
            engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=dedupe))
            engine.register_query(common_topic_location_query(2), name="pairs", window=60.0)
            engine.process_stream(news_records())
            counts[dedupe] = engine.match_counts()["pairs"]
        assert counts[False] == 2 * counts[True] > 0
