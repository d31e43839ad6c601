"""Tests for adaptive re-planning (the paper's stated future work, implemented here)."""

import pytest

from repro.core import EngineConfig, Strategy, StreamWorksEngine
from repro.queries.news import common_topic_location_query
from repro.streaming import StreamEdge
from repro.workloads import NewsStreamConfig, NewsStreamGenerator


def news_stream(article_count=80, seed=13):
    generator = NewsStreamGenerator(NewsStreamConfig(seed=seed))
    stream, _ = generator.stream_with_bursts(article_count, [("politics", "paris", 60.0)])
    return stream


class TestReplanQuery:
    def test_replan_updates_plan_statistics(self):
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="q", window=60.0)
        assert engine.queries["q"].plan.summary_edge_count == 0
        records = list(news_stream())
        engine.process_stream(records[: len(records) // 2])
        engine.replan_query("q")
        assert engine.queries["q"].plan.summary_edge_count > 0

    def test_replan_unknown_query_raises(self):
        engine = StreamWorksEngine()
        with pytest.raises(KeyError):
            engine.replan_query("ghost")

    def test_replan_with_strategy_override(self):
        engine = StreamWorksEngine()
        engine.register_query(common_topic_location_query(2), name="q", window=60.0)
        engine.process_stream(list(news_stream(30)))
        registration = engine.replan_query("q", strategy=Strategy.EDGE_BY_EDGE)
        assert registration.plan.strategy == Strategy.EDGE_BY_EDGE
        assert registration.plan.primitive_count() == 4

    def test_replan_does_not_rereport_old_matches(self):
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="q", window=60.0)
        records = list(news_stream())
        first_half_events = engine.process_stream(records[: len(records) // 2])
        engine.replan_query("q")
        second_half_events = engine.process_stream(records[len(records) // 2:])
        identities = [event.match.identity() for event in first_half_events + second_half_events]
        assert len(identities) == len(set(identities))

    def test_matches_fully_after_replan_are_still_found(self):
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="q", window=60.0)
        warmup = [
            StreamEdge("warm1", "kw:x", "mentions", 1.0, source_label="Article", target_label="Keyword"),
            StreamEdge("warm1", "loc:y", "locatedIn", 2.0, source_label="Article", target_label="Location"),
        ]
        engine.process_stream(warmup)
        engine.replan_query("q")
        fresh = [
            StreamEdge("a1", "kw:z", "mentions", 100.0, source_label="Article", target_label="Keyword"),
            StreamEdge("a1", "loc:w", "locatedIn", 101.0, source_label="Article", target_label="Location"),
            StreamEdge("a2", "kw:z", "mentions", 102.0, source_label="Article", target_label="Keyword"),
            StreamEdge("a2", "loc:w", "locatedIn", 103.0, source_label="Article", target_label="Location"),
        ]
        events = engine.process_stream(fresh)
        assert len(events) == 1

    def test_in_flight_partials_survive_replan(self):
        """Pin the migration bugfix: a match straddling a replan is still found.

        ``replan_query`` used to rebuild the SJ-Tree empty, silently losing
        every in-flight partial -- a match whose first edges arrived before
        the replan and whose last edge arrived after was never reported.
        Migration now replays the retained window store through the new
        tree's leaves, so the straddling match below must be detected.
        """
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(common_topic_location_query(2), name="q", window=60.0)
        prefix = [
            StreamEdge("a1", "kw:z", "mentions", 1.0, source_label="Article", target_label="Keyword"),
            StreamEdge("a1", "loc:w", "locatedIn", 2.0, source_label="Article", target_label="Location"),
            StreamEdge("a2", "kw:z", "mentions", 3.0, source_label="Article", target_label="Keyword"),
        ]
        assert engine.process_stream(prefix) == []
        engine.replan_query("q")
        assert engine.metrics()["replan"]["partials_migrated"] > 0
        # the last edge of the straddling match arrives under the NEW plan
        suffix = [
            StreamEdge("a2", "loc:w", "locatedIn", 4.0, source_label="Article", target_label="Location"),
        ]
        events = engine.process_stream(suffix)
        assert len(events) == 1

    def test_replan_all(self):
        engine = StreamWorksEngine()
        engine.register_query(common_topic_location_query(2), name="a", window=60.0)
        engine.register_query(common_topic_location_query(3), name="b", window=60.0)
        engine.process_stream(list(news_stream(30)))
        engine.replan_all()
        assert engine.queries["a"].plan.summary_edge_count > 0
        assert engine.queries["b"].plan.summary_edge_count > 0

