"""Tests for adaptive re-planning (the paper's stated future work, implemented here)."""

import pytest

from repro.core import EngineConfig, Strategy, StreamWorksEngine
from repro.core.decomposition import Decomposition
from repro.core.sjtree import SJTree
from repro.query import QueryBuilder
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
        # another strategy, so the tree is rebuilt: a replan to the tree
        # already installed keeps the matcher and migrates nothing
        engine.replan_query("q", strategy=Strategy.EDGE_BY_EDGE)
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



def chain(name, labels):
    builder = QueryBuilder(name)
    for position in range(len(labels) + 1):
        builder.vertex(f"v{position}", "Host")
    for position, label in enumerate(labels):
        builder.edge(f"v{position}", f"v{position + 1}", label)
    return builder.build()


def chain_records(count=60):
    labels = ("a", "b", "c")
    return [
        StreamEdge(f"h{index % 7}", f"h{(index * 3 + 1) % 7}", labels[index % 3], float(index),
                   source_label="Host", target_label="Host")
        for index in range(count)
    ]


def canonical(events):
    return [(e.query_name, e.match.portable_identity(), e.sequence) for e in events]


class TestReplanToTheInstalledTree:
    """A replan whose decomposition builds the installed tree keeps the matcher."""

    def test_the_matcher_and_its_partials_survive(self):
        records = chain_records()
        never = StreamWorksEngine()
        never.register_query(chain("q", ["a", "b", "c"]), window=8.0)
        never.process_batch(records)

        engine = StreamWorksEngine()
        registration = engine.register_query(chain("q", ["a", "b", "c"]), window=8.0)
        engine.process_batch(records[:30])
        engine.replan_query("q")  # statistics now exist: this one may rebuild
        matcher = registration.matcher
        partials = {node.id: list(node.partials()) for node in matcher.tree.nodes.values()}
        assert any(partials.values())
        installed = registration.plan
        version = registration.plan_version
        dispatch_version = engine.dispatch.version
        applied = engine.plan_monitor.plans_applied
        migrated = engine.plan_monitor.partials_migrated

        engine.replan_query("q")  # same statistics, same tree
        assert registration.plan is not installed
        assert registration.plan.decomposition.same_tree(installed.decomposition)
        assert registration.matcher is matcher
        assert {node.id: list(node.partials()) for node in matcher.tree.nodes.values()} == partials
        assert registration.plan_version == version
        assert engine.dispatch.version == dispatch_version
        assert engine.plan_monitor.plans_applied == applied
        assert engine.plan_monitor.partials_migrated == migrated

        engine.process_batch(records[30:])
        assert canonical(engine.events()) == canonical(never.events()) != []

    def test_a_triggered_replan_counts_the_trigger_and_rescores_to_zero(self):
        # two edges are one pair primitive whatever the statistics say
        engine = StreamWorksEngine(config=EngineConfig(replan_threshold=0.5))
        registration = engine.register_query(chain("ab", ["a", "b"]), window=8.0)
        matcher = registration.matcher
        engine.process_batch(chain_records())
        # the plan was made before any statistics: it scores infinite
        assert engine.run_replan_check() == ["ab"]
        monitor = engine.plan_monitor
        assert (monitor.triggers_fired, monitor.plans_applied, monitor.partials_migrated) == (1, 0, 0)
        assert registration.matcher is matcher and registration.plan_version == 0
        assert registration.plan.summary_edge_count > 0
        # the stored plan carries the live estimates: the next check is quiet
        assert engine.run_replan_check() == []
        assert monitor.last_errors["ab"] == 0.0
        assert engine.metrics()["replan"]["plan_versions"] == {"ab": 0}


def test_same_tree_compares_shape_and_ordered_primitives():
    query = chain("q", ["a", "b", "c"])
    first, second, third = (query.edge_subgraph([edge_id]) for edge_id in (0, 1, 2))
    pair = query.edge_subgraph([0, 1], name="renamed")
    base = Decomposition(query, [query.edge_subgraph([0, 1]), third])
    assert base.same_tree(Decomposition(query, [pair, third]))  # names do not count
    assert not base.same_tree(Decomposition(query, [third, pair]))  # order does
    assert not base.same_tree(Decomposition(query, [first, second, third]))
    assert not base.same_tree(
        Decomposition(query, [pair, third], tree_shape=SJTree.BALANCED)
    )
