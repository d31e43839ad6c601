"""Cross-module integration tests: engine vs oracle, planner pipeline, examples' flows."""

import random

import pytest

from repro.baselines import NaiveIncrementalEngine, RepeatedSearchEngine
from repro.core import (
    ContinuousQueryMatcher,
    EngineConfig,
    PlannerConfig,
    QueryPlanner,
    Strategy,
    StreamWorksEngine,
    decompose,
)
from repro.graph import DynamicGraph, TimeWindow
from repro.isomorphism import SubgraphMatcher
from repro.queries.cyber import smurf_ddos_query
from repro.queries.news import common_topic_location_query
from repro.query import parse_query
from repro.stats import StreamSummarizer
from repro.streaming import EdgeStream, StreamEdge, merge_streams
from repro.workloads import (
    AttackInjector,
    NetflowConfig,
    NetflowGenerator,
    NewsStreamConfig,
    NewsStreamGenerator,
)


def random_multirelational_stream(edge_count, seed, vertex_pool=12):
    """A random multi-relational stream over a small vertex pool (dense enough to form matches)."""
    rng = random.Random(seed)
    labels = [("Article", "mentions", "Keyword"), ("Article", "locatedIn", "Location"),
              ("Article", "cites", "Person")]
    records = []
    timestamp = 0.0
    for _ in range(edge_count):
        timestamp += rng.random() * 2.0
        source_label, edge_label, target_label = rng.choice(labels)
        source = f"{source_label[:3].lower()}{rng.randrange(vertex_pool)}"
        target = f"{target_label[:3].lower()}{rng.randrange(max(2, vertex_pool // 3))}"
        records.append(StreamEdge(source, target, edge_label, timestamp,
                                  source_label=source_label, target_label=target_label))
    return EdgeStream(records, name=f"random{seed}")


class TestEngineAgainstOracle:
    """The cumulative incremental output must equal a full search over the final graph
    when the window never expires anything."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_streams_unbounded_window(self, seed):
        query = common_topic_location_query(2)
        stream = random_multirelational_stream(150, seed)
        engine = StreamWorksEngine()
        engine.register_query(query, name="q")
        events = engine.process_stream(stream)

        oracle = SubgraphMatcher(engine.graph).find_all(query)
        assert {event.match.identity() for event in events} == {m.identity() for m in oracle}

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_random_streams_all_engines_agree(self, seed):
        query = common_topic_location_query(2)
        stream = random_multirelational_stream(120, seed)
        window = 40.0

        # portable identities: edge ids are store-local, and the engine keeps
        # the records no query edge binds out of its store
        engine = StreamWorksEngine()
        engine.register_query(query, name="q", window=window)
        incremental = {
            event.match.portable_identity() for event in engine.process_stream(stream)
        }

        naive = NaiveIncrementalEngine(query, window=window)
        naive_ids = {match.portable_identity() for match in naive.process_stream(stream)}

        repeated = RepeatedSearchEngine(query, window=window)
        repeated_ids = {
            match.portable_identity()
            for match in repeated.process_stream(stream, batch_size=1)
        }

        assert incremental == naive_ids == repeated_ids

    def test_parsed_text_query_matches_builder_query(self):
        stream = random_multirelational_stream(150, seed=21)
        built = common_topic_location_query(2)
        parsed = parse_query(
            """
            MATCH (a1:Article)-[:mentions]->(k:Keyword),
                  (a1)-[:locatedIn]->(loc:Location),
                  (a2:Article)-[:mentions]->(k),
                  (a2)-[:locatedIn]->(loc)
            WITHIN 60
            """,
            name="parsed_pair",
        )
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(built, name="built", window=60.0)
        engine.register_query(parsed.graph, name="parsed", window=parsed.window)
        engine.process_stream(stream)
        counts = engine.match_counts()
        assert counts["built"] == counts["parsed"]


class TestStatisticsDrivenPipeline:
    def test_plan_from_streaming_statistics_and_run(self):
        generator = NetflowGenerator(NetflowConfig(host_count=80, subnet_count=4, seed=17))
        background = generator.stream(800)
        injector = AttackInjector(generator, seed=18)
        attack = injector.smurf_ddos(generator.duration_for(800) * 0.6, reflector_count=5)
        stream = merge_streams(background, attack)

        # phase 1: collect statistics on a prefix
        graph = DynamicGraph(TimeWindow(None))
        summarizer = StreamSummarizer(graph, track_triads=True)
        prefix = list(stream)[: len(stream) // 4]
        for record in prefix:
            graph.ingest(record.source, record.target, record.label, record.timestamp,
                         record.attrs, source_label=record.source_label,
                         target_label=record.target_label)

        # phase 2: plan with those statistics
        query = smurf_ddos_query(3)
        planner = QueryPlanner(summarizer.summary(), PlannerConfig(strategy=Strategy.SELECTIVITY))
        plan = planner.plan(query)
        # the icmp-labelled primitives must be ranked as rarer than any
        # hypothetical connectsTo pairing: the first primitive's estimate is small
        first_primitive_estimate = plan.estimates[plan.decomposition.primitives[0].name]
        assert first_primitive_estimate < 10.0

        # phase 3: run the full stream with the plan and detect the attack
        run_graph = DynamicGraph(TimeWindow(10.0))
        matcher = ContinuousQueryMatcher(query, plan.decomposition, run_graph, TimeWindow(10.0),
                                         dedupe_structural=True)
        found = []
        for record in stream:
            edge = run_graph.ingest(record.source, record.target, record.label, record.timestamp,
                                    record.attrs, source_label=record.source_label,
                                    target_label=record.target_label)
            found.extend(matcher.process_edge(edge))
        assert found

    def test_engine_statistics_feed_later_registrations(self):
        generator = NewsStreamGenerator(NewsStreamConfig(seed=9))
        stream, _ = generator.stream_with_bursts(60, [("politics", "paris", 50.0)])
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        records = list(stream)
        half = len(records) // 2
        engine.process_stream(records[:half])
        # register after warm-up: the planner now has statistics
        registration = engine.register_query(common_topic_location_query(3), name="late", window=60.0)
        # every stored prefix record: with no query registered, only the
        # records carrying vertex attributes are stored, the rest are cold
        cold = engine.metrics()["ingest_paths"]["cold"]
        assert 0 < registration.plan.summary_edge_count == half - cold
        engine.process_stream(records[half:])
        assert engine.edges_processed == len(records)


class TestWindowEdgeCases:
    def test_graph_retention_does_not_lose_query_matches(self):
        """Retention window == query window: matches spanning nearly the whole
        window must still be found."""
        query = common_topic_location_query(2)
        window = 20.0
        records = [
            StreamEdge("a1", "k", "mentions", 0.0, source_label="Article", target_label="Keyword"),
            StreamEdge("a1", "loc", "locatedIn", 5.0, source_label="Article", target_label="Location"),
            StreamEdge("a2", "k", "mentions", 10.0, source_label="Article", target_label="Keyword"),
            StreamEdge("a2", "loc", "locatedIn", 19.0, source_label="Article", target_label="Location"),
        ]
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(query, name="q", window=window)
        events = engine.process_stream(records)
        assert len(events) == 1
        assert events[0].span == pytest.approx(19.0)

    def test_pattern_straddling_window_boundary_not_reported(self):
        query = common_topic_location_query(2)
        records = [
            StreamEdge("a1", "k", "mentions", 0.0, source_label="Article", target_label="Keyword"),
            StreamEdge("a1", "loc", "locatedIn", 1.0, source_label="Article", target_label="Location"),
            StreamEdge("a2", "k", "mentions", 30.0, source_label="Article", target_label="Keyword"),
            StreamEdge("a2", "loc", "locatedIn", 31.0, source_label="Article", target_label="Location"),
        ]
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(query, name="q", window=20.0)
        assert engine.process_stream(records) == []

    def test_out_of_window_partials_do_not_leak_memory(self):
        query = common_topic_location_query(2)
        engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
        engine.register_query(query, name="q", window=5.0)
        records = []
        for index in range(200):
            timestamp = index * 10.0  # every article far outside the previous window
            records.append(StreamEdge(f"a{index}", "k", "mentions", timestamp,
                                      source_label="Article", target_label="Keyword"))
            records.append(StreamEdge(f"a{index}", "loc", "locatedIn", timestamp + 1.0,
                                      source_label="Article", target_label="Location"))
        engine.process_stream(records)
        stored = engine.queries["q"].matcher.stored_partial_matches()
        assert stored < 20  # only the most recent article's partials survive
