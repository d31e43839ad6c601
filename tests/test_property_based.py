"""Property-based tests (hypothesis) for the core data structures and invariants.

These encode the correctness contracts that the whole system rests on:

* window admission / expiry algebra,
* match merge symmetry and injectivity preservation,
* SJ-Tree structural properties for arbitrary edge-disjoint decompositions,
* the central theorem of the paper: the incremental engine reports exactly
  the matches a from-scratch search over the final graph would report (when
  nothing expires), for randomly generated streams and queries.
"""

from __future__ import annotations

import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ContinuousQueryMatcher,
    EngineConfig,
    ShardConfig,
    ShardedStreamEngine,
    Strategy,
    StreamWorksEngine,
    decompose,
)
from repro.core.sjtree import SJTree
from repro.graph import DynamicGraph, PropertyGraph, TimeWindow
from repro.graph.types import Edge
from repro.graph.window import ExpiryQueue
from repro.isomorphism import Match, SubgraphMatcher
from repro.query import QueryBuilder, QueryGraph
from repro.queries.news import common_topic_location_query
from repro.stats import GraphSummary, SelectivityEstimator
from repro.streaming import StreamEdge

SUPPRESS = [HealthCheck.too_slow]


# ----------------------------------------------------------------------
# TimeWindow / ExpiryQueue
# ----------------------------------------------------------------------
class TestWindowProperties:
    @given(duration=st.floats(min_value=0.1, max_value=1e6),
           span=st.floats(min_value=0.0, max_value=1e7))
    @settings(max_examples=60, suppress_health_check=SUPPRESS)
    def test_strict_window_admission_matches_definition(self, duration, span):
        window = TimeWindow(duration, strict=True)
        assert window.admits_span(span) == (span < duration)

    @given(duration=st.floats(min_value=0.1, max_value=1e6),
           timestamp=st.floats(min_value=0.0, max_value=1e6),
           delta=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=60, suppress_health_check=SUPPRESS)
    def test_expired_items_can_never_join_admissible_matches(self, duration, timestamp, delta):
        window = TimeWindow(duration)
        now = timestamp + delta
        if window.is_expired(timestamp, now):
            assert not window.admits_interval(timestamp, now)

    @given(items=st.lists(st.tuples(st.floats(min_value=0, max_value=1000), st.integers()), max_size=50),
           threshold=st.floats(min_value=0, max_value=1000))
    @settings(max_examples=60, suppress_health_check=SUPPRESS)
    def test_expiry_queue_pops_exactly_items_at_or_below_threshold(self, items, threshold):
        queue = ExpiryQueue()
        queue.push_all(items)
        popped = queue.pop_expired(threshold)
        assert len(popped) == sum(1 for timestamp, _ in items if timestamp <= threshold)
        remaining = queue.pop_expired(float("inf"))
        assert len(popped) + len(remaining) == len(items)


# ----------------------------------------------------------------------
# Match algebra
# ----------------------------------------------------------------------
def match_strategy(label="r"):
    """Generate small random matches over a tiny vertex/edge id universe."""

    @st.composite
    def build(draw):
        pairs = draw(st.dictionaries(
            st.sampled_from(["q0", "q1", "q2", "q3"]),
            st.sampled_from(["d0", "d1", "d2", "d3", "d4"]),
            max_size=4,
        ))
        # enforce injectivity in the generator (constructor does not check plain dicts)
        if len(set(pairs.values())) != len(pairs):
            return None
        edge_map = {}
        for index, query_vertex in enumerate(sorted(pairs)):
            edge_id = draw(st.integers(min_value=0, max_value=6))
            timestamp = draw(st.floats(min_value=0, max_value=100))
            edge_map[index] = Edge(edge_id, pairs[query_vertex], "sink", label, timestamp)
        return Match(pairs, edge_map)

    return build().filter(lambda match: match is not None)


class TestMatchProperties:
    @given(left=match_strategy(), right=match_strategy())
    @settings(max_examples=80, suppress_health_check=SUPPRESS)
    def test_compatibility_is_symmetric(self, left, right):
        assert left.is_compatible(right) == right.is_compatible(left)

    @given(left=match_strategy(), right=match_strategy())
    @settings(max_examples=80, suppress_health_check=SUPPRESS)
    def test_merge_is_commutative_and_preserves_bindings(self, left, right):
        if not left.is_compatible(right):
            return
        merged = left.merge(right)
        assert merged == right.merge(left)
        for query_vertex, data_vertex in left.vertex_map.items():
            assert merged.vertex_map[query_vertex] == data_vertex
        for query_vertex, data_vertex in right.vertex_map.items():
            assert merged.vertex_map[query_vertex] == data_vertex
        assert merged.is_injective()
        assert merged.earliest <= merged.latest or not merged.edge_map

    @given(match=match_strategy())
    @settings(max_examples=40, suppress_health_check=SUPPRESS)
    def test_merge_with_self_is_identity(self, match):
        assert match.is_compatible(match)
        assert match.merge(match) == match

    @given(match=match_strategy())
    @settings(max_examples=40, suppress_health_check=SUPPRESS)
    def test_span_is_non_negative_and_consistent(self, match):
        assert match.span >= 0.0
        if match.edge_map:
            timestamps = [edge.timestamp for edge in match.edge_map.values()]
            assert match.span == pytest.approx(max(timestamps) - min(timestamps))


# ----------------------------------------------------------------------
# SJ-Tree structural invariants over random decompositions
# ----------------------------------------------------------------------
class TestSJTreeProperties:
    @given(chunk_seed=st.integers(min_value=0, max_value=10_000),
           article_count=st.integers(min_value=2, max_value=4),
           shape=st.sampled_from([SJTree.LEFT_DEEP, SJTree.BALANCED]))
    @settings(max_examples=60, suppress_health_check=SUPPRESS)
    def test_random_edge_partitions_satisfy_invariants(self, chunk_seed, article_count, shape):
        query = common_topic_location_query(article_count)
        rng = random.Random(chunk_seed)
        edge_ids = sorted(query.edge_ids())
        rng.shuffle(edge_ids)
        primitives = []
        index = 0
        while index < len(edge_ids):
            size = rng.choice([1, 2])
            primitives.append(query.edge_subgraph(edge_ids[index:index + size]))
            index += size
        tree = SJTree(query, primitives, shape=shape)
        tree.validate()
        assert len(tree.leaves()) == len(primitives)
        assert tree.root.subgraph.same_structure(query)
        # every node's key vertices are a subset of its subgraph's vertices
        for node in tree.nodes.values():
            assert set(node.key_vertices) <= node.subgraph.vertex_names()


# ----------------------------------------------------------------------
# Selectivity estimator sanity
# ----------------------------------------------------------------------
class TestEstimatorProperties:
    @given(mentions=st.integers(min_value=0, max_value=200),
           located=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, suppress_health_check=SUPPRESS)
    def test_estimates_are_monotone_in_signature_counts(self, mentions, located):
        def summary_with(mention_count):
            graph = PropertyGraph()
            graph.add_vertex("k", "Keyword")
            graph.add_vertex("loc", "Location")
            for index in range(mention_count):
                graph.add_vertex(f"a{index}", "Article")
                graph.add_edge(f"a{index}", "k", "mentions", float(index))
            for index in range(located):
                vertex = f"a{index}" if graph.has_vertex(f"a{index}") else None
                if vertex is None:
                    graph.add_vertex(f"a{index}", "Article")
                graph.add_edge(f"a{index}", "loc", "locatedIn", float(index))
            return GraphSummary.from_graph(graph, with_triads=False)

        query = common_topic_location_query(2)
        edge = next(e for e in query.edges() if e.label == "mentions")
        low = SelectivityEstimator(summary_with(mentions)).estimate_edge(query, edge)
        high = SelectivityEstimator(summary_with(mentions + 10)).estimate_edge(query, edge)
        assert high >= low


# ----------------------------------------------------------------------
# The central equivalence property: incremental == from-scratch search
# ----------------------------------------------------------------------
def random_stream_records(rng, edge_count):
    records = []
    timestamp = 0.0
    for _ in range(edge_count):
        timestamp += rng.random()
        article = f"art{rng.randrange(8)}"
        if rng.random() < 0.5:
            records.append((article, f"kw{rng.randrange(3)}", "mentions", timestamp, "Article", "Keyword"))
        else:
            records.append((article, f"loc{rng.randrange(2)}", "locatedIn", timestamp, "Article", "Location"))
    return records


class TestIncrementalEquivalenceProperty:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           strategy=st.sampled_from([Strategy.SELECTIVITY, Strategy.EDGE_BY_EDGE, Strategy.BALANCED_PAIRS]),
           article_count=st.integers(min_value=2, max_value=3))
    @settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS, derandomize=True)
    def test_incremental_equals_oracle_on_random_streams(self, seed, strategy, article_count):
        """The streaming matcher's matches equal a from-scratch static search.

        This is a compiled-vs-interpreted differential: the matcher runs its
        compiled predicate tables and lowered probes, while the
        ``SubgraphMatcher(graph)`` oracle interprets the predicate trees
        through the generic search.  Derandomized: the same 25 examples every
        run, so its cost (which swings with how many three-article draws
        hypothesis makes) is the same every run too.
        """
        rng = random.Random(seed)
        query = common_topic_location_query(article_count)
        graph = DynamicGraph(TimeWindow(None))
        matcher = ContinuousQueryMatcher(query, decompose(query, strategy), graph, TimeWindow(None))
        incremental = []
        for source, target, label, timestamp, source_label, target_label in random_stream_records(rng, 60):
            edge = graph.ingest(source, target, label, timestamp,
                                source_label=source_label, target_label=target_label)
            incremental.extend(matcher.process_edge(edge))
        oracle = SubgraphMatcher(graph).find_all(query)
        assert {m.identity() for m in incremental} == {m.identity() for m in oracle}
        # no duplicates ever reported
        assert len(incremental) == len({m.identity() for m in incremental})

    @given(seed=st.integers(min_value=0, max_value=10_000),
           window=st.floats(min_value=2.0, max_value=30.0))
    @settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
    def test_windowed_incremental_spans_always_admissible(self, seed, window):
        rng = random.Random(seed)
        query = common_topic_location_query(2)
        graph = DynamicGraph(TimeWindow(window))
        matcher = ContinuousQueryMatcher(query, decompose(query, Strategy.SELECTIVITY),
                                         graph, TimeWindow(window))
        reported = []
        for source, target, label, timestamp, source_label, target_label in random_stream_records(rng, 80):
            edge = graph.ingest(source, target, label, timestamp,
                                source_label=source_label, target_label=target_label)
            reported.extend(matcher.process_edge(edge))
        assert all(match.span < window for match in reported)


# ----------------------------------------------------------------------
# Sharded engine: batching is transparent under arbitrary batch splits
# ----------------------------------------------------------------------
def sharded_chain_query(name, labels):
    query = QueryGraph(name)
    for position in range(len(labels) + 1):
        query.add_vertex(f"v{position}")
    for position, label in enumerate(labels):
        query.add_edge(f"v{position}", f"v{position + 1}", label)
    return query


def sharded_stream_records(rng, edge_count, out_of_order):
    """Random multi-label records; optionally with local timestamp jitter."""
    records = []
    timestamp = 0.0
    for _ in range(edge_count):
        timestamp += rng.random() * 0.2
        stamp = timestamp
        if out_of_order and rng.random() < 0.3:
            stamp = max(0.0, timestamp - rng.random())
        label = rng.choice(["rel_a", "rel_b", "rel_c"])
        records.append(
            StreamEdge(f"n{rng.randrange(10)}", f"n{rng.randrange(10)}", label, stamp)
        )
    return records


def random_splits(rng, total):
    """Split ``range(total)`` into contiguous chunks of random sizes."""
    boundaries = []
    position = 0
    while position < total:
        size = rng.randint(1, 12)
        boundaries.append((position, min(total, position + size)))
        position += size
    return boundaries


class TestShardedBatchSplitEquivalence:
    """`process_batch` over any split == `process_record` one at a time.

    This pins the sharded engine's batching transparency, including
    internally out-of-order batches (split at their inversion points onto
    the batched fast path, run by run) and the cross-shard event merge:
    the batched run must reproduce the per-record run's match multiset,
    and the sharded run must reproduce the single engine byte for byte.
    """

    @staticmethod
    def build_engine(shard_count):
        engine = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=shard_count,
                engine=EngineConfig(collect_statistics=False),
            )
        )
        engine.register_query(sharded_chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=2.0)
        engine.register_query(sharded_chain_query("bc", ["rel_b", "rel_c"]), name="bc", window=1.0)
        engine.register_query(sharded_chain_query("ca", ["rel_c", "rel_a"]), name="ca", window=3.0)
        return engine

    @staticmethod
    def canonical(events):
        return [
            (event.query_name, event.match.portable_identity(), event.detected_at, event.sequence)
            for event in events
        ]

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shard_count=st.sampled_from([1, 2, 3]),
           out_of_order=st.booleans())
    @settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
    def test_random_batch_splits_equal_per_record(self, seed, shard_count, out_of_order):
        rng = random.Random(seed)
        records = sharded_stream_records(rng, 60, out_of_order)
        splits = random_splits(rng, len(records))

        per_record_engine = self.build_engine(shard_count)
        per_record_events = []
        for record in records:
            per_record_events.extend(per_record_engine.process_record(record))

        batched_engine = self.build_engine(shard_count)
        batched_events = []
        for start, end in splits:
            batched_events.extend(batched_engine.process_batch(records[start:end]))

        # batching may detect a match earlier (on an earlier in-batch edge),
        # so compare the reported match multisets per query plus the global
        # ordering invariants rather than raw detection metadata
        batched_multiset = {}
        for event in batched_events:
            key = (event.query_name, event.match.portable_identity())
            batched_multiset[key] = batched_multiset.get(key, 0) + 1
        per_record_multiset = {}
        for event in per_record_events:
            key = (event.query_name, event.match.portable_identity())
            per_record_multiset[key] = per_record_multiset.get(key, 0) + 1
        assert batched_multiset == per_record_multiset
        assert [event.sequence for event in batched_events] == list(range(len(batched_events)))
        assert batched_engine.match_counts() == per_record_engine.match_counts()

    @staticmethod
    def build_single_engine():
        engine = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        engine.register_query(sharded_chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=2.0)
        engine.register_query(sharded_chain_query("bc", ["rel_b", "rel_c"]), name="bc", window=1.0)
        engine.register_query(sharded_chain_query("ca", ["rel_c", "rel_a"]), name="ca", window=3.0)
        return engine

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shard_count=st.sampled_from([1, 2, 3]))
    @settings(max_examples=15, deadline=None, suppress_health_check=SUPPRESS)
    def test_out_of_order_batches_keep_batched_path_and_conform(self, seed, shard_count):
        # an internally out-of-order batch is split at its inversion points
        # and the ordered runs keep the batched fast path (it no longer
        # demotes to the per-record loop).  The contract is compositional:
        # processing the disordered batch is event-for-event identical to
        # feeding each maximal ordered run as its own batch -- and the
        # sharded run stays byte-identical to the single engine.
        from repro.streaming import ordered_run_slices

        rng = random.Random(seed)
        records = sharded_stream_records(rng, 50, out_of_order=True)
        # force disorder by prepending a late record (guarantees >= 2 runs)
        records.insert(0, StreamEdge("n0", "n1", "rel_a", 100.0))
        runs = ordered_run_slices(records)
        assert len(runs) >= 2

        single = self.build_single_engine()
        single_events = list(single.process_batch(records))
        # the disordered batch ran as its ordered runs, not record by record
        assert single.records_batched == len(records)
        assert single.batches_vectorized == len(runs)

        run_fed = self.build_single_engine()
        run_fed_events = []
        for start, end in runs:
            run_fed_events.extend(run_fed.process_batch(records[start:end]))
        assert self.canonical(single_events) == self.canonical(run_fed_events)

        batched_engine = self.build_engine(shard_count)
        batched_events = list(batched_engine.process_batch(records))
        assert self.canonical(batched_events) == self.canonical(single_events)


# ----------------------------------------------------------------------
# Checkpoint/restore: resume at ANY point equals the uninterrupted run
# ----------------------------------------------------------------------
#: Small-universe records so hypothesis shrinks towards a minimal failing
#: stream (few vertices, few labels, coarse timestamps) instead of a seed.
checkpoint_record = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["rel_a", "rel_b", "rel_c"]),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False),
)


def _records_from_rows(rows):
    return [
        StreamEdge(f"n{source}", f"n{target}", label, timestamp)
        for source, target, label, timestamp in rows
    ]


class TestCheckpointRecoveryProperty:
    """restore(checkpoint(E)) + remaining stream == uninterrupted run, for
    random streams (arbitrary disorder, including dead-on-arrival records),
    a random checkpoint index and a random ``allowed_lateness``.  Streams
    are drawn directly from strategies so a failure shrinks to a *minimal*
    failing stream, not an opaque RNG seed."""

    @staticmethod
    def build_single(lateness):
        engine = StreamWorksEngine(
            config=EngineConfig(allowed_lateness=lateness)
        )
        engine.register_query(sharded_chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=2.0)
        engine.register_query(sharded_chain_query("bc", ["rel_b", "rel_c"]), name="bc", window=1.0)
        return engine

    @staticmethod
    def canonical(events):
        return [
            (
                event.query_name,
                event.match.portable_identity(),
                event.detected_at,
                event.sequence,
                event.trigger_index,
            )
            for event in events
        ]

    def _crash_and_resume(self, engine_cls, build, records, cut):
        """Feed ``records[:cut]``, checkpoint, restore a fresh engine, feed the rest."""
        oracle = build()
        for record in records:
            oracle.process_record(record)
        oracle.flush()

        crashed = build()
        for record in records[:cut]:
            crashed.process_record(record)
        handle, path = tempfile.mkstemp(suffix=".snap")
        os.close(handle)
        try:
            crashed.checkpoint(path)
            resumed = engine_cls.restore(path)
        finally:
            os.unlink(path)
        for record in records[cut:]:
            resumed.process_record(record)
        resumed.flush()
        return oracle, resumed

    @given(
        rows=st.lists(checkpoint_record, min_size=1, max_size=40),
        checkpoint_index=st.integers(min_value=0, max_value=1_000),
        lateness=st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
        ),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS)
    def test_resumed_single_engine_equals_oracle(self, rows, checkpoint_index, lateness):
        records = _records_from_rows(rows)
        cut = checkpoint_index % (len(records) + 1)
        oracle, resumed = self._crash_and_resume(
            StreamWorksEngine, lambda: self.build_single(lateness), records, cut
        )
        assert self.canonical(resumed.events()) == self.canonical(oracle.events())
        assert resumed.match_counts() == oracle.match_counts()
        assert resumed.edges_processed == oracle.edges_processed
        assert (
            resumed.metrics()["ingest_paths"] == oracle.metrics()["ingest_paths"]
        )

    @given(
        rows=st.lists(checkpoint_record, min_size=1, max_size=30),
        checkpoint_index=st.integers(min_value=0, max_value=1_000),
        lateness=st.one_of(st.none(), st.floats(min_value=0.0, max_value=5.0, allow_nan=False)),
        shard_count=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=12, deadline=None, suppress_health_check=SUPPRESS)
    def test_resumed_sharded_engine_equals_oracle(
        self, rows, checkpoint_index, lateness, shard_count
    ):
        records = _records_from_rows(rows)
        cut = checkpoint_index % (len(records) + 1)

        def build():
            engine = ShardedStreamEngine(
                config=ShardConfig(
                    shard_count=shard_count,
                    engine=EngineConfig(allowed_lateness=lateness),
                )
            )
            engine.register_query(
                sharded_chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=2.0
            )
            engine.register_query(
                sharded_chain_query("bc", ["rel_b", "rel_c"]), name="bc", window=1.0
            )
            return engine

        oracle, resumed = self._crash_and_resume(ShardedStreamEngine, build, records, cut)
        assert self.canonical(resumed.events()) == self.canonical(oracle.events())
        assert resumed.match_counts() == oracle.match_counts()


# ----------------------------------------------------------------------
# Statistics: the summary == a recount over the window store, whatever
# path the records took
# ----------------------------------------------------------------------
class TestWindowStatisticsProperty:
    """After any stream shape -- per-record and batched feeds mixed, arbitrary
    disorder (run splits, dead-on-arrival records), event-time reordering
    with dropped or ``process_degraded`` late records, a checkpoint/restore
    in the middle, one engine or two shards -- every window store's summary
    equals a from-scratch recount over it, and a resumed engine's
    statistics serialise exactly like the uninterrupted run's."""

    @staticmethod
    def build(shard_count, lateness, degraded):
        config = EngineConfig(
            allowed_lateness=lateness,
            late_policy="process_degraded" if degraded and lateness is not None else "drop",
        )
        if shard_count is None:
            engine = StreamWorksEngine(config=config)
        else:
            engine = ShardedStreamEngine(
                config=ShardConfig(shard_count=shard_count, engine=config)
            )
        engine.register_query(sharded_chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=2.0)
        engine.register_query(sharded_chain_query("bc", ["rel_b", "rel_c"]), name="bc", window=1.0)
        return engine

    @staticmethod
    def feed(engine, records, splits):
        for start, end in splits:
            if end - start == 1:
                engine.process_record(records[start])
            else:
                engine.process_batch(records[start:end])

    @given(
        rows=st.lists(checkpoint_record, min_size=1, max_size=40),
        split_seed=st.integers(min_value=0, max_value=10_000),
        checkpoint_index=st.integers(min_value=0, max_value=1_000),
        lateness=st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
        degraded=st.booleans(),
        shard_count=st.sampled_from([None, 2]),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
    def test_statistics_describe_the_window_after_any_stream_shape(
        self, rows, split_seed, checkpoint_index, lateness, degraded, shard_count
    ):
        from differential import assert_statistics_describe_the_window

        # vertex type by id parity, so wedges differ in their leaf labels too
        records = [
            StreamEdge(f"n{source}", f"n{target}", label, timestamp,
                       source_label=f"T{source % 2}", target_label=f"T{target % 2}")
            for source, target, label, timestamp in rows
        ]
        splits = random_splits(random.Random(split_seed), len(records))
        cut = checkpoint_index % (len(splits) + 1)

        oracle = self.build(shard_count, lateness, degraded)
        self.feed(oracle, records, splits)
        oracle.flush()
        assert_statistics_describe_the_window(oracle, "uninterrupted")

        crashed = self.build(shard_count, lateness, degraded)
        self.feed(crashed, records, splits[:cut])
        handle, path = tempfile.mkstemp(suffix=".snap")
        os.close(handle)
        try:
            crashed.checkpoint(path)
            resumed = type(crashed).restore(path)
        finally:
            os.unlink(path)
        assert_statistics_describe_the_window(resumed, "just restored")
        self.feed(resumed, records, splits[cut:])
        resumed.flush()
        assert_statistics_describe_the_window(resumed, "resumed")
        for ran, kept in zip(
            getattr(resumed, "shards", None) or [resumed],
            getattr(oracle, "shards", None) or [oracle],
        ):
            assert ran.summarizer.state_dict() == kept.summarizer.state_dict()
