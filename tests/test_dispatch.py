"""Tests for the cross-query dispatch index and the batched ingest fast path."""

import random

import pytest
from differential import ExhaustiveReferenceEngine, ProbedReferenceEngine

from repro.core import DispatchIndex, EngineConfig, StreamWorksEngine
from repro.core.dispatch import LeafDispatchEntry
from repro.core.matcher import ContinuousQueryMatcher
from repro.query.query_graph import QueryGraph
from repro.streaming import StreamEdge
from repro.workloads import RmatConfig, RmatGenerator


def chain_query(name, labels, vertex_labels=None):
    """Build a path query binding the given edge labels in sequence."""
    query = QueryGraph(name)
    vertex_labels = vertex_labels or {}
    for position in range(len(labels) + 1):
        query.add_vertex(f"v{position}", vertex_labels.get(position))
    for position, label in enumerate(labels):
        query.add_edge(f"v{position}", f"v{position + 1}", label)
    return query


class FakeLeaf:
    def __init__(self, leaf_id, subgraph):
        self.id = leaf_id
        self.subgraph = subgraph


def single_edge_leaf(leaf_id, label, source_label=None, target_label=None, directed=True):
    query = QueryGraph(f"leaf{leaf_id}")
    query.add_vertex("a", source_label)
    query.add_vertex("b", target_label)
    query.add_edge("a", "b", label, directed=directed)
    return FakeLeaf(leaf_id, query)


class TestDispatchIndex:
    def test_label_routing(self):
        index = DispatchIndex()
        index.register("q1", [single_edge_leaf(0, "mentions")])
        index.register("q2", [single_edge_leaf(0, "locatedIn")])
        assert index.candidates("mentions") == [("q1", [0])]
        assert index.candidates("locatedIn") == [("q2", [0])]
        assert index.candidates("connectsTo") == []

    def test_wildcard_label_always_considered(self):
        index = DispatchIndex()
        index.register("any", [single_edge_leaf(0, None)])
        index.register("typed", [single_edge_leaf(0, "mentions")])
        assert index.candidates("mentions") == [("any", [0]), ("typed", [0])]
        assert index.candidates("whatever") == [("any", [0])]

    def test_vertex_label_guard_directed(self):
        index = DispatchIndex()
        index.register("q", [single_edge_leaf(0, "link", "Host", "Server")])
        assert index.candidates("link", "Host", "Server") == [("q", [0])]
        assert index.candidates("link", "Server", "Host") == []
        # unknown endpoint labels skip the guard rather than reject
        assert index.candidates("link", None, None) == [("q", [0])]

    def test_vertex_label_guard_undirected_admits_both_orientations(self):
        index = DispatchIndex()
        index.register("q", [single_edge_leaf(0, "link", "Host", "Server", directed=False)])
        assert index.candidates("link", "Host", "Server") == [("q", [0])]
        assert index.candidates("link", "Server", "Host") == [("q", [0])]
        assert index.candidates("link", "Server", "Server") == []

    def test_candidates_preserve_registration_and_leaf_order(self):
        index = DispatchIndex()
        index.register("b_first", [single_edge_leaf(3, "x"), single_edge_leaf(7, "x")])
        index.register("a_second", [single_edge_leaf(1, "x")])
        assert index.candidates("x") == [("b_first", [3, 7]), ("a_second", [1])]

    def test_unregister_removes_entries(self):
        index = DispatchIndex()
        index.register("q1", [single_edge_leaf(0, "x"), single_edge_leaf(1, None)])
        index.register("q2", [single_edge_leaf(0, "x")])
        index.unregister("q1")
        assert index.candidates("x") == [("q2", [0])]
        assert index.candidates("other") == []
        assert index.registered_owners() == ["q2"]
        index.unregister("ghost")  # no-op

    def test_reregister_replaces_entries(self):
        index = DispatchIndex()
        index.register("q", [single_edge_leaf(0, "old")])
        index.register("q", [single_edge_leaf(5, "new")])
        assert index.candidates("old") == []
        assert index.candidates("new") == [("q", [5])]
        assert index.entry_count() == 1

    def test_multi_edge_leaf_indexed_under_every_label(self):
        index = DispatchIndex()
        index.register("q", [FakeLeaf(0, chain_query("c", ["a_lbl", "b_lbl"]))])
        assert index.candidates("a_lbl") == [("q", [0])]
        assert index.candidates("b_lbl") == [("q", [0])]

    def test_front_rejects_exactly_the_labels_nothing_binds(self):
        index = DispatchIndex()
        index.register("q", [single_edge_leaf(0, "x")])
        assert not index.front_rejects("x")
        assert index.front_rejects("y")
        # a rejection counts the lookup the candidates probe would have
        assert index.lookups == 1
        index.register("any", [single_edge_leaf(0, None)])
        assert not index.front_rejects("y")  # a wildcard binds every label
        index.unregister("any")
        assert index.front_rejects("y")


def rmat_records(count, seed=29):
    generator = RmatGenerator(RmatConfig(seed=seed, scale=6))
    return list(generator.stream(count))


def engine_with_queries(engine_cls=StreamWorksEngine):
    engine = engine_cls(config=EngineConfig(collect_statistics=False))
    engine.register_query(
        chain_query("ab_chain", ["rel_a", "rel_b", "rel_a", "rel_b"]), name="ab", window=0.5
    )
    engine.register_query(
        chain_query("cc", ["rel_c", "rel_c"], vertex_labels={0: "TypeA"}), name="cc", window=0.5
    )
    engine.register_query(
        chain_query("wild", [None, "rel_a"]), name="wild", window=0.3
    )
    engine.register_query(
        chain_query("never", ["no_such_label", "no_such_label"]), name="never", window=0.5
    )
    return engine


def indexed_and_exhaustive_events(records):
    """Per-record events of the real engine and of the exhaustive reference."""
    keyed = []
    for engine_cls in (StreamWorksEngine, ExhaustiveReferenceEngine):
        engine = engine_with_queries(engine_cls)
        for record in records:
            engine.process_record(record)
        keyed.append([(e.query_name, e.match.identity()) for e in engine.collector.events])
    return keyed


class TestDispatchEquivalence:
    def test_indexed_events_equal_exhaustive_reference_on_rmat_stream(self):
        indexed, exhaustive = indexed_and_exhaustive_events(rmat_records(400))
        assert indexed == exhaustive
        assert len(indexed) > 0  # the stream must actually exercise the queries
        assert {name for name, _ in indexed} >= {"ab", "wild"}

    def test_a_guard_that_rejects_an_admissible_edge_is_caught(self, monkeypatch):
        """Mutation: an index that forgets wildcard query edges must diverge.

        The mutant ``admits`` ignores every guard whose query edge has no
        label, so a record reaches the ``wild`` leaf only through its
        labelled ``rel_a`` edge -- matches completed by the wildcard edge are
        lost, and the differential against the exhaustive reference sees it.
        """
        original = LeafDispatchEntry.admits

        def labelled_guards_only(self, edge_label, source_label, target_label):
            guards = self.guards
            self.guards = tuple(guard for guard in guards if guard[0] is not None)
            try:
                return original(self, edge_label, source_label, target_label)
            finally:
                self.guards = guards

        monkeypatch.setattr(LeafDispatchEntry, "admits", labelled_guards_only)
        indexed, exhaustive = indexed_and_exhaustive_events(rmat_records(400))
        assert indexed != exhaustive

    def test_batched_ingest_matches_single_edge_ingest(self):
        records = rmat_records(400, seed=31)
        single = engine_with_queries()
        batched = engine_with_queries()
        for record in records:
            single.process_record(record)
        for start in range(0, len(records), 64):
            batched.process_batch(records[start : start + 64])
        keyed_single = {(e.query_name, e.match.identity()) for e in single.collector.events}
        keyed_batched = {(e.query_name, e.match.identity()) for e in batched.collector.events}
        assert keyed_single == keyed_batched
        assert len(keyed_single) > 0
        assert batched.edges_processed == len(records)
        # the deferred eviction sweep must still have closed the batch
        assert batched.graph.window.bounded
        assert batched.graph.edge_count() <= single.graph.edge_count() + 1

    def test_unmatchable_label_skips_label_bound_matchers(self):
        engine = engine_with_queries()
        engine.process_edge("a", "b", "unknown_label", 1.0)
        # only the query with a wildcard edge label can bind the edge; every
        # label-bound matcher is skipped entirely
        for name, registration in engine.queries.items():
            expected = 1 if name == "wild" else 0
            assert registration.matcher.stats.edges_processed == expected
        assert engine.edges_processed == 1

    def test_dispatch_stats_exposed_in_metrics(self):
        engine = engine_with_queries()
        engine.process_edge("a", "b", "rel_a", 1.0, source_label="TypeA", target_label="TypeB")
        stats = engine.metrics()["dispatch"]
        assert stats["indexed_queries"] == 4
        assert stats["lookups"] == 1
        assert stats["entries_matched"] >= 1

    def test_out_of_order_batch_falls_back_to_per_record_semantics(self):
        # regression: an internally out-of-order batch used to let a late
        # edge match history the per-edge path had already evicted
        from repro.streaming import StreamEdge

        records = [
            StreamEdge("a", "b", "p", 0.0),
            StreamEdge("m", "n", "zz", 100.0),
            StreamEdge("b", "c", "q", 5.0),
        ]
        single = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        single.register_query(chain_query("pq", ["p", "q"]), name="pq", window=10.0)
        batched = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        batched.register_query(chain_query("pq", ["p", "q"]), name="pq", window=10.0)
        single_events = []
        for record in records:
            single_events.extend(single.process_record(record))
        batched_events = batched.process_batch(records)
        assert single_events == []
        assert batched_events == []

    def test_replan_preserves_event_order_between_paths(self):
        # regression: re-planning used to move the query to the end of the
        # dispatch order, diverging from the every-leaf loop's dict order
        def build(engine_cls):
            engine = engine_cls(config=EngineConfig(collect_statistics=False))
            engine.register_query(chain_query("first", ["rel"]), name="A", window=10.0)
            engine.register_query(chain_query("second", ["rel"]), name="B", window=10.0)
            engine.replan_query("A")
            return engine

        indexed, exhaustive = build(StreamWorksEngine), build(ExhaustiveReferenceEngine)
        indexed.process_edge("x", "y", "rel", 1.0)
        exhaustive.process_edge("x", "y", "rel", 1.0)
        order_indexed = [(e.sequence, e.query_name) for e in indexed.collector.events]
        order_exhaustive = [(e.sequence, e.query_name) for e in exhaustive.collector.events]
        assert order_indexed == order_exhaustive == [(0, "A"), (1, "B")]

    def test_replan_keeps_index_current(self):
        engine = StreamWorksEngine(config=EngineConfig(collect_statistics=True))
        engine.register_query(
            chain_query("ab_chain", ["rel_a", "rel_b", "rel_a", "rel_b"]), name="ab", window=5.0
        )
        for record in rmat_records(120, seed=37):
            engine.process_record(record)
        engine.replan_query("ab")
        new_leaf_ids = {leaf.id for leaf in engine.queries["ab"].matcher.tree.leaves()}
        for owner, leaf_ids in engine.dispatch.candidates("rel_a"):
            assert owner == "ab"
            assert set(leaf_ids) <= new_leaf_ids

    def test_unregister_removes_dispatch_entries(self):
        engine = engine_with_queries()
        engine.unregister_query("ab")
        assert all(owner != "ab" for owner, _ in engine.dispatch.candidates("rel_b"))


def labelled_engine(engine_cls=StreamWorksEngine):
    """``engine_with_queries`` without the wildcard query: the label gate can reject."""
    engine = engine_cls(config=EngineConfig(collect_statistics=False))
    engine.register_query(
        chain_query("ab_chain", ["rel_a", "rel_b", "rel_a", "rel_b"]), name="ab", window=0.5
    )
    engine.register_query(
        chain_query("cc", ["rel_c", "rel_c"], vertex_labels={0: "TypeA"}), name="cc", window=0.5
    )
    return engine


def rmat_with_unbound_labels(count=300):
    """The rmat stream with a record no query binds after every third record."""
    records = []
    for position, record in enumerate(rmat_records(count, seed=41)):
        records.append(record)
        if position % 3 == 0:
            records.append(StreamEdge(
                record.source, record.target, f"noise{position % 4}", record.timestamp
            ))
    return records


def replay(engine, records, batched):
    if batched:
        for start in range(0, len(records), 64):
            engine.process_batch(records[start : start + 64])
    else:
        for record in records:
            engine.process_record(record)


class TestLookupParity:
    """Every live record costs exactly one dispatch lookup, on every path.

    A record the label gate turns away counts the lookup the candidates
    probe would have; a record a cached route plan serves counts the
    lookup of the probe the plan replays.  ``dispatch.lookups`` therefore
    reads the same whichever path ran, and snapshots carry it unchanged.
    """

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "per_record"])
    def test_every_live_record_costs_one_dispatch_lookup(self, batched):
        records = rmat_with_unbound_labels()
        engine = labelled_engine()
        replay(engine, records, batched)
        assert engine.edges_processed == engine.dispatch.lookups == len(records)
        assert engine.match_counts()["ab"] + engine.match_counts()["cc"] > 0
        if batched:
            assert engine.records_prefiltered == sum(
                record.label.startswith("noise") for record in records
            )

    def test_plan_replay_equals_a_fresh_probe_per_record(self):
        """The counters route plans replay in bulk are those of an engine
        that probes the dispatch index afresh for every record."""
        records = rmat_with_unbound_labels()
        planned, probed = labelled_engine(), labelled_engine(ProbedReferenceEngine)
        for engine in (planned, probed):
            replay(engine, records, batched=True)
        assert planned.dispatch_memo_hits > 0 and probed.dispatch_memo_hits == 0
        assert planned.metrics()["dispatch"] == probed.metrics()["dispatch"]
        assert planned.metrics()["queries"] == probed.metrics()["queries"]
        # portable identities: edge ids are store-local, and the probed
        # engine stores the records the planned one keeps cold
        assert planned.events() and (
            [(e.query_name, e.match.portable_identity(), e.sequence) for e in planned.events()]
            == [(e.query_name, e.match.portable_identity(), e.sequence) for e in probed.events()]
        )

    def test_an_uncounted_rejection_is_caught(self, monkeypatch):
        """Mutation: a gate that rejects without its lookup tick breaks parity."""

        def uncounted(self, edge_label):
            return edge_label not in self._by_label and not self._wildcard

        monkeypatch.setattr(DispatchIndex, "front_rejects", uncounted)
        records = rmat_with_unbound_labels()
        engine = labelled_engine()
        replay(engine, records, batched=True)
        assert engine.dispatch.lookups < len(records)


def disjoint_chain_workload(query_count, record_count=300, seed=53):
    """``query_count`` two-edge chains over private labels; each record binds one."""
    queries = [chain_query(f"chain{index}", [f"rel{index}_0", f"rel{index}_1"])
               for index in range(query_count)]
    rng = random.Random(seed)
    records = []
    for position in range(record_count):
        index = rng.randrange(query_count)
        records.append(StreamEdge(
            f"q{index}v{rng.randrange(8)}", f"q{index}v{rng.randrange(8)}",
            f"rel{index}_{rng.randrange(2)}", position * 0.01,
        ))
    return queries, records


def dispatch_work_per_record(engine_cls, query_count, monkeypatch):
    """``(index entries examined, matcher searches)`` per record, batched ingest."""
    queries, records = disjoint_chain_workload(query_count)
    engine = engine_cls(config=EngineConfig(collect_statistics=False, record_latency=False))
    for query in queries:
        engine.register_query(query, window=1.0)
    searches = []
    search = ContinuousQueryMatcher.process_edge_leaves
    monkeypatch.setattr(
        ContinuousQueryMatcher, "process_edge_leaves",
        lambda self, edge, leaves: searches.append(1) or search(self, edge, leaves),
    )
    for start in range(0, len(records), 50):
        engine.process_batch(records[start : start + 50])
    monkeypatch.undo()
    stats = engine.dispatch.stats()
    examined = stats["entries_matched"] + stats["entries_skipped"]
    return examined / len(records), len(searches) / len(records)


def assert_dispatch_work_flat(engine_cls, monkeypatch):
    baseline = dispatch_work_per_record(engine_cls, 2, monkeypatch)
    for query_count in (20, 200):
        assert dispatch_work_per_record(engine_cls, query_count, monkeypatch) == baseline, (
            f"dispatch work per record moved between 2 and {query_count} queries"
        )
    return baseline


class TestDispatchWorkPin:
    """Work-complexity pin: an edge pays only for the queries it can bind.

    With 2, 20 and 200 label-disjoint chain queries registered, the index
    entries a record examines and the matcher searches it triggers stay
    exactly flat -- a 100x larger query set costs a record nothing.
    """

    def test_dispatch_work_per_record_is_flat_in_query_count(self, monkeypatch):
        examined, searches = assert_dispatch_work_flat(StreamWorksEngine, monkeypatch)
        assert examined >= 1 and searches == 1

    def test_pin_fails_against_the_exhaustive_reference(self, monkeypatch):
        # every matcher per record: searches grow with the query count
        with pytest.raises(AssertionError, match="moved between 2 and 20"):
            assert_dispatch_work_flat(ExhaustiveReferenceEngine, monkeypatch)
