"""InternTable unit tests plus the engine-level id-stability contracts.

Dense ids are engine-internal, but three things about them are load-bearing
for the batched hot path: they must survive checkpoint/restore exactly
(the memo tables key on them), sharded engines must agree with the parent
on query-vocabulary ids (the adopt push at registration), and snapshots
taken *before* the interning section existed must still restore -- with
the table rebuilt deterministically from what the snapshot does carry.
"""

import pytest

from differential import ExhaustiveReferenceEngine
from test_sharded_conformance import (
    canonical,
    chain_query,
    netflow_queries,
    netflow_records,
    register_all,
    replay_batched,
    rmat_queries,
    rmat_records,
)

from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.core.sharded import ShardConfig, ShardedStreamEngine
from repro.graph.interning import InternTable
from repro.persistence.state import ENGINE_KIND, engine_sections, load_engine_sections
from repro.persistence.upgrade import upgrade


class TestInternTableUnit:
    def test_dense_first_seen_order_ids(self):
        table = InternTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0  # idempotent
        assert table.intern_all(["c", "b", "d"]) == [2, 1, 3]
        assert len(table) == 4
        assert "c" in table and "zzz" not in table

    def test_lookup_does_not_admit(self):
        table = InternTable()
        assert table.lookup("ghost") is None
        assert len(table) == 0
        table.intern("real")
        assert table.lookup("real") == 0

    def test_label_reverse_mapping(self):
        table = InternTable()
        table.intern_all(["x", "y"])
        assert table.label(0) == "x"
        assert table.label(1) == "y"
        with pytest.raises(IndexError):
            table.label(-1)
        with pytest.raises(IndexError):
            table.label(2)

    def test_state_dict_round_trip_preserves_ids(self):
        table = InternTable()
        table.intern_all(["alpha", "beta", "gamma"])
        restored = InternTable.from_state(table.state_dict())
        assert restored.labels() == table.labels()
        for label in table.labels():
            assert restored.lookup(label) == table.lookup(label)

    def test_adopt_reproduces_parent_ids_and_tolerates_overlap(self):
        parent = InternTable()
        parent.intern_all(["q1", "q2", "q3"])
        shard = InternTable()
        shard.adopt(parent.labels())
        assert shard.labels() == parent.labels()
        # a second adoption of a superset keeps existing ids stable
        parent.intern("q4")
        shard.adopt(parent.labels())
        assert shard.labels() == parent.labels()


def _run_single(records, query_specs, *, engine_cls=StreamWorksEngine):
    engine = engine_cls(config=EngineConfig())
    register_all(engine, query_specs())
    events = canonical(replay_batched(engine, records))
    return engine, events


def _pre_interning_sections(engine):
    """``engine``'s snapshot sections minus everything added with the intern
    table: exactly what a format-1 snapshot from before it lacks
    (``dispatch_memo_hits``, the third counter added with it, is
    process-local and never written now).  The format-2 loader does not
    read that shape, so callers pass it through :func:`upgrade` first."""
    sections = engine_sections(engine)
    del sections["interning"]
    for payload in sections["queries"]:
        del payload["compiled_plan"]
    for counter in ("batches_vectorized", "records_prefiltered"):
        del sections["counters"][counter]
    return sections


class TestEngineIdStability:
    def test_ids_stable_across_checkpoint_restore(self, tmp_path):
        records = rmat_records(300)
        engine, _ = _run_single(records, rmat_queries)
        path = str(tmp_path / "interned.snap")
        engine.checkpoint(path)
        restored = StreamWorksEngine.restore(path)
        assert restored.interning.labels() == engine.interning.labels()

    def test_unknown_label_not_admitted_mid_stream(self):
        """Routing looks stream edge labels up and never admits one: a label
        no query binds stays out of the table (and its record out of the
        store).  Only the routed record's endpoint label is admitted,
        appended after the registered vocabulary, ids untouched."""
        from repro.streaming.edge_stream import StreamEdge

        engine = StreamWorksEngine()
        engine.register_query(chain_query("q", ["known"]), window=0.5)
        before = engine.interning.labels()
        assert "surprise" not in engine.interning
        engine.process_batch(
            [
                StreamEdge("a", "b", "known", 0.1),
                StreamEdge("b", "c", "surprise", 0.2),
            ]
        )
        assert "surprise" not in engine.interning
        assert engine.interning.labels() == before + ["node"]
        assert engine.metrics()["ingest_paths"]["cold"] == 1

    def test_sharded_parent_pushes_query_vocabulary_to_all_shards(self):
        engine = ShardedStreamEngine(config=ShardConfig(shard_count=3))
        register_all(engine, netflow_queries())
        parent_labels = engine.interning.labels()
        assert parent_labels  # query vocab was interned at registration
        for shard in engine.shards:
            shard_labels = shard.interning.labels()
            # parent table is a prefix of every shard's: identical ids for
            # the whole query vocabulary, even on shards that own none of
            # the queries
            assert shard_labels[: len(parent_labels)] == parent_labels

    def test_pre_columnar_snapshot_restores_with_rebuilt_table(self):
        """Regression pin: snapshots written before the interning section /
        compiled-plan markers / hot-path counters existed must restore, the
        table rebuilt deterministically, and the continuation must stay
        byte-identical to an uninterrupted reference run."""
        records = netflow_records(300)
        cut = 150
        engine, _ = _run_single(records[:cut], netflow_queries)
        restored = load_engine_sections(upgrade(ENGINE_KIND, _pre_interning_sections(engine), 1))
        # rebuilt table: query vocabulary in registration order first, then
        # graph edge labels in insertion order -- and every graph label known
        assert restored.interning.labels()
        for edge in restored.graph.edges():
            assert edge.label in restored.interning

    def test_pre_columnar_restore_continuation_matches_oracle(self):
        records = netflow_records(300)
        cut = 150
        engine, _ = _run_single(records[:cut], netflow_queries)
        restored = load_engine_sections(upgrade(ENGINE_KIND, _pre_interning_sections(engine), 1))
        replay_batched(restored, records[cut:])
        resumed = canonical(list(restored.collector.events))

        _, oracle = _run_single(records, netflow_queries, engine_cls=ExhaustiveReferenceEngine)
        assert oracle and resumed == oracle
