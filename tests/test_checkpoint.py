"""Crash-at-every-boundary differential recovery suite.

The persistence contract is the strongest statement the subsystem makes:

    ``restore(checkpoint(E))`` followed by the remainder of the stream is
    **byte-for-byte** the uninterrupted run -- same matches, same event
    order, same sequence numbers, same deterministic metrics.

This suite proves it the only way such a contract can be proven: by
*killing the engine at every boundary*.  For each workload the stream is
replayed batch by batch; after **every** batch the engine is checkpointed,
a fresh engine is restored from the file (the original is discarded --
nothing in-process survives the "crash"), the remaining batches are fed,
and the full event history plus deterministic metrics are diffed against
the uninterrupted oracle.  A sampled set of *intra-batch* boundaries is
crashed the same way through the per-record path.  The matrix covers the
single engine and the sharded engine at shard counts 1/2/4, two oracles
(an uninterrupted run of the same engine, and of the exhaustive reference
that searches every leaf on every record), and event-time (reorder-buffer)
configurations whose buffered tail must survive the crash.

Torn-snapshot robustness rides along: every section of a snapshot file is
truncated and bit-flipped in turn, and ``restore`` must raise a typed
``SnapshotCorruptError`` -- never a silent partial load -- while version
mismatches are rejected with a clear message.
"""

from __future__ import annotations

import inspect
import json
import os
import random
from collections import Counter

import pytest
from differential import (
    EXFIL_WINDOW,
    ExhaustiveReferenceEngine,
    assert_statistics_describe_the_window,
    exfil_query,
    exfil_records,
    summary_facts,
)

from repro.core import EngineConfig, ShardConfig, ShardedStreamEngine, StreamWorksEngine
from repro.core.decomposition import Strategy
from repro.core.matcher import ContinuousQueryMatcher, MatcherStats
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.window import TimeWindow
from repro.persistence import (
    RemovedOptionError,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    read_manifest,
    read_snapshot,
)
from repro.persistence.snapshot import write_snapshot
from repro.persistence.state import ENGINE_KIND, SHARDED_KIND, engine_sections, load_engine_sections
from repro.persistence.upgrade import _DEFAULTED_CONFIG_FIELDS, _RETIRED_CONFIG_FIELDS, upgrade
from repro.query.query_graph import QueryGraph
from repro.streaming import (
    DEFAULT_SOURCE,
    MultiSourceReorderBuffer,
    StreamEdge,
    bounded_shuffle,
    skewed_interleave,
    split_by_source,
    tag_sources,
)
from repro.workloads import (
    DriftingConfig,
    DriftingGenerator,
    NetflowConfig,
    NetflowGenerator,
    RmatConfig,
    RmatGenerator,
)

BATCH_SIZE = 40


# ----------------------------------------------------------------------
# workloads and queries (same shapes as the sharded conformance suite)
# ----------------------------------------------------------------------
def chain_query(name, labels, vertex_labels=None):
    query = QueryGraph(name)
    vertex_labels = vertex_labels or {}
    for position in range(len(labels) + 1):
        query.add_vertex(f"v{position}", vertex_labels.get(position))
    for position, label in enumerate(labels):
        query.add_edge(f"v{position}", f"v{position + 1}", label)
    return query


def rmat_queries():
    return [
        ("ab", chain_query("ab", ["rel_a", "rel_b", "rel_a", "rel_b"]), 0.5),
        ("cc", chain_query("cc", ["rel_c", "rel_c"], {0: "TypeA"}), 0.5),
        ("wild", chain_query("wild", [None, "rel_a"]), 0.3),
    ]


def netflow_queries():
    return [
        ("flows", chain_query("flows", ["connectsTo", "connectsTo"]), 0.4),
        ("dns", chain_query("dns", ["resolvesTo"]), 0.4),
        ("login", chain_query("login", ["loginTo", "connectsTo"], {0: "User"}), 0.6),
    ]


def rmat_records(count=200, seed=29, mean_interarrival=0.01):
    generator = RmatGenerator(RmatConfig(seed=seed, scale=6, mean_interarrival=mean_interarrival))
    return list(generator.stream(count))


def netflow_records(count=200, seed=11):
    return list(NetflowGenerator(NetflowConfig(seed=seed)).stream(count))


def disordered_rmat_records(count=200, seed=29):
    """Bounded-displacement shuffle past the windows: includes dead-on-arrival."""
    return bounded_shuffle(rmat_records(count, seed=seed), 48, seed=seed + 1)


WORKLOADS = {
    "rmat": (rmat_records, rmat_queries),
    "netflow": (netflow_records, netflow_queries),
    "rmat_disordered": (disordered_rmat_records, rmat_queries),
}


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


def register_all(engine, query_specs):
    for name, query, window in query_specs:
        engine.register_query(query, name=name, window=window)


def batches_of(records):
    return [records[start : start + BATCH_SIZE] for start in range(0, len(records), BATCH_SIZE)]


#: Deterministic single-engine metric keys the resumed run must reproduce.
DETERMINISTIC_METRICS = (
    "edges_processed",
    "events_emitted",
    "graph_vertices",
    "graph_edges",
    "edges_evicted",
    "ingest_paths",
    "event_time_watermark",
    "dispatch",
    "queries",
    "stored_partial_matches",
)


def deterministic_metrics(engine):
    metrics = engine.metrics()
    return {key: metrics[key] for key in DETERMINISTIC_METRICS}


def statistics_state(engine):
    """The statistics, serialised and as the planner reads them, per (shard) engine."""
    shards = [engine] if isinstance(engine, StreamWorksEngine) else engine.shards
    return [
        (shard.summarizer.state_dict(), summary_facts(shard.statistics_summary()))
        for shard in shards
    ]


def assert_resumed_equals_oracle(oracle, resumed, context):
    assert canonical(resumed.events()) == canonical(oracle.events()), (
        f"{context}: resumed event history diverged from the uninterrupted run"
    )
    assert resumed.match_counts() == oracle.match_counts(), context
    if isinstance(oracle, StreamWorksEngine):
        assert deterministic_metrics(resumed) == deterministic_metrics(oracle), context
    else:
        assert resumed.edges_processed == oracle.edges_processed, context
        assert resumed._sequence == oracle._sequence, context
    assert statistics_state(resumed) == statistics_state(oracle), context
    assert_statistics_describe_the_window(resumed, context)


def assert_resumed_equals_reference(reference, resumed, context):
    """Against the exhaustive reference only the events are comparable: its
    routing counters are its own, and a sharded engine's statistics live in
    its shards."""
    assert canonical(resumed.events()) == canonical(reference.events()), (
        f"{context}: resumed event history diverged from the uninterrupted reference"
    )
    assert resumed.match_counts() == reference.match_counts(), context


#: What a resumed run is compared with: an uninterrupted run of the same
#: engine (the full resume contract), or of the exhaustive reference
#: (resume exactness and routing equivalence composed).
ORACLES = {
    "engine": (StreamWorksEngine, assert_resumed_equals_oracle),
    "reference": (ExhaustiveReferenceEngine, assert_resumed_equals_reference),
}


# ----------------------------------------------------------------------
# single engine: crash at EVERY batch boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("oracle_kind", sorted(ORACLES))
def test_single_engine_crash_at_every_batch_boundary(tmp_path, workload, oracle_kind):
    make_records, query_specs = WORKLOADS[workload]
    records = make_records()
    batches = batches_of(records)
    oracle_cls, assert_resumed = ORACLES[oracle_kind]

    def build(engine_cls=StreamWorksEngine):
        engine = engine_cls(config=EngineConfig())
        register_all(engine, query_specs())
        return engine

    oracle = build(oracle_cls)
    for batch in batches:
        oracle.process_batch(batch)
    assert oracle.events(), f"workload {workload} produced no events -- not a real test"

    path = str(tmp_path / "engine.snap")
    for crash_after in range(len(batches)):
        engine = build()
        for batch in batches[: crash_after + 1]:
            engine.process_batch(batch)
        engine.checkpoint(path)
        del engine  # the "crash": nothing in-process survives
        resumed = StreamWorksEngine.restore(path)
        for batch in batches[crash_after + 1 :]:
            resumed.process_batch(batch)
        assert_resumed(
            oracle, resumed, f"{workload} vs {oracle_kind}, crash after batch {crash_after}"
        )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_single_engine_crash_at_sampled_intra_batch_records(tmp_path, workload):
    """Per-record path: crash at sampled record indices inside the stream."""
    make_records, query_specs = WORKLOADS[workload]
    records = make_records()

    def build():
        engine = StreamWorksEngine(config=EngineConfig())
        register_all(engine, query_specs())
        return engine

    oracle = build()
    for record in records:
        oracle.process_record(record)
    assert oracle.events()

    rng = random.Random(7)
    crash_points = sorted(rng.sample(range(1, len(records)), 8))
    path = str(tmp_path / "engine.snap")
    for crash_after in crash_points:
        engine = build()
        for record in records[:crash_after]:
            engine.process_record(record)
        engine.checkpoint(path)
        del engine
        resumed = StreamWorksEngine.restore(path)
        for record in records[crash_after:]:
            resumed.process_record(record)
        assert_resumed_equals_oracle(oracle, resumed, f"{workload}, crash at record {crash_after}")


def test_single_engine_event_time_tail_survives_crash(tmp_path):
    """The reorder buffer's unreleased tail must resume exactly (incl. flush)."""
    records = disordered_rmat_records()
    batches = batches_of(records)

    def build():
        engine = StreamWorksEngine(
            config=EngineConfig(allowed_lateness=1.0)
        )
        register_all(engine, rmat_queries())
        return engine

    oracle = build()
    for batch in batches:
        oracle.process_batch(batch)
    oracle.flush()
    assert oracle.events()

    path = str(tmp_path / "engine.snap")
    for crash_after in range(len(batches)):
        engine = build()
        for batch in batches[: crash_after + 1]:
            engine.process_batch(batch)
        engine.checkpoint(path)
        buffered = len(engine.reorder)
        del engine
        resumed = StreamWorksEngine.restore(path)
        assert len(resumed.reorder) == buffered  # the tail crossed the crash
        for batch in batches[crash_after + 1 :]:
            resumed.process_batch(batch)
        resumed.flush()
        assert_resumed_equals_oracle(oracle, resumed, f"event-time crash after batch {crash_after}")


# ----------------------------------------------------------------------
# recovery cost: a restore does no matcher work, a replay redoes the prefix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shard_count", [None, 2], ids=["single", "sharded_x2"])
def test_restore_runs_no_matcher_work_where_replay_reruns_the_prefix(
    tmp_path, monkeypatch, shard_count
):
    """After a crash the engine gets its state back by restoring a snapshot
    or by replaying what it processed.  The restore searches nothing; the
    replay searches every record of the prefix again, as the first run did."""
    searched = []
    search = ContinuousQueryMatcher.process_edge_leaves

    def counted(self, edge, leaves, *args, **kwargs):
        searched.append(edge.timestamp)
        return search(self, edge, leaves, *args, **kwargs)

    monkeypatch.setattr(ContinuousQueryMatcher, "process_edge_leaves", counted)
    batches = batches_of(rmat_records())
    prefix, rest = batches[: len(batches) // 2], batches[len(batches) // 2 :]

    def build():
        if shard_count is None:
            engine = StreamWorksEngine(config=EngineConfig())
        else:
            engine = ShardedStreamEngine(config=_sharded_config(shard_count))
        register_all(engine, rmat_queries())
        return engine

    crashed = build()
    for batch in prefix:
        crashed.process_batch(batch)
    prefix_work = list(searched)
    assert prefix_work
    path = str(tmp_path / "recovery.snap")
    crashed.checkpoint(path)

    searched.clear()
    restored = type(crashed).restore(path)
    assert searched == []

    replayed = build()
    for batch in prefix:
        replayed.process_batch(batch)
    assert searched == prefix_work
    for engine in (restored, replayed):
        for batch in rest:
            engine.process_batch(batch)
    assert canonical(restored.events()) == canonical(replayed.events())


# ----------------------------------------------------------------------
# adaptive replanning: every batch boundary is a replan boundary
# ----------------------------------------------------------------------
def drifting_replan_records(count=240, seed=7, drift_at=100):
    return list(DriftingGenerator(DriftingConfig(seed=seed, drift_at=drift_at)).stream(count))


def drifting_replan_queries():
    return [
        ("ab", chain_query("ab", ["alpha", "beta"]), 0.5),
        ("ggg", chain_query("ggg", ["gamma", "gamma", "gamma"]), 0.5),
        # the one whose tree the drift changes: ab and ggg replan to the
        # tree they have, which keeps the installed matcher
        ("abg", chain_query("abg", ["alpha", "beta", "gamma"]), 0.5),
    ]


def test_single_engine_replan_crash_at_every_batch_boundary(tmp_path):
    """With ``replan_check_every == BATCH_SIZE`` every crash point in this
    loop is also a replan boundary: the checkpoint captures freshly-migrated
    SJ-trees, the monitor counters and the cadence marker, and the resumed
    run must keep replanning at the same stream positions."""
    records = drifting_replan_records()
    batches = batches_of(records)

    def build():
        engine = StreamWorksEngine(
            config=EngineConfig(replan_threshold=0.5, replan_check_every=BATCH_SIZE)
        )
        register_all(engine, drifting_replan_queries())
        return engine

    oracle = build()
    for batch in batches:
        oracle.process_batch(batch)
    assert oracle.events()
    oracle_replan = oracle.metrics()["replan"]
    # replans genuinely straddle crashes, rebuilt trees and kept ones alike
    assert oracle_replan["triggers_fired"] > oracle_replan["plans_applied"] > 0

    path = str(tmp_path / "replan.snap")
    for crash_after in range(len(batches)):
        engine = build()
        for batch in batches[: crash_after + 1]:
            engine.process_batch(batch)
        engine.checkpoint(path)
        del engine  # the "crash": nothing in-process survives
        resumed = StreamWorksEngine.restore(path)
        for batch in batches[crash_after + 1 :]:
            resumed.process_batch(batch)
        assert_resumed_equals_oracle(
            oracle, resumed, f"replan crash after batch {crash_after}"
        )
        assert resumed.metrics()["replan"] == oracle_replan, (
            f"replan counters diverged after crash at batch {crash_after}"
        )


def test_sharded_replan_crash_at_every_batch_boundary(tmp_path):
    records = drifting_replan_records()
    batches = batches_of(records)

    def build():
        engine = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=2,
                engine=EngineConfig(replan_threshold=0.5, replan_check_every=BATCH_SIZE),
            )
        )
        register_all(engine, drifting_replan_queries())
        return engine

    oracle = build()
    for batch in batches:
        oracle.process_batch(batch)
    assert oracle.events()
    oracle_replan = oracle.metrics()["replan"]
    assert oracle_replan["triggers_fired"] > oracle_replan["plans_applied"] > 0

    path = str(tmp_path / "sharded_replan.snap")
    for crash_after in range(len(batches)):
        engine = build()
        for batch in batches[: crash_after + 1]:
            engine.process_batch(batch)
        engine.checkpoint(path)
        del engine
        resumed = ShardedStreamEngine.restore(path)
        for batch in batches[crash_after + 1 :]:
            resumed.process_batch(batch)
        assert_resumed_equals_oracle(
            oracle, resumed, f"sharded replan crash after batch {crash_after}"
        )
        assert resumed.metrics()["replan"] == oracle_replan, (
            f"sharded replan counters diverged after crash at batch {crash_after}"
        )


# ----------------------------------------------------------------------
# sharded engine: shards 1/2/4
# ----------------------------------------------------------------------
def _sharded_config(shard_count, allowed_lateness=None):
    return ShardConfig(
        shard_count=shard_count, engine=EngineConfig(allowed_lateness=allowed_lateness)
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("shard_count", [1, 2, 4])
@pytest.mark.parametrize("oracle_kind", sorted(ORACLES))
def test_sharded_serial_crash_at_every_batch_boundary(
    tmp_path, workload, shard_count, oracle_kind
):
    make_records, query_specs = WORKLOADS[workload]
    records = make_records()
    batches = batches_of(records)
    oracle_cls, assert_resumed = ORACLES[oracle_kind]

    def build():
        engine = ShardedStreamEngine(config=_sharded_config(shard_count))
        register_all(engine, query_specs())
        return engine

    if oracle_kind == "engine":
        oracle = build()
    else:  # the reference is one unsharded engine
        oracle = oracle_cls(config=EngineConfig())
        register_all(oracle, query_specs())
    for batch in batches:
        oracle.process_batch(batch)
    assert oracle.events()

    path = str(tmp_path / "sharded.snap")
    for crash_after in range(len(batches)):
        engine = build()
        for batch in batches[: crash_after + 1]:
            engine.process_batch(batch)
        engine.checkpoint(path)
        del engine
        resumed = ShardedStreamEngine.restore(path)
        for batch in batches[crash_after + 1 :]:
            resumed.process_batch(batch)
        assert_resumed(
            oracle,
            resumed,
            f"{workload} vs {oracle_kind}, {shard_count}-shard serial, "
            f"crash after batch {crash_after}",
        )


@pytest.mark.parametrize("shard_count", [2, 4])
def test_sharded_resumed_engine_checkpoints_and_resumes_again(tmp_path, shard_count):
    """A restored engine is a full engine: its own snapshot resumes exactly too."""
    records = rmat_records()
    batches = batches_of(records)

    def build():
        engine = ShardedStreamEngine(config=_sharded_config(shard_count))
        register_all(engine, rmat_queries())
        return engine

    oracle = build()
    for batch in batches:
        oracle.process_batch(batch)
    reference = canonical(oracle.events())
    assert reference

    first, second = str(tmp_path / "first.snap"), str(tmp_path / "second.snap")
    for crash_after in [0, len(batches) // 2, len(batches) - 2]:
        engine = build()
        for batch in batches[: crash_after + 1]:
            engine.process_batch(batch)
        engine.checkpoint(first)
        del engine
        resumed = ShardedStreamEngine.restore(first)
        resumed.process_batch(batches[crash_after + 1])
        resumed.checkpoint(second)
        del resumed
        again = ShardedStreamEngine.restore(second)
        for batch in batches[crash_after + 2 :]:
            again.process_batch(batch)
        assert canonical(again.events()) == reference, (
            f"{shard_count} shards, crash after batch {crash_after} and again after the next"
        )
        assert_resumed_equals_oracle(oracle, again, f"{shard_count} shards, double crash")


def test_sharded_event_time_parent_buffer_survives_crash(tmp_path):
    records = disordered_rmat_records()
    batches = batches_of(records)

    def build():
        engine = ShardedStreamEngine(config=_sharded_config(2, allowed_lateness=1.0))
        register_all(engine, rmat_queries())
        return engine

    oracle = build()
    for batch in batches:
        oracle.process_batch(batch)
    oracle.flush()
    assert oracle.events()

    path = str(tmp_path / "sharded.snap")
    for crash_after in range(0, len(batches), 2):
        engine = build()
        for batch in batches[: crash_after + 1]:
            engine.process_batch(batch)
        engine.checkpoint(path)
        del engine
        resumed = ShardedStreamEngine.restore(path)
        for batch in batches[crash_after + 1 :]:
            resumed.process_batch(batch)
        resumed.flush()
        assert_resumed_equals_oracle(
            oracle, resumed, f"sharded event-time crash after batch {crash_after}"
        )


# ----------------------------------------------------------------------
# autosave cadence
# ----------------------------------------------------------------------
def test_checkpoint_every_autosaves_with_monotone_epochs(tmp_path):
    path = str(tmp_path / "auto.snap")
    engine = StreamWorksEngine(
        config=EngineConfig(checkpoint_every=2, checkpoint_path=path)
    )
    register_all(engine, rmat_queries())
    # an even batch count so the final autosave captures the final state
    batches = batches_of(rmat_records(160))
    assert len(batches) % 2 == 0
    epochs = []
    for batch in batches:
        engine.process_batch(batch)
        if engine.batches_processed % 2 == 0:
            epochs.append(read_manifest(path)["epoch"])
    assert len(epochs) == len(batches) // 2
    assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)  # monotone
    # the newest autosave resumes exactly like an explicit checkpoint
    resumed = StreamWorksEngine.restore(path)
    assert canonical(resumed.events()) == canonical(engine.events())
    # a restored engine keeps autosaving from the carried-over epoch
    resumed.process_batch(batches[0])
    resumed.process_batch(batches[0])
    assert read_manifest(path)["epoch"] > epochs[-1]


def test_sharded_autosave_is_parent_level(tmp_path):
    path = str(tmp_path / "auto.snap")
    engine = ShardedStreamEngine(
        config=ShardConfig(
            shard_count=2,
            engine=EngineConfig(checkpoint_every=1, checkpoint_path=path),
        )
    )
    register_all(engine, rmat_queries())
    # shards must NOT autosave on their own (they'd clobber the parent's path)
    assert all(shard.config.checkpoint_every is None for shard in engine.shards)
    engine.process_batch(rmat_records(40))
    resumed = ShardedStreamEngine.restore(path)
    assert canonical(resumed.events()) == canonical(engine.events())


def test_checkpoint_every_requires_path():
    with pytest.raises(ValueError):
        EngineConfig(checkpoint_every=5)
    with pytest.raises(ValueError):
        EngineConfig(checkpoint_every=0, checkpoint_path="x.snap")


def test_autosave_engine_rejects_uncheckpointable_query_at_registration(tmp_path):
    """CustomPredicate cannot round-trip: an autosaving engine must refuse it
    when the query is registered, not at the Nth batch."""
    from repro.query.predicates import CustomPredicate
    from repro.query.query_graph import QueryGraph

    query = QueryGraph("custom")
    query.add_vertex("a")
    query.add_vertex("b")
    query.add_edge("a", "b", "rel_a", CustomPredicate(lambda attrs: True))

    path = str(tmp_path / "auto.snap")
    engine = StreamWorksEngine(
        config=EngineConfig(checkpoint_every=1, checkpoint_path=path)
    )
    with pytest.raises(ValueError, match="autosaving"):
        engine.register_query(query, name="custom", window=1.0)
    assert "custom" not in engine.queries  # nothing half-registered
    # without autosave the same query registers fine (checkpoint() then
    # raises a typed error if attempted -- that path is exercised below)
    plain = StreamWorksEngine(config=EngineConfig())
    plain.register_query(query, name="custom", window=1.0)
    with pytest.raises(SnapshotError, match="custom"):
        plain.checkpoint(str(tmp_path / "explicit.snap"))
    # parent-level check on the sharded engine (shard configs are stripped)
    sharded = ShardedStreamEngine(
        config=ShardConfig(
            shard_count=2,
            engine=EngineConfig(checkpoint_every=1, checkpoint_path=path),
        )
    )
    with pytest.raises(ValueError, match="autosaving"):
        sharded.register_query(query, name="custom", window=1.0)


@pytest.mark.parametrize("sharded", [False, True], ids=["engine", "sharded"])
def test_autosave_failure_does_not_lose_the_processed_batch(tmp_path, sharded):
    """An unwritable autosave target raises a typed SnapshotError AFTER the
    batch was processed -- the events stay retrievable and the error says so,
    so the caller does not re-feed (and double-process) the batch."""
    bad_path = str(tmp_path / "no_such_dir" / "auto.snap")
    config = EngineConfig(checkpoint_every=1, checkpoint_path=bad_path)
    if sharded:
        engine = ShardedStreamEngine(config=ShardConfig(shard_count=2, engine=config))
    else:
        engine = StreamWorksEngine(config=config)
    register_all(engine, rmat_queries())
    batch = rmat_records(150)
    with pytest.raises(SnapshotError, match="do NOT re-feed"):
        engine.process_batch(batch)
    assert engine.events()  # the batch's events survived the failed autosave
    assert engine.edges_processed == len(batch)


# ----------------------------------------------------------------------
# torn-snapshot robustness: corrupt every section, always a typed error
# ----------------------------------------------------------------------
def _snapshot_engine(tmp_path, sharded=False):
    path = str(tmp_path / ("sharded.snap" if sharded else "engine.snap"))
    if sharded:
        engine = ShardedStreamEngine(config=_sharded_config(2))
    else:
        engine = StreamWorksEngine(config=EngineConfig())
    register_all(engine, rmat_queries())
    for batch in batches_of(rmat_records(120)):
        engine.process_batch(batch)
    engine.checkpoint(path)
    return path


@pytest.mark.parametrize("sharded", [False, True], ids=["engine", "sharded"])
def test_truncation_of_every_section_raises_typed_error(tmp_path, sharded):
    path = _snapshot_engine(tmp_path, sharded)
    restore = ShardedStreamEngine.restore if sharded else StreamWorksEngine.restore
    with open(path, "rb") as handle:
        data = handle.read()
    manifest = read_manifest(path)
    header_len = data.find(b"\n") + 1
    # cut the file inside every section (and inside the manifest line itself)
    cut_points = [header_len // 2]
    offset = header_len
    for entry in manifest["sections"]:
        cut_points.append(offset + max(0, entry["length"] // 2))
        offset += entry["length"]
    for cut in cut_points:
        torn = str(tmp_path / "torn.snap")
        with open(torn, "wb") as handle:
            handle.write(data[:cut])
        with pytest.raises(SnapshotCorruptError):
            restore(torn)


@pytest.mark.parametrize("sharded", [False, True], ids=["engine", "sharded"])
def test_bitflip_in_every_section_raises_typed_error(tmp_path, sharded):
    path = _snapshot_engine(tmp_path, sharded)
    restore = ShardedStreamEngine.restore if sharded else StreamWorksEngine.restore
    with open(path, "rb") as handle:
        data = handle.read()
    manifest = read_manifest(path)
    offset = data.find(b"\n") + 1
    for entry in manifest["sections"]:
        flip_at = offset + entry["length"] // 2
        offset += entry["length"]
        corrupt = bytearray(data)
        corrupt[flip_at] ^= 0xFF
        bad = str(tmp_path / "bad.snap")
        with open(bad, "wb") as handle:
            handle.write(bytes(corrupt))
        with pytest.raises(SnapshotCorruptError):
            restore(bad)


def test_trailing_garbage_rejected(tmp_path):
    path = _snapshot_engine(tmp_path)
    with open(path, "ab") as handle:
        handle.write(b"garbage")
    with pytest.raises(SnapshotCorruptError):
        StreamWorksEngine.restore(path)


def restamp(path, format_version):
    """Rewrite the manifest of the snapshot at ``path`` to claim ``format_version``."""
    with open(path, "rb") as handle:
        data = handle.read()
    newline = data.find(b"\n")
    manifest = json.loads(data[:newline])
    manifest["format_version"] = format_version
    with open(path, "wb") as handle:
        handle.write(json.dumps(manifest, separators=(",", ":")).encode() + b"\n")
        handle.write(data[newline + 1 :])


def test_version_mismatch_rejected_with_clear_message(tmp_path):
    path = _snapshot_engine(tmp_path)
    restamp(path, 999)
    with pytest.raises(SnapshotVersionError, match="format version 999"):
        StreamWorksEngine.restore(path)


@pytest.mark.parametrize("format_version", [0, 5, "4", True])
@pytest.mark.parametrize("sharded", [False, True], ids=["engine", "sharded"])
def test_only_formats_1_to_4_are_read(tmp_path, sharded, format_version):
    path = _snapshot_engine(tmp_path, sharded)
    assert read_manifest(path)["format_version"] == 4
    restamp(path, format_version)
    restore = ShardedStreamEngine.restore if sharded else StreamWorksEngine.restore
    with pytest.raises(SnapshotVersionError, match=f"format version {format_version!r}"):
        restore(path)


def test_kind_mismatch_rejected(tmp_path):
    single_path = _snapshot_engine(tmp_path)
    with pytest.raises(SnapshotError, match="kind"):
        ShardedStreamEngine.restore(single_path)
    sharded_path = _snapshot_engine(tmp_path, sharded=True)
    with pytest.raises(SnapshotError, match="kind"):
        StreamWorksEngine.restore(sharded_path)


def test_non_snapshot_file_rejected(tmp_path):
    path = str(tmp_path / "not_a_snapshot")
    with open(path, "w") as handle:
        handle.write("hello world\n")
    with pytest.raises(SnapshotCorruptError):
        StreamWorksEngine.restore(path)
    with open(path, "w") as handle:
        handle.write(json.dumps({"magic": "something-else"}) + "\n")
    with pytest.raises(SnapshotCorruptError):
        StreamWorksEngine.restore(path)


def test_crash_during_checkpoint_leaves_previous_snapshot(tmp_path, monkeypatch):
    """Atomicity: a failed write never damages the snapshot under the path."""
    path = str(tmp_path / "engine.snap")
    engine = StreamWorksEngine(config=EngineConfig())
    register_all(engine, rmat_queries())
    batches = batches_of(rmat_records(80))
    engine.process_batch(batches[0])
    engine.checkpoint(path)
    good = open(path, "rb").read()
    engine.process_batch(batches[1])
    # simulate a crash mid-write: the rename step never happens
    monkeypatch.setattr(os, "replace", lambda *args: (_ for _ in ()).throw(OSError("crash")))
    with pytest.raises(OSError):
        engine.checkpoint(path)
    monkeypatch.undo()
    assert open(path, "rb").read() == good  # previous snapshot intact
    assert not [name for name in os.listdir(tmp_path) if ".tmp." in name]  # no debris
    StreamWorksEngine.restore(path)  # and it still restores


# ----------------------------------------------------------------------
# dead-on-arrival determinism (ROADMAP unification) -- restore depends on it
# ----------------------------------------------------------------------
class TestDeadOnArrivalUnification:
    """Batched ingest now skips beyond-retention records exactly like the
    per-record path, so the outcome no longer depends on how the stream was
    batched -- which is what makes `checkpoint at any boundary + feed the
    remainder in any batching` well-defined."""

    RECORDS = [
        StreamEdge("m", "n", "z", 100.0),  # advances the clock far ahead
        StreamEdge("x", "y", "a", 5.0),    # dead on arrival (window 10)
        StreamEdge("y", "w", "b", 6.0),    # dead on arrival; would chain with the above
    ]

    def build(self):
        engine = StreamWorksEngine(config=EngineConfig())
        engine.register_query(chain_query("ab", ["a", "b"]), name="ab", window=10.0)
        engine.register_query(chain_query("zz", ["z"]), name="zz", window=10.0)
        return engine

    def test_batched_skips_dead_records_like_per_record_path(self):
        per_record = self.build()
        for record in self.RECORDS:
            per_record.process_record(record)
        batched = self.build()
        batched.process_batch(self.RECORDS[:1])
        batched.process_batch(self.RECORDS[1:])  # [5.0, 6.0] is one ordered run
        # the two dead records must not produce the "ab" chain match in
        # either mode (pre-fix the batched run kept them alive and matched)
        assert [e.query_name for e in per_record.events()] == ["zz"]
        assert [e.query_name for e in batched.events()] == ["zz"]
        for engine in (per_record, batched):
            assert engine.records_dead_on_arrival == 2
            assert engine.metrics()["ingest_paths"]["dead_on_arrival"] == 2
            assert engine.graph.edge_count() == 1  # only the z edge is retained
        assert batched.records_batched == 3

    def test_batching_invariance_of_dead_records(self):
        """Any batch split of the stream yields the same events -- the
        property checkpoint/restore relies on when it re-batches the tail."""
        reference = None
        for split in ([1, 1, 1], [3], [2, 1], [1, 2]):
            engine = self.build()
            offset = 0
            for size in split:
                engine.process_batch(self.RECORDS[offset : offset + size])
                offset += size
            observed = [
                (e.query_name, e.match.portable_identity(), e.sequence)
                for e in engine.events()
            ]
            if reference is None:
                reference = observed
            assert observed == reference, f"split {split} diverged"
            assert engine.records_dead_on_arrival == 2

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_sharded_batched_agrees_on_dead_records(self, shard_count):
        single = self.build()
        single.process_batch(self.RECORDS)
        sharded = ShardedStreamEngine(config=_sharded_config(shard_count))
        sharded.register_query(chain_query("ab", ["a", "b"]), name="ab", window=10.0)
        sharded.register_query(chain_query("zz", ["z"]), name="zz", window=10.0)
        sharded.process_batch(self.RECORDS)
        assert canonical(sharded.events()) == canonical(single.events())
        assert sum(shard.records_dead_on_arrival for shard in sharded.shards) == 2

    def test_crash_between_dead_records_resumes_exactly(self, tmp_path):
        oracle = self.build()
        oracle.process_batch(self.RECORDS)
        path = str(tmp_path / "dead.snap")
        engine = self.build()
        engine.process_batch(self.RECORDS[:2])
        engine.checkpoint(path)
        resumed = StreamWorksEngine.restore(path)
        resumed.process_batch(self.RECORDS[2:])
        assert_resumed_equals_oracle(oracle, resumed, "crash between dead records")


# ----------------------------------------------------------------------
# restore-surface details
# ----------------------------------------------------------------------
def test_restore_preserves_registration_and_replan_surface(tmp_path):
    """The restored engine is a full engine: registration order, plans,
    statistics and live registration keep working."""
    path = str(tmp_path / "engine.snap")
    engine = StreamWorksEngine(config=EngineConfig())
    register_all(engine, rmat_queries())
    for batch in batches_of(rmat_records(120)):
        engine.process_batch(batch)
    engine.checkpoint(path)
    resumed = StreamWorksEngine.restore(path)
    assert list(resumed.queries) == list(engine.queries)
    for name in engine.queries:
        assert resumed.queries[name].plan.strategy == engine.queries[name].plan.strategy
        assert resumed.queries[name].window == engine.queries[name].window
    # summarizer statistics survived (same headline numbers)
    assert resumed.statistics_summary().to_dict() == engine.statistics_summary().to_dict()
    # live registration still works on the restored engine
    resumed.register_query(chain_query("new", ["rel_b"]), name="new", window=1.0)
    assert "new" in resumed.queries
    resumed.replan_query("new")
    resumed.unregister_query("new")


def suppressed(engine):
    return {
        name: registration.matcher.stats.duplicate_matches_suppressed
        for name, registration in engine.queries.items()
    }


def assert_duplicate_memory_ignored(sections, resumed):
    """Every fixture carries the retired duplicate memory; none of it is restored.

    Its config has the ``dedup_memory_budget`` knob and each matcher a live
    ``dedup_identities`` / ``dedup_edge_sets`` pair.  Exactly-once discovery
    never re-derives a reported match, so the restored engine keeps neither.
    """
    assert "dedup_memory_budget" in sections["config"]
    assert all(payload["matcher"]["dedup_identities"]["entries"] for payload in sections["queries"])
    assert all("dedup_edge_sets" in payload["matcher"] for payload in sections["queries"])
    assert not hasattr(resumed.config, "dedup_memory_budget")
    for registration in resumed.queries.values():
        assert set(registration.matcher.state_dict()) == {"tree", "stats", "epoch_end"}


def test_snapshot_from_before_the_exact_census_restores(tmp_path):
    """A snapshot written when the census was sampled still loads and runs.

    ``tests/fixtures/persistence/`` holds a real one (see its README): the
    config section carries the retired ``triad_sample_cap`` knob, and the
    summarizer section the sampler's census with float weights next to the
    folded label, signature and degree counts.  All of it is ignored: the
    restored statistics are those of the old graph's window, and the rest
    of the stream behaves like a run that never stopped.
    """
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "persistence", "engine_pre_exact_census.snap"
    )
    _, sections = read_snapshot(path)
    assert sections["config"]["triad_sample_cap"] == 4
    assert "rng_state" in sections["summarizer"]["triads"]

    records = []
    for index in range(12):
        t = float(index)
        leaf, host = f"leaf{index % 7}", f"host{index % 3}"
        records += [
            StreamEdge("hub", leaf, "link", t, source_label="Hub", target_label="Leaf"),
            StreamEdge(leaf, host, "rel_a", t + 0.25, source_label="Leaf", target_label="Host"),
            StreamEdge(host, "hub", "rel_b", t + 0.5, source_label="Host", target_label="Hub"),
        ]
    query = QueryGraph("ab")
    query.add_vertex("x", "Leaf")
    query.add_vertex("y", "Host")
    query.add_vertex("z", "Hub")
    query.add_edge("x", "y", "rel_a")
    query.add_edge("y", "z", "rel_b")
    oracle = StreamWorksEngine(config=EngineConfig())
    oracle.register_query(query, name="ab", window=4.0)
    for start in range(0, len(records), 6):
        oracle.process_batch(records[start : start + 6])

    resumed = StreamWorksEngine.restore(path)
    assert not hasattr(resumed.config, "triad_sample_cap")
    assert_duplicate_memory_ignored(sections, resumed)
    suppressed_at_restore = suppressed(resumed)
    assert "cold" not in sections and not resumed.cold  # pre-gate: an empty ring
    assert_statistics_describe_the_window(resumed, "restored from the pre-exact-census snapshot")
    for start in range(18, len(records), 6):  # the fixture was cut after 18 records
        resumed.process_batch(records[start : start + 6])
    assert canonical(resumed.events()) == canonical(oracle.events())
    assert suppressed(resumed) == suppressed_at_restore
    # the fixture stored every record, ``link`` ones included, which no
    # query binds; today's engine keeps those cold, so eviction counts
    # differ by the cold records the fixture still held.  The bindable
    # store contents agree, and the fixture's cold edges aged out.
    def bindable(engine):
        return sorted(
            (edge.source, edge.target, edge.label, edge.timestamp)
            for edge in engine.graph.edges()
            if edge.label in ("rel_a", "rel_b")
        )

    assert bindable(resumed) == bindable(oracle) != []
    assert not any(edge.label == "link" for edge in resumed.graph.edges())
    assert resumed.graph.edges_evicted > oracle.graph.edges_evicted > 12
    assert_statistics_describe_the_window(resumed, "resumed from the pre-exact-census snapshot")
    # the statistics describe the window: the same bindable edges give the
    # oracle's summary but for the "link" edges only the fixture still held
    # (none now), so they are the oracle's wedges exactly
    assert summary_facts(resumed.statistics_summary()) == summary_facts(oracle.statistics_summary())
    assert resumed.statistics_summary().triads.total_wedges() > 0
    # and it checkpoints again, in today's format
    again = str(tmp_path / "again.snap")
    resumed.checkpoint(again)
    _, sections = read_snapshot(again)
    assert "triad_sample_cap" not in sections["config"]
    assert set(sections["summarizer"]) == {"track_triads", "edge_count"}


def retired_knob_records():
    rows = []
    for index in range(24):
        t = float(index)
        leaf, host = f"leaf{index % 7}", f"host{index % 3}"
        rows += [
            StreamEdge("hub", leaf, "link", t, source_label="Hub", target_label="Leaf"),
            StreamEdge(leaf, host, "rel_a", t + 0.25, source_label="Leaf", target_label="Host"),
            StreamEdge(host, "hub", "rel_b", t + 0.5, source_label="Host", target_label="Hub"),
            StreamEdge(host, leaf, f"noise{index % 5}", t + 0.75,
                       source_label="Host", target_label="Leaf"),
        ]
    return rows


def register_retired_knob_queries(engine):
    ab = QueryGraph("ab")
    ab.add_vertex("x", "Leaf")
    ab.add_vertex("y", "Host")
    ab.add_vertex("z", "Hub")
    ab.add_edge("x", "y", "rel_a")
    ab.add_edge("y", "z", "rel_b")
    la = QueryGraph("la")
    la.add_vertex("h", "Hub")
    la.add_vertex("x", "Leaf")
    la.add_vertex("y", "Host")
    la.add_edge("h", "x", "link")
    la.add_edge("x", "y", "rel_a")
    engine.register_query(ab, name="ab", window=4.0)
    engine.register_query(la, name="la", window=2.0)
    return engine


def retired_knob_engine():
    return register_retired_knob_queries(StreamWorksEngine(config=EngineConfig()))


@pytest.mark.parametrize(
    "fixture, retired, plan_version",
    [
        (
            "engine_sketch_dispatch_auto_replan.snap",
            {"sketch_dispatch": True, "auto_replan_interval": 50},
            1,
        ),
        ("engine_unindexed.snap", {"use_dispatch_index": False}, 0),
    ],
)
def test_snapshot_with_a_retired_routing_knob_resumes_on_the_index(
    fixture, retired, plan_version
):
    """Snapshots written with the deleted routing knobs restore and resume.

    ``tests/fixtures/persistence/`` holds one written with the Bloom dispatch
    front and blind periodic replanning on (cut after its first replan), and
    one written on the exhaustive every-leaf scan.  The knobs are ignored on
    load, as are the Bloom front's ``front_*`` dispatch counters; the
    remainder then runs on the dispatch index and the batched fast path, with
    no periodic replans, and the event history equals an uninterrupted run
    of today's engine.
    """
    path = os.path.join(os.path.dirname(__file__), "fixtures", "persistence", fixture)
    records = retired_knob_records()
    cut = 56  # the fixtures were written after seven batches of 8
    _, sections = read_snapshot(path)
    assert {name: sections["config"][name] for name in retired} == retired
    oracle = retired_knob_engine()
    for start in range(0, len(records), 8):
        oracle.process_batch(records[start : start + 8])

    resumed = StreamWorksEngine.restore(path)
    assert not any(hasattr(resumed.config, name) for name in retired)
    assert_duplicate_memory_ignored(sections, resumed)
    suppressed_at_restore = suppressed(resumed)
    assert set(resumed.metrics()["dispatch"]) == set(oracle.metrics()["dispatch"])
    # written before the cold gate: the noise edges are in its store, and
    # it loads with an empty ring
    assert "cold" not in sections and not resumed.cold and resumed.records_cold == 0
    batched_at_restore = resumed.records_batched
    for start in range(cut, len(records), 8):
        resumed.process_batch(records[start : start + 8])
    assert canonical(resumed.events()) == canonical(oracle.events())
    assert suppressed(resumed) == suppressed_at_restore
    assert resumed.records_cold == (len(records) - cut) // 4  # the noise records
    assert resumed.match_counts() == oracle.match_counts() != {"ab": 0, "la": 0}
    assert resumed.records_batched - batched_at_restore == len(records) - cut
    assert {r.plan_version for r in resumed.queries.values()} == {plan_version}
    if "sketch_dispatch" in retired:
        assert sections["counters"]["dispatch"]["front_rejections"] > 0
        assert resumed.dispatch.lookups == oracle.dispatch.lookups


def test_snapshot_from_the_interpreted_path_resumes_compiled():
    """A snapshot written with ``columnar=False`` restores onto the one path.

    ``tests/fixtures/persistence/engine_interpreted.snap`` was written on
    the retired interpreted path: its config carries ``columnar``, each
    query a ``None`` compiled-plan marker, its matchers the retired
    ``expiry_min_interval`` / ``last_expiry_sweep`` keys, and no run went
    through a route plan.  The knob and keys are ignored on load; the
    matchers are compiled, the remainder runs through route plans, and the
    event history equals an uninterrupted run of today's engine.
    """
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "persistence", "engine_interpreted.snap"
    )
    records = retired_knob_records()
    cut = 56  # the fixture was written after seven batches of 8
    _, sections = read_snapshot(path)
    assert sections["config"]["columnar"] is False
    assert [payload["compiled_plan"] for payload in sections["queries"]] == [None, None]
    assert sections["counters"]["batches_vectorized"] == 0
    oracle = retired_knob_engine()
    for start in range(0, len(records), 8):
        oracle.process_batch(records[start : start + 8])

    resumed = StreamWorksEngine.restore(path)
    assert not hasattr(resumed.config, "columnar")
    assert_duplicate_memory_ignored(sections, resumed)
    suppressed_at_restore = suppressed(resumed)
    assert "cold" not in sections and not resumed.cold  # pre-gate: an empty ring
    for start in range(cut, len(records), 8):
        resumed.process_batch(records[start : start + 8])
    assert canonical(resumed.events()) == canonical(oracle.events())
    assert suppressed(resumed) == suppressed_at_restore
    assert resumed.match_counts() == oracle.match_counts() != {"ab": 0, "la": 0}
    assert resumed.batches_vectorized == (len(records) - cut) // 8
    assert resumed.dispatch_memo_hits > 0
    assert resumed.dispatch.lookups == oracle.dispatch.lookups


def test_snapshot_with_count_min_statistics_and_stored_completions_resumes():
    """A snapshot written with ``sketch_stats`` and completions at its roots.

    ``tests/fixtures/persistence/engine_sketch_stats.snap`` was written with
    ``EngineConfig(sketch_stats=True, latency_sample_cap=64)``: its
    summarizer section holds count-min tables instead of exact counts, and
    each SJ-tree root holds the query's live completions.  The knobs and the
    root collections are ignored on load, the label and signature counts are
    recounted from the restored store, and the rest of the stream gives the
    event history of an uninterrupted run of today's engine.
    """
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "persistence", "engine_sketch_stats.snap"
    )
    records = retired_knob_records()
    cut = 56  # the fixture was written after seven batches of 8
    _, sections = read_snapshot(path)
    config = sections["config"]
    assert (config["sketch_stats"], config["latency_sample_cap"]) == (True, 64)
    assert config["store_complete_matches"] is True
    assert sections["summarizer"]["sketch_stats"] is True
    assert "sketch" in sections["summarizer"]["edge_labels"]
    oracle = retired_knob_engine()
    for start in range(0, len(records), 8):
        oracle.process_batch(records[start : start + 8])

    resumed = StreamWorksEngine.restore(path)
    assert not any(
        hasattr(resumed.config, name)
        for name in ("sketch_stats", "store_complete_matches", "latency_sample_cap")
    )
    for payload in sections["queries"]:
        matcher = resumed.queries[payload["name"]].matcher
        saved_nodes = dict(payload["matcher"]["tree"]["nodes"])
        assert saved_nodes[matcher.tree.root_id]["matches"]  # completions were stored
        assert matcher.tree.root.match_count() == 0
        assert matcher.stored_partial_matches() == matcher._tree_stored
    stored_labels = Counter(edge.label for edge in resumed.graph.edges())
    assert resumed.statistics_summary().edge_labels.to_dict() == dict(stored_labels)
    for start in range(cut, len(records), 8):
        resumed.process_batch(records[start : start + 8])
    assert canonical(resumed.events()) == canonical(oracle.events())
    assert resumed.match_counts() == oracle.match_counts() != {"ab": 0, "la": 0}


def test_a_one_leaf_root_restores_with_its_completion_counters_zeroed():
    """Each query of ``engine_sketch_stats.snap`` is one leaf that is also the
    root, and its counters counted the completions it stored: restored, it
    stores none and reports none stored."""
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "persistence", "engine_sketch_stats.snap"
    )
    _, sections = read_snapshot(path)
    for payload in sections["queries"]:
        ((_, root),) = payload["matcher"]["tree"]["nodes"]
        assert root["total_inserted"] > 0  # the completions it kept
    restored = StreamWorksEngine.restore(path)
    leaves = restored.metrics()["leaves"]
    for name, registration in restored.queries.items():
        assert registration.matcher.stored_partial_matches() == 0
        assert [leaf["partials_stored"] for leaf in leaves[name]] == [0]


@pytest.mark.parametrize(
    "name, value",
    [
        ("use_dispatch_index", False),
        ("sketch_dispatch", True),
        ("auto_replan_interval", 50),
        ("columnar", False),
        ("dedup_memory_budget", 4096),
        ("sketch_stats", True),
        ("store_complete_matches", False),
        ("latency_sample_cap", 64),
    ],
)
def test_retired_knob_is_not_an_option(name, value):
    # a snapshot that still carries the knob drops it on load instead of
    # handing it to the constructor
    with pytest.raises(TypeError, match=name):
        EngineConfig(**{name: value})
    assert name in _RETIRED_CONFIG_FIELDS


@pytest.mark.parametrize(
    "name, value",
    [("record_latency", False), ("plan_strategy", "anti_selective"), ("primitive_size", 1)],
)
def test_a_knob_whose_default_is_the_one_behaviour_is_not_an_option(name, value):
    # latency is always recorded, and queries are planned by selectivity over
    # 2-edge primitives unless register_query names another strategy
    with pytest.raises(TypeError, match=name):
        EngineConfig(**{name: value})
    assert name in _DEFAULTED_CONFIG_FIELDS


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: TimeWindow(5.0, strict=False), "strict"),
        (lambda: DynamicGraph(evict_isolated_vertices=False), "evict_isolated_vertices"),
        (
            lambda: StreamWorksEngine().register_query(
                chain_query("q", ["a"]), dedupe_structural=True
            ),
            "dedupe_structural",
        ),
        (
            lambda: ShardedStreamEngine().register_query(
                chain_query("q", ["a"]), dedupe_structural=True
            ),
            "dedupe_structural",
        ),
    ],
    ids=["window-strict", "graph-isolated-vertices", "engine-dedupe", "sharded-dedupe"],
)
def test_the_window_eviction_and_dedupe_rules_have_no_switch(build, name):
    # a window admits spans strictly shorter than it, eviction drops the
    # vertices it isolates, and every query deduplicates as its engine does
    with pytest.raises(TypeError, match=name):
        build()


def live_partials_records():
    rows = []
    for index in range(30):
        t = float(index)
        a, b, c = f"a{index % 5}", f"b{index % 4}", f"c{index % 3}"
        rows += [
            StreamEdge(a, b, "rel_a", t, source_label="Leaf", target_label="Host"),
            StreamEdge(b, c, "rel_b", t + 0.25, source_label="Host", target_label="Hub"),
            StreamEdge(c, f"d{index % 6}", "rel_c", t + 0.5, source_label="Hub", target_label="Leaf"),
            StreamEdge(f"d{(index + 2) % 6}", f"e{index % 2}", "rel_a", t + 0.75,
                       source_label="Leaf", target_label="Host"),
        ]
    return rows


def live_partials_engine():
    chain = QueryGraph("chain")
    chain.add_vertex("w", "Leaf")
    chain.add_vertex("x", "Host")
    chain.add_vertex("y", "Hub")
    chain.add_vertex("z", "Leaf")
    chain.add_vertex("v")
    chain.add_edge("w", "x", "rel_a")
    chain.add_edge("x", "y", "rel_b")
    chain.add_edge("y", "z", "rel_c")
    chain.add_edge("z", "v", "rel_a")
    engine = StreamWorksEngine(config=EngineConfig())
    engine.register_query(chain, name="chain", window=3.0, strategy=Strategy.EDGE_BY_EDGE)
    return engine


def node_entries(tree_state):
    """A tree's stored partials, node by node in stored order, each as ``(vertices, edges)`` maps."""
    return {
        node_id: [
            ({name: vertex for name, vertex in entry["v"]},
             {query_edge: edge for query_edge, edge in entry["e"]})
            for entry in node_state["matches"]
        ]
        for node_id, node_state in tree_state["nodes"]
    }


def test_snapshot_with_live_partials_restores_every_node_and_resumes(tmp_path):
    """A snapshot whose SJ-tree holds partials in every non-root node.

    ``tests/fixtures/persistence/engine_live_partials.snap`` was written
    while partials were :class:`Match` objects: a four-edge chain planned
    edge by edge (four leaves, two inner joins), cut when each of the six
    non-root nodes held partials.  Restored, every node holds exactly the
    snapshot's partials in its bucket and insertion order, a new checkpoint
    writes them back in that order, and the rest of the stream gives the
    event history of an uninterrupted run of today's engine.
    """
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "persistence", "engine_live_partials.snap"
    )
    records = live_partials_records()
    cut = 64  # the fixture was written after eight batches of 8
    _, sections = read_snapshot(path)
    (payload,) = sections["queries"]
    saved = node_entries(payload["matcher"]["tree"])

    resumed = StreamWorksEngine.restore(path)
    matcher = resumed.queries["chain"].matcher
    assert len(matcher.tree.leaves()) == 4
    stored = {node.id: node.match_count() for node in matcher.tree.nodes.values() if not node.is_root}
    assert stored == {node_id: len(entries) for node_id, entries in saved.items() if entries}
    assert len(stored) == 6 and all(stored.values())
    assert matcher.stored_partial_matches() == sum(stored.values()) == matcher._tree_stored
    again = str(tmp_path / "again.snap")
    resumed.checkpoint(again)
    (rewritten,) = read_snapshot(again)[1]["queries"]
    assert node_entries(rewritten["matcher"]["tree"]) == saved

    oracle = live_partials_engine()
    for start in range(0, len(records), 8):
        oracle.process_batch(records[start : start + 8])
    for start in range(cut, len(records), 8):
        resumed.process_batch(records[start : start + 8])
    assert canonical(resumed.events()) == canonical(oracle.events())
    assert len(oracle.events()) == 28 and len(resumed.events()) == 28


#: The retired config keys each fixture in ``tests/fixtures/persistence/`` carries.
FIXTURE_RETIRED_FIELDS = {
    "engine_interpreted.snap": {
        "columnar", "dedup_memory_budget", "latency_sample_cap", "sketch_stats",
        "store_complete_matches",
    },
    "engine_pre_exact_census.snap": set(_RETIRED_CONFIG_FIELDS),
    "engine_sketch_dispatch_auto_replan.snap": set(_RETIRED_CONFIG_FIELDS) - {"triad_sample_cap"},
    "engine_sketch_stats.snap": {"latency_sample_cap", "sketch_stats", "store_complete_matches"},
    "engine_unindexed.snap": set(_RETIRED_CONFIG_FIELDS) - {"triad_sample_cap"},
}


#: The summarizer fields each fixture carries that today's store derives:
#: every fixture predates the statistics computed on demand.
FOLDED_STATISTICS = {
    "degree_tracker", "edge_labels", "known_vertices", "signatures", "triads", "vertex_labels",
}
FIXTURE_DERIVED_FIELDS = {
    "engine_interpreted.snap": FOLDED_STATISTICS | {"observed_through", "sketch_stats"},
    "engine_live_partials.snap": FOLDED_STATISTICS | {"observed_through"},
    "engine_pre_exact_census.snap": FOLDED_STATISTICS | {"sketch_stats"},
    "engine_sketch_dispatch_auto_replan.snap": FOLDED_STATISTICS | {"observed_through", "sketch_stats"},
    "engine_sketch_stats.snap": FOLDED_STATISTICS | {"observed_through", "sketch_stats"},
    "engine_unindexed.snap": FOLDED_STATISTICS | {"observed_through", "sketch_stats"},
}


@pytest.mark.parametrize("fixture", sorted(FIXTURE_DERIVED_FIELDS))
def test_loading_retired_fields_logs_one_warning_naming_them(fixture, caplog):
    """One warning per section that carries fields today's engine drops."""
    path = os.path.join(os.path.dirname(__file__), "fixtures", "persistence", fixture)
    with caplog.at_level("WARNING", logger="repro.persistence"):
        StreamWorksEngine.restore(path)
    records = [record for record in caplog.records if record.name == "repro.persistence"]
    assert {record.levelname for record in records} == {"WARNING"}
    named = {}
    for record in records:
        section, fields = record.getMessage().split(" carries ", 1)
        assert section not in named
        named[section] = set(fields.split(": ", 1)[1].split(", "))
    expected = {
        "snapshot summarizer": FIXTURE_DERIVED_FIELDS[fixture],
        # every fixture predates the process-local wall-clock meters and
        # carries the writing process's route-plan cache hits
        "snapshot counters section": {"dispatch_memo_hits", "latency", "throughput"},
    }
    if fixture in FIXTURE_RETIRED_FIELDS:
        expected["snapshot config"] = FIXTURE_RETIRED_FIELDS[fixture]
    assert named == expected


def test_sharded_snapshot_from_a_worker_pool_restores_serially(tmp_path, caplog):
    """A snapshot a worker-pool engine wrote restores as a serial engine.

    ``tests/fixtures/persistence/sharded_pool_workers.snap`` was written by a
    two-shard engine running two worker processes (``workers: 2``), after
    seven batches of 8 of the retired-knob stream.  The pool no longer
    exists: the snapshot restores with one ``repro.persistence`` warning
    naming it (then one per ``counters`` section for the process-local
    counters it carries), and the rest of the stream gives the event history of an
    uninterrupted serial run.
    """
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "persistence", "sharded_pool_workers.snap"
    )
    _, sections = read_snapshot(path)
    assert sections["config"]["workers"] == 2
    records = retired_knob_records()
    cut = 56
    with caplog.at_level("WARNING", logger="repro.persistence"):
        resumed = ShardedStreamEngine.restore(path)
    warnings = [record for record in caplog.records if record.name == "repro.persistence"]
    assert {record.levelname for record in warnings} == {"WARNING"}
    assert "worker pool" in warnings[0].getMessage()
    assert "workers=2" in warnings[0].getMessage()
    # the two shards' and the parent's counters carry process-local counters
    assert [record.getMessage().rsplit(": ", 1)[1] for record in warnings[1:]] == [
        "dispatch_memo_hits, latency, throughput",
        "dispatch_memo_hits, latency, throughput",
        "throughput",
    ]
    assert len(resumed.events()) == 50
    oracle = register_retired_knob_queries(ShardedStreamEngine(shard_count=2))
    single = retired_knob_engine()
    for start in range(0, len(records), 8):
        oracle.process_batch(records[start : start + 8])
        single.process_batch(records[start : start + 8])
    for start in range(cut, len(records), 8):
        resumed.process_batch(records[start : start + 8])
    assert canonical(resumed.events()) == canonical(oracle.events())
    assert canonical(resumed.events()) == canonical(single.events())
    assert len(resumed.events()) == 90
    assert resumed.match_counts() == oracle.match_counts()
    # it checkpoints again without the pool
    again = str(tmp_path / "again.snap")
    resumed.checkpoint(again)
    assert "workers" not in read_snapshot(again)[1]["config"]


ADAPTIVE_DEGRADED_SOURCES = ("probe", "wire")


def adaptive_degraded_records():
    """Two collectors: "probe" jitters by up to 1.5 within its own feed and
    runs 3.0 ahead of "wire", whose feed is in order.  The lag covers the
    jitter, so "wire" holds the release horizon and nothing is late."""
    rng = random.Random(7)
    per_source = {source: [] for source in ADAPTIVE_DEGRADED_SOURCES}
    for index in range(160):
        t = index * 0.25
        source = ADAPTIVE_DEGRADED_SOURCES[index % 2]
        label = ("rel_a", "rel_b", "rel_c")[index % 3]
        per_source[source].append(
            StreamEdge(f"h{rng.randrange(6)}", f"h{rng.randrange(6)}", label, t,
                       source_label="Host", target_label="Host")
        )
    probe = per_source["probe"]
    for start in range(0, len(probe), 4):  # local jitter inside each block of 4
        block = probe[start : start + 4]
        rng.shuffle(block)
        probe[start : start + 4] = block
    return skewed_interleave(per_source, {"probe": 0.0, "wire": 3.0})


def adaptive_degraded_engine(allowed_lateness):
    engine = StreamWorksEngine(config=EngineConfig(allowed_lateness=allowed_lateness))
    for name, labels, window in (("ab", ("rel_a", "rel_b"), 3.0), ("bc", ("rel_b", "rel_c"), 2.0)):
        query = QueryGraph(name)
        for vertex in ("x", "y", "z"):
            query.add_vertex(vertex, "Host")
        query.add_edge("x", "y", labels[0])
        query.add_edge("y", "z", labels[1])
        engine.register_query(query, name=name, window=window)
    for source in ADAPTIVE_DEGRADED_SOURCES:
        engine.register_source(source)
    return engine


def test_snapshot_with_adaptive_lateness_and_degraded_policy_restores_fixed_and_dropping(
    tmp_path, caplog
):
    """A snapshot of the retired event-time options restores on today's ones.

    ``tests/fixtures/persistence/engine_adaptive_degraded.snap`` was written
    with ``allowed_lateness="adaptive"`` and ``late_policy="process_degraded"``
    by an engine with two registered collectors, after twelve batches of 8,
    with six records still buffered.  It restores with the largest
    per-source horizon it recorded (1.5) and on ``"drop"``, logging one
    ``repro.persistence`` warning for each (and a third for the process-local
    counters it carries), and the rest of the stream gives the event history
    of an uninterrupted run at that horizon.
    """
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "persistence", "engine_adaptive_degraded.snap"
    )
    _, sections = read_snapshot(path)
    assert sections["config"]["allowed_lateness"] == "adaptive"
    assert sections["config"]["late_policy"] == "process_degraded"
    with caplog.at_level("WARNING", logger="repro.persistence"):
        resumed = StreamWorksEngine.restore(path)
    warnings = [record.getMessage() for record in caplog.records if record.name == "repro.persistence"]
    assert len(warnings) == 3
    assert "allowed_lateness='adaptive'" in warnings[0] and "allowed_lateness=1.5" in warnings[0]
    assert "late_policy='process_degraded'" in warnings[1] and "'drop'" in warnings[1]
    assert warnings[2].endswith(
        "process-local meters, ignored on load: dispatch_memo_hits, latency, throughput"
    )
    assert resumed.config.allowed_lateness == resumed.reorder.allowed_lateness == 1.5
    assert resumed.config.late_policy == "drop"
    assert resumed.reorder.sources() == list(ADAPTIVE_DEGRADED_SOURCES)
    assert len(resumed.reorder) == 6 and len(resumed.events()) == 35

    records = adaptive_degraded_records()
    oracle = adaptive_degraded_engine(1.5)
    for start in range(0, len(records), 8):
        oracle.process_batch(records[start : start + 8])
    oracle.flush()
    for start in range(96, len(records), 8):
        resumed.process_batch(records[start : start + 8])
    resumed.flush()
    assert canonical(resumed.events()) == canonical(oracle.events())
    assert len(resumed.events()) == 59
    assert resumed.metrics()["reorder"]["records_late_dropped"] == 0
    # it checkpoints again with today's values
    again = str(tmp_path / "again.snap")
    resumed.checkpoint(again)
    config = read_snapshot(again)[1]["config"]
    assert (config["allowed_lateness"], config["late_policy"]) == (1.5, "drop")


def test_sharded_snapshot_with_retired_event_time_values_restores(tmp_path, caplog):
    """The sharded loader maps the retired values as the single one does:
    the parent buffer's largest per-source horizon becomes the fixed one,
    and each config carrying the degraded policy restores on ``"drop"``."""
    arrival = multisource_rmat_arrival()
    batches = batches_of(arrival)

    def build():
        engine = ShardedStreamEngine(
            config=ShardConfig(shard_count=2, engine=EngineConfig(allowed_lateness=0.05))
        )
        for source in ("probe0", "probe1"):
            engine.register_source(source)
        register_all(engine, rmat_queries())
        return engine

    oracle = build()
    for batch in batches:
        oracle.process_batch(batch)
    oracle.flush()
    assert oracle.events()

    engine = build()
    for batch in batches[:2]:
        engine.process_batch(batch)
    path = str(tmp_path / "old.snap")
    engine.checkpoint(path)
    manifest, sections = read_snapshot(path)
    # rewrite the snapshot as the retired options wrote it
    sections["config"]["engine"].update(allowed_lateness="adaptive", late_policy="process_degraded")
    for shard_id in range(2):
        sections[f"shard_{shard_id}"]["config"]["late_policy"] = "process_degraded"
    reorder = sections["reorder"]
    reorder.update(
        allowed_lateness="adaptive", late_policy="process_degraded", records_late_degraded=0,
        adaptive_quantile=0.99, adaptive_sample_cap=256, adaptive_refresh=32, adaptive_floor=0.0,
    )
    for (_, source), lateness in zip(reorder["sources"], (0.05, 0.01)):
        source.update(lateness=lateness, samples=[0.0, lateness], since_refresh=2)
    write_snapshot(path, manifest["kind"], manifest["epoch"], sections)
    restamp(path, 1)

    with caplog.at_level("WARNING", logger="repro.persistence"):
        resumed = ShardedStreamEngine.restore(path)
    warnings = [record.getMessage() for record in caplog.records if record.name == "repro.persistence"]
    assert sum("allowed_lateness=0.05" in warning for warning in warnings) == 1
    assert sum("'process_degraded'" in warning for warning in warnings) == 3  # parent + shards
    assert len(warnings) == 4
    assert resumed.config.engine.allowed_lateness == resumed.reorder.allowed_lateness == 0.05
    for batch in batches[2:]:
        resumed.process_batch(batch)
    resumed.flush()
    assert canonical(resumed.events()) == canonical(oracle.events())


def test_loading_a_current_snapshot_logs_nothing(tmp_path, caplog):
    path = str(tmp_path / "current.snap")
    StreamWorksEngine(config=EngineConfig()).checkpoint(path)
    with caplog.at_level("WARNING", logger="repro.persistence"):
        StreamWorksEngine.restore(path)
    assert not [record for record in caplog.records if record.name == "repro.persistence"]


# ----------------------------------------------------------------------
# format 1: every rewrite of the upgrade step, one row each
# ----------------------------------------------------------------------
#: Batches of ``disordered_rmat_records()`` fed before the checkpoint: by
#: then there are events, partials in the multi-leaf tree, a buffered tail
#: and recorded adjacency label orders.
UPGRADE_CUT = 3


def upgrade_engine(sharded):
    config = EngineConfig(allowed_lateness=1.0)
    if sharded:
        engine = ShardedStreamEngine(config=ShardConfig(shard_count=2, engine=config))
    else:
        engine = StreamWorksEngine(config=config)
    register_all(engine, rmat_queries())
    return engine


def key_paths(payload, path="", found=None):
    """Every dict's keys in ``payload``, by path (``[]`` stands for any list item)."""
    found = {} if found is None else found
    if isinstance(payload, dict):
        found.setdefault(path, set()).update(payload)
        for key, value in payload.items():
            key_paths(value, f"{path}.{key}", found)
    elif isinstance(payload, list):
        for item in payload:
            key_paths(item, f"{path}[]", found)
    return found


def as_single_buffer(tagged):
    """Rewrite the reorder payload as the single-watermark buffer wrote it."""

    def edit(sections):
        reorder = sections["reorder"]
        ((source, _),) = reorder["sources"]
        assert source == DEFAULT_SOURCE  # a sourceless stream: one implicit source
        assert reorder["watermark_floor"] == reorder["max_seen"] - reorder["allowed_lateness"]
        for name in ("idle_timeout", "watermark_floor", "sources"):
            del reorder[name]
        reorder["records_late"] = reorder["records_late_dropped"]
        if tagged:
            reorder["kind"] = "single"
        else:
            del reorder["kind"]

    return edit


def as_adaptive(sections):
    sections["config"]["allowed_lateness"] = "adaptive"
    reorder = sections["reorder"]
    reorder.update(
        allowed_lateness="adaptive", adaptive_quantile=0.99, adaptive_sample_cap=256,
        adaptive_refresh=32, adaptive_floor=0.0,
    )
    for _, source in reorder["sources"]:
        source.update(lateness=1.0, samples=[0.25, 1.0], since_refresh=2)


def as_degraded(sections):
    sections["config"]["late_policy"] = "process_degraded"
    sections["reorder"].update(late_policy="process_degraded", records_late_degraded=0)


def with_root_completions(sections):
    """Each SJ-tree root -- the last node built -- holds its query's completions."""
    stored = 0
    for payload in sections["queries"]:
        _, root = payload["matcher"]["tree"]["nodes"][-1]
        root["matches"] = [
            event["m"] for event in sections["events"] if event["q"] == payload["name"]
        ]
        root["total_inserted"] = len(root["matches"])
        stored += len(root["matches"])
    assert stored, "no completion before the cut -- vacuous"


def before_lazy_leaves(sections):
    for payload in sections["queries"]:
        del payload["matcher"]["epoch_end"]
        for _, node in payload["matcher"]["tree"]["nodes"]:
            node.pop("work", None)
            node.pop("routed_mark", None)
            node.pop("stored_mark", None)


def before_replanning(sections):
    del sections["counters"]["plan_monitor"], sections["counters"]["replan_next_check"]
    for name in ("replan_threshold", "replan_check_every"):
        del sections["config"][name]
    for payload in sections["queries"]:
        del payload["plan_version"]


def for_each_query(edit):
    def apply(sections):
        for payload in sections["queries"]:
            edit(payload)

    return apply


def for_each_shard(edit):
    def apply(sections):
        for shard_id in range(sections["config"]["shard_count"]):
            edit(sections[f"shard_{shard_id}"])

    return apply


PROCESS_LOCAL = "snapshot counters section carries process-local meters, ignored on load: "

#: One row per rewrite of :func:`repro.persistence.upgrade.upgrade`: whether
#: the snapshot is sharded, the edit that turns a current snapshot into the
#: format-1 shape, and the ``repro.persistence`` warnings its restore logs.
UPGRADE_ROWS = {
    "config: retired fields": (
        False,
        lambda sections: sections["config"].update(columnar=False, sketch_stats=True),
        ["snapshot config carries retired fields, ignored on load: columnar, sketch_stats"],
    ),
    "config: adaptive lateness": (
        False,
        as_adaptive,
        [
            "snapshot config sets allowed_lateness='adaptive', restored with the largest "
            "per-source horizon it recorded: allowed_lateness=1.0"
        ],
    ),
    "config: degraded late policy": (
        False,
        as_degraded,
        ["snapshot config sets late_policy='process_degraded', restored on 'drop': "
         "late records are dropped"],
    ),
    "summarizer: derived fields": (
        False,
        lambda sections: sections["summarizer"].update(edge_labels={}, triads={}),
        ["snapshot summarizer carries derived fields, ignored on load: edge_labels, triads"],
    ),
    "reorder: single-watermark buffer": (False, as_single_buffer(tagged=True), []),
    "reorder: untagged buffer": (False, as_single_buffer(tagged=False), []),
    "graph: no adjacency label order": (
        False, lambda sections: sections["graph"]["graph"].pop("adjacency_label_order"), [],
    ),
    "cold: no ring": (False, lambda sections: sections.pop("cold"), []),
    "interning: no table": (False, lambda sections: sections.pop("interning"), []),
    "queries: stored-completions flag": (
        False, for_each_query(lambda payload: payload.update(store_complete_matches=True)), [],
    ),
    "queries: interpreted plan marker": (
        False, for_each_query(lambda payload: payload.update(compiled_plan=None)), [],
    ),
    "matcher: duplicate memory and sweep throttle": (
        False,
        for_each_query(
            lambda payload: payload["matcher"].update(
                dedup_identities={"entries": [], "front": {}},
                dedup_edge_sets={"entries": [], "front": {}},
                reported_identities=[],
                reported_edge_sets=[],
                expiry_min_interval=0.0,
            )
        ),
        [],
    ),
    "matcher: before lazy leaves": (False, before_lazy_leaves, []),
    "tree: last expiry sweep": (
        False,
        for_each_query(lambda payload: payload["matcher"]["tree"].update(last_expiry_sweep=0.0)),
        [],
    ),
    "tree: root completions": (False, with_root_completions, []),
    "counters: process-local": (
        False,
        lambda sections: sections["counters"].update(
            latency={"count": 3}, throughput={"records": 120}, dispatch_memo_hits=7
        ),
        [PROCESS_LOCAL + "dispatch_memo_hits, latency, throughput"],
    ),
    "counters: retired paths": (
        False,
        lambda sections: (
            sections["counters"].update(records_per_record=0),
            sections["counters"]["dispatch"].update(
                front_probes=0, front_rejections=0, front_false_positives=0
            ),
        ),
        [],
    ),
    "counters: added at zero": (
        False,
        lambda sections: [
            sections["counters"].pop(name)
            for name in (
                "records_cold", "batches_vectorized", "records_prefiltered", "leaves_pruned"
            )
        ],
        [],
    ),
    "counters: before replanning": (False, before_replanning, []),
    "sharded: worker pool": (
        True,
        lambda sections: sections["config"].update(workers=2),
        ["snapshot sharded config carries a worker pool, restored serially: workers=2"],
    ),
    "sharded: retired config fields": (
        True,
        lambda sections: sections["config"]["engine"].update(columnar=False),
        ["snapshot config carries retired fields, ignored on load: columnar"],
    ),
    "sharded: process-local counters": (
        True,
        lambda sections: sections["counters"].update(throughput={"records": 120}),
        [PROCESS_LOCAL + "throughput"],
    ),
    "sharded: before replanning": (
        True, lambda sections: sections["counters"].pop("replan_next_check"), [],
    ),
    "sharded: shard sections": (
        True,
        for_each_shard(lambda shard: shard["counters"].update(dispatch_memo_hits=7)),
        [PROCESS_LOCAL + "dispatch_memo_hits"] * 2,
    ),
}


def checkpoint_as(tmp_path, sharded, version, edit):
    """Checkpoint an upgrade engine at the cut, rewrite the file with ``edit``
    and stamp ``version``; return the path and the key paths as written."""
    engine = upgrade_engine(sharded)
    for batch in batches_of(disordered_rmat_records())[:UPGRADE_CUT]:
        engine.process_batch(batch)
    path = str(tmp_path / f"format{version}.snap")
    engine.checkpoint(path)
    manifest, sections = read_snapshot(path)
    current = key_paths(sections)
    edit(sections)
    write_snapshot(path, manifest["kind"], manifest["epoch"], sections)
    restamp(path, version)
    return path, current


def restore_logged(path, sharded, caplog):
    """Restore the snapshot at ``path``; return the engine and its ``repro.persistence`` warnings."""
    engine_cls = ShardedStreamEngine if sharded else StreamWorksEngine
    with caplog.at_level("WARNING", logger="repro.persistence"):
        engine = engine_cls.restore(path)
    return engine, [r.getMessage() for r in caplog.records if r.name == "repro.persistence"]


def resume(engine):
    """Feed an engine restored at the cut the rest of the stream."""
    for batch in batches_of(disordered_rmat_records())[UPGRADE_CUT:]:
        engine.process_batch(batch)
    engine.flush()
    return engine


def uninterrupted(sharded):
    engine = upgrade_engine(sharded)
    for batch in batches_of(disordered_rmat_records()):
        engine.process_batch(batch)
    engine.flush()
    return engine


def upgraded_key_paths(path, version):
    manifest, sections = read_snapshot(path)
    return key_paths(upgrade(manifest["kind"], sections, version))


@pytest.mark.parametrize("row", sorted(UPGRADE_ROWS))
def test_each_format_1_rewrite_restores_and_resumes(row, tmp_path, caplog):
    """A format-1 snapshot restores through the upgrade step, warns as listed,
    and resumes to the uninterrupted run's events; upgraded, its sections have
    exactly the keys of the format-4 snapshot it was made from."""
    sharded, edit, expected = UPGRADE_ROWS[row]
    path, current = checkpoint_as(tmp_path, sharded, 1, edit)
    resumed, warnings = restore_logged(path, sharded, caplog)
    assert warnings == expected
    assert upgraded_key_paths(path, 1) == current
    resume(resumed)
    oracle = uninterrupted(sharded)
    assert canonical(resumed.events()) == canonical(oracle.events())
    assert resumed.match_counts() == oracle.match_counts()


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "persistence")

#: Key paths whose keys are the snapshot's schema, not its data (attribute
#: maps and plan estimates are data), compared across different engines.
SCHEMA_PATHS = (
    "", ".config", ".summarizer", ".graph", ".graph.graph", ".reorder", ".reorder.sources[][]",
    ".queries[]", ".queries[].plan", ".queries[].matcher", ".queries[].matcher.stats",
    ".queries[].matcher.tree", ".queries[].matcher.tree.nodes[][]",
    ".queries[].matcher.tree.nodes[][].work", ".interning", ".events[]", ".counters",
    ".counters.dispatch", ".counters.plan_monitor",
)


def schema_keys(sections):
    found = key_paths(sections)
    return {path: found[path] for path in SCHEMA_PATHS if path in found}


@pytest.mark.parametrize(
    "fixture", sorted(name for name in os.listdir(FIXTURES) if name.endswith(".snap"))
)
def test_every_fixture_upgrades_to_the_current_shape(fixture, tmp_path):
    """Upgraded, each format-1 fixture carries the keys a format-4 snapshot does."""
    manifest, sections = read_snapshot(os.path.join(FIXTURES, fixture))
    assert manifest["format_version"] == 1
    engine = upgrade_engine(sharded=False)
    for batch in batches_of(disordered_rmat_records())[:UPGRADE_CUT]:
        engine.process_batch(batch)
    current = engine_sections(engine)
    upgraded = upgrade(manifest["kind"], sections, 1)
    if manifest["kind"] == SHARDED_KIND:
        sharded = upgrade_engine(sharded=True)
        path = str(tmp_path / "sharded.snap")
        sharded.checkpoint(path)
        parent = read_snapshot(path)[1]
        assert set(upgraded) == set(parent)
        for name in ("config", "counters"):
            assert set(upgraded[name]) == set(parent[name])
        shards = [upgraded[name] for name in upgraded if name.startswith("shard_")]
    else:
        shards = [upgraded]
    want = schema_keys(current)
    for shard in shards:
        have = schema_keys(shard)
        assert have == {path: want[path] for path in have}


@pytest.mark.parametrize("sharded", [False, True], ids=["engine", "sharded"])
def test_a_format_4_snapshot_restores_without_the_upgrade_step(
    sharded, tmp_path, caplog, monkeypatch
):
    """The upgrade step stays out of the current path: a snapshot this build
    writes restores without it and logs nothing on ``repro.persistence``."""
    import repro.persistence.upgrade as upgrade_module

    def refuse(kind, sections, version):
        raise AssertionError("a format-4 snapshot went through the upgrade step")

    monkeypatch.setattr(upgrade_module, "upgrade", refuse)
    engine = upgrade_engine(sharded)
    for batch in batches_of(disordered_rmat_records())[:UPGRADE_CUT]:
        engine.process_batch(batch)
    path = str(tmp_path / "current.snap")
    engine.checkpoint(path)
    assert read_manifest(path)["format_version"] == 4
    with caplog.at_level("DEBUG", logger="repro.persistence"):
        resumed = type(engine).restore(path)
    assert not [record for record in caplog.records if record.name == "repro.persistence"]
    assert canonical(resumed.events()) == canonical(engine.events())


# ----------------------------------------------------------------------
# format 3: options whose default became the one behaviour
# ----------------------------------------------------------------------
#: The config knobs format 3 still wrote, at the defaults every engine runs.
RETIRED_DEFAULTS = dict(record_latency=True, plan_strategy=Strategy.SELECTIVITY, primitive_size=2)
REMOVED_FIELDS = (
    "snapshot config sets removed fields, restored on their defaults "
    "(record_latency=True, plan_strategy='selectivity', primitive_size=2): "
)


def as_format_3(sections, **config):
    """Add the option keys format 3 wrote, at their defaults unless ``config`` says otherwise."""
    values = dict(RETIRED_DEFAULTS, **config)
    if "engine" in sections["config"]:  # a sharded parent
        sections["config"]["engine"].update(values)
        engines = [sections[name] for name in sections if name.startswith("shard_")]
        windows = [payload["window"] for payload in sections["queries"]]
    else:
        engines, windows = [sections], []
    for engine in engines:
        engine["config"].update(values)
        engine["graph"]["evict_isolated_vertices"] = True
        windows.append(engine["graph"]["window"])
        for payload in engine["queries"]:
            payload["dedupe_structural"] = engine["config"]["dedupe_structural"]
            windows.append(payload["window"])
    for window in windows:
        window["strict"] = True
    return sections


def without_stored_marks(sections):
    """The format-2 shape: no leaf records the partials stored when its epoch began."""
    engines = [sections[name] for name in sections if name.startswith("shard_")] or [sections]
    for engine in engines:
        for payload in engine["queries"]:
            for _, node in payload["matcher"]["tree"]["nodes"]:
                node.pop("stored_mark", None)


@pytest.mark.parametrize("sharded", [False, True], ids=["engine", "sharded"])
def test_a_format_3_snapshot_with_off_default_knobs_warns_once_and_resumes(
    sharded, tmp_path, caplog
):
    """Latency recording and the planning defaults decide no event: a format-3
    snapshot that set them otherwise restores on the defaults, with one
    warning naming what it set, and resumes to the uninterrupted run."""
    path, current = checkpoint_as(
        tmp_path, sharded, 3,
        lambda sections: as_format_3(
            sections, record_latency=False, plan_strategy=Strategy.ANTI_SELECTIVE,
            primitive_size=1,
        ),
    )
    resumed, warnings = restore_logged(path, sharded, caplog)
    assert warnings == [
        REMOVED_FIELDS + "plan_strategy='anti_selective', primitive_size=1, record_latency=False"
    ]
    assert upgraded_key_paths(path, 3) == current
    assert canonical(resume(resumed).events()) == canonical(uninterrupted(sharded).events())


@pytest.mark.parametrize("version", [1, 2, 3])
@pytest.mark.parametrize("sharded", [False, True], ids=["engine", "sharded"])
def test_formats_1_to_3_restore_through_the_chained_steps(version, sharded, tmp_path, caplog):
    """An older snapshot takes every step from its format on, in order: a
    format-1 config's retired knob and a format-2 tree's missing marks are
    rewritten before the format-3 options are dropped."""
    retired = "snapshot config carries retired fields, ignored on load: columnar"

    def edit(sections):
        as_format_3(sections, primitive_size=1)
        if version < 3:
            without_stored_marks(sections)
        if version < 2:
            config = sections["config"]
            (config["engine"] if sharded else config).update(columnar=False)

    path, current = checkpoint_as(tmp_path, sharded, version, edit)
    resumed, warnings = restore_logged(path, sharded, caplog)
    expected = [retired] if version < 2 else []
    expected.append(REMOVED_FIELDS + "primitive_size=1")
    assert warnings == expected
    assert upgraded_key_paths(path, version) == current
    assert canonical(resume(resumed).events()) == canonical(uninterrupted(sharded).events())


#: Per removed option, whether the snapshot is sharded, the value that set
#: it otherwise, and the words the error names it by.
EVENT_CHANGING_OPTIONS = {
    "graph window not strict": (
        False, lambda sections: sections["graph"]["window"].update(strict=False), "non-strict",
    ),
    "query window not strict": (
        False, lambda sections: sections["queries"][0]["window"].update(strict=False),
        "non-strict",
    ),
    "isolated vertices kept": (
        False,
        lambda sections: sections["graph"].update(evict_isolated_vertices=False),
        "evict_isolated_vertices=False",
    ),
    "query dedupe override": (
        False,
        lambda sections: sections["queries"][0].update(dedupe_structural=True),
        "overrides dedupe_structural",
    ),
    "sharded: parent query window not strict": (
        True, lambda sections: sections["queries"][0]["window"].update(strict=False),
        "non-strict",
    ),
    "sharded: a shard keeps isolated vertices": (
        True,
        lambda sections: sections["shard_1"]["graph"].update(evict_isolated_vertices=False),
        "evict_isolated_vertices=False",
    ),
}


@pytest.mark.parametrize("version", [1, 2, 3])
@pytest.mark.parametrize("option", sorted(EVENT_CHANGING_OPTIONS))
def test_a_removed_option_that_would_change_events_refuses_to_restore(
    option, version, tmp_path
):
    """A snapshot that ran a removed option off its default would emit other
    events on the one behaviour left, so its restore raises a typed error
    naming the option instead of resuming differently."""
    sharded, set_it, named = EVENT_CHANGING_OPTIONS[option]

    def edit(sections):
        as_format_3(sections)
        set_it(sections)

    path, _ = checkpoint_as(tmp_path, sharded, version, edit)
    engine_cls = ShardedStreamEngine if sharded else StreamWorksEngine
    with pytest.raises(RemovedOptionError, match=named):
        engine_cls.restore(path)


def test_a_non_strict_unbounded_window_restores():
    """Strictness decides nothing on an unbounded window, so a format-3
    snapshot holding one restores."""
    engine = StreamWorksEngine()
    register_all(engine, [(name, query, float("inf")) for name, query, _ in rmat_queries()])
    records = disordered_rmat_records()
    engine.process_batch(records[:100])
    sections = as_format_3(engine_sections(engine))
    for payload in sections["queries"] + [sections["graph"]]:
        payload["window"]["strict"] = False
    restored = load_engine_sections(upgrade(ENGINE_KIND, sections, 3))
    assert not restored.graph.window.bounded
    restored.process_batch(records[100:])
    engine.process_batch(records[100:])
    assert canonical(restored.events()) == canonical(engine.events())


@pytest.mark.parametrize(
    "edit",
    [
        lambda stats: stats.update(to_dict=1),  # names a method, not a counter
        lambda stats: stats.update(reported_matches=3),  # names nothing
        lambda stats: stats.pop("edges_processed"),
    ],
    ids=["method-name", "unknown", "missing"],
)
def test_matcher_stats_read_only_their_declared_counters(edit, tmp_path):
    path = _snapshot_engine(tmp_path)
    manifest, sections = read_snapshot(path)
    edit(sections["queries"][0]["matcher"]["stats"])
    with pytest.raises((KeyError, ValueError)):
        MatcherStats.from_dict(sections["queries"][0]["matcher"]["stats"])
    write_snapshot(path, manifest["kind"], manifest["epoch"], sections)
    with pytest.raises(SnapshotCorruptError):
        StreamWorksEngine.restore(path)


@pytest.mark.parametrize("sharded", [False, True], ids=["engine", "sharded"])
@pytest.mark.parametrize("field", ["collect_statistics", "track_triads", "dedupe_structural"])
def test_a_snapshot_config_flag_that_is_not_a_bool_is_a_typed_error(tmp_path, field, sharded):
    path = _snapshot_engine(tmp_path, sharded)
    manifest, sections = read_snapshot(path)
    config = sections["config"]["engine"] if sharded else sections["config"]
    config[field] = "no"
    write_snapshot(path, manifest["kind"], manifest["epoch"], sections)
    restore = ShardedStreamEngine.restore if sharded else StreamWorksEngine.restore
    with pytest.raises(SnapshotCorruptError, match=field):
        restore(path)


@pytest.mark.parametrize("sharded", [False, True])
def test_two_runs_of_one_stream_write_byte_identical_snapshot_files(tmp_path, sharded):
    """The wall-clock meters are process-local, so a snapshot is a function
    of the stream alone: two engines fed the same records write the same
    bytes."""
    paths = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        paths.append(_snapshot_engine(tmp_path / run, sharded=sharded))
    with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
        assert first.read() == second.read()
    sections = read_snapshot(paths[0])[1]
    assert not {"throughput", "latency"} & set(sections["counters"])


def test_a_restored_engine_lays_out_and_reports_as_the_uninterrupted_one(tmp_path):
    """A restored plan declares its vertices in the registered order.

    ``exfil`` declares ``user, staging, internal, external``, which is not
    their name order.  Checkpoint after 300 records, restore, resume: every
    event equals the uninterrupted run's, the order of its ``vertex_map``
    and ``edge_map`` keys included, and the two final snapshots are the
    same bytes (the route-plan cache hits, which a restored engine counts
    from zero, are not in a snapshot)."""
    records = exfil_records(900)
    batches = [records[start : start + 100] for start in range(0, len(records), 100)]

    def fresh():
        engine = StreamWorksEngine()
        engine.register_query(exfil_query(), window=EXFIL_WINDOW)
        return engine

    def described(events):
        return [
            (
                event.query_name,
                event.sequence,
                event.trigger_index,
                event.detected_at,
                list(event.match.vertex_map.items()),
                list(event.match.edge_map.items()),
            )
            for event in events
        ]

    whole = fresh()
    for position, batch in enumerate(batches):
        if position == 3:  # the same checkpoint epochs as the cut run
            whole.checkpoint(str(tmp_path / "whole_at_cut.snap"))
        whole.process_batch(batch)
    cut = fresh()
    for batch in batches[:3]:
        cut.process_batch(batch)
    cut.checkpoint(str(tmp_path / "cut.snap"))
    resumed = StreamWorksEngine.restore(str(tmp_path / "cut.snap"))
    for batch in batches[3:]:
        resumed.process_batch(batch)
    assert len(whole.events()) > len(cut.events()) > 0
    assert described(resumed.events()) == described(whole.events())
    whole.checkpoint(str(tmp_path / "whole.snap"))
    resumed.checkpoint(str(tmp_path / "resumed.snap"))
    with open(tmp_path / "whole.snap", "rb") as first, open(tmp_path / "resumed.snap", "rb") as second:
        assert first.read() == second.read()


#: ``EngineConfig`` values off the default, for every parameter but
#: ``late_policy`` (``"drop"`` is the only value it accepts).
_OFF_DEFAULT = dict(
    default_window=5.0,
    track_triads=False,
    dedupe_structural=True,
    allowed_lateness=0.5,
    idle_source_timeout=2.0,
    checkpoint_every=7,
    checkpoint_path="autosave.snap",
)
#: ``collect_statistics=False`` rules out a replan threshold, so two configs
#: between them move every parameter off its default.
OFF_DEFAULT_CONFIGS = [
    dict(_OFF_DEFAULT, collect_statistics=False),
    dict(_OFF_DEFAULT, replan_threshold=0.5, replan_check_every=100),
]


@pytest.mark.parametrize("sharded", [False, True])
@pytest.mark.parametrize("values", OFF_DEFAULT_CONFIGS, ids=["no-statistics", "replanning"])
def test_every_config_parameter_reads_back_equal_after_a_restore(tmp_path, values, sharded):
    """The persisted config fields are the constructor's parameters, read by
    name; a parameter stored under another attribute name fails here."""
    parameters = inspect.signature(EngineConfig).parameters
    assert set().union(*OFF_DEFAULT_CONFIGS) | {"late_policy"} == set(parameters)
    assert all(value != parameters[name].default for name, value in values.items())
    expected = {name: parameter.default for name, parameter in parameters.items()}
    expected.update(values)
    path = str(tmp_path / "config.snap")
    if sharded:
        config = ShardConfig(shard_count=2, engine=EngineConfig(**values))
        ShardedStreamEngine(config=config).checkpoint(path)
        restored = ShardedStreamEngine.restore(path).config.engine
    else:
        StreamWorksEngine(config=EngineConfig(**values)).checkpoint(path)
        restored = StreamWorksEngine.restore(path).config
    assert {name: getattr(restored, name) for name in parameters} == expected


@pytest.mark.parametrize("sharded", [False, True])
def test_snapshot_config_keys_are_the_engine_config_signature_in_order(tmp_path, sharded):
    """The persisted config is derived from ``EngineConfig``'s signature:
    its keys are exactly the constructor's parameters, in their order."""
    sections = read_snapshot(_snapshot_engine(tmp_path, sharded=sharded))[1]
    config = sections["config"]["engine"] if sharded else sections["config"]
    assert list(config) == list(inspect.signature(EngineConfig).parameters)


@pytest.mark.parametrize("sharded", [False, True])
def test_a_restored_engine_meters_only_its_own_records(tmp_path, sharded):
    """The throughput meter and the latency samples are process-local: a
    restored engine starts both empty and counts only what it processes."""
    path = _snapshot_engine(tmp_path, sharded=sharded)
    restore = ShardedStreamEngine.restore if sharded else StreamWorksEngine.restore
    resumed = restore(path)

    def latency_counts(metrics):
        engines = metrics["shards"].values() if sharded else [metrics]
        return [engine_metrics["latency"]["count"] for engine_metrics in engines]

    metrics = resumed.metrics()
    assert metrics["throughput"]["items"] == 0
    assert metrics["throughput"]["elapsed_s"] == 0.0
    assert set(latency_counts(metrics)) == {0}

    remainder = rmat_records(160)[120:]
    resumed.process_batch(remainder)
    metrics = resumed.metrics()
    assert metrics["throughput"]["items"] == len(remainder)
    # a record routed to several shards is sampled on each of them
    counts = latency_counts(metrics)
    assert sum(counts) > 0 and max(counts) <= len(remainder)


def test_restore_rejects_missing_file(tmp_path):
    with pytest.raises(SnapshotError):
        StreamWorksEngine.restore(str(tmp_path / "does_not_exist.snap"))


def test_snapshot_sections_are_inspectable(tmp_path):
    """read_snapshot exposes named sections -- the operator debugging surface."""
    path = _snapshot_engine(tmp_path)
    manifest, sections = read_snapshot(path)
    assert manifest["kind"] == "streamworks-engine"
    assert manifest["epoch"] == 1
    for name in ("config", "graph", "summarizer", "reorder", "queries", "events", "counters"):
        assert name in sections
    assert len(sections["queries"]) == len(rmat_queries())


# ----------------------------------------------------------------------
# multi-source event time: crash at every boundary
# ----------------------------------------------------------------------
def multisource_rmat_arrival(count=200, seed=29, skews={"probe0": 0.0, "probe1": 0.2}):
    """The rmat stream split across skewed collectors, in arrival order."""
    names = sorted(skews)
    tagged = tag_sources(
        rmat_records(count, seed=seed), lambda i, r: names[i % len(names)]
    )
    return skewed_interleave(split_by_source(tagged), skews)


def build_multisource_engine(shard_count=None, idle_source_timeout=None):
    config = EngineConfig(allowed_lateness=0.02, idle_source_timeout=idle_source_timeout)
    if shard_count is None:
        engine = StreamWorksEngine(config=config)
    else:
        engine = ShardedStreamEngine(
            config=ShardConfig(shard_count=shard_count, engine=config)
        )
    for source in ("probe0", "probe1"):
        engine.register_source(source)
    register_all(engine, rmat_queries())
    return engine


@pytest.mark.parametrize("shard_count", [None, 2], ids=["single", "sharded_x2"])
def test_multisource_buffer_state_survives_crash_at_every_boundary(tmp_path, shard_count):
    """Per-source watermark state (clocks, floor, silent registrations) must
    cross the crash: the resumed run releases exactly what the uninterrupted
    run releases, batch boundary by batch boundary."""
    arrival = multisource_rmat_arrival()
    batches = batches_of(arrival)
    engine_cls = StreamWorksEngine if shard_count is None else ShardedStreamEngine

    oracle = build_multisource_engine(shard_count)
    for batch in batches:
        oracle.process_batch(batch)
    oracle.flush()
    assert oracle.events()

    path = str(tmp_path / "multisource.snap")
    for crash_after in range(len(batches)):
        engine = build_multisource_engine(shard_count)
        for batch in batches[: crash_after + 1]:
            engine.process_batch(batch)
        engine.checkpoint(path)
        buffered = len(engine.reorder)
        sources = engine.reorder.sources()
        del engine
        resumed = engine_cls.restore(path)
        assert isinstance(resumed.reorder, MultiSourceReorderBuffer)
        assert len(resumed.reorder) == buffered  # the held tail crossed over
        assert resumed.reorder.sources() == sources  # silent sources too
        for batch in batches[crash_after + 1 :]:
            resumed.process_batch(batch)
        resumed.flush()
        assert_resumed_equals_oracle(
            oracle, resumed, f"multisource shards={shard_count}, crash after {crash_after}"
        )


@pytest.mark.parametrize("shard_count", [None, 2], ids=["single", "sharded_x2"])
def test_multisource_snapshot_before_the_first_batch_resumes(tmp_path, shard_count):
    """A snapshot of registered but silent collectors holds their registration:
    the resumed engine waits for both, as the uninterrupted one does."""
    batches = batches_of(multisource_rmat_arrival())
    engine_cls = StreamWorksEngine if shard_count is None else ShardedStreamEngine

    oracle = build_multisource_engine(shard_count)
    for batch in batches:
        oracle.process_batch(batch)
    oracle.flush()
    assert oracle.events()

    path = str(tmp_path / "empty.snap")
    build_multisource_engine(shard_count).checkpoint(path)
    resumed = engine_cls.restore(path)
    assert resumed.reorder.sources() == ["probe0", "probe1"]
    for batch in batches:
        resumed.process_batch(batch)
    resumed.flush()
    assert_resumed_equals_oracle(oracle, resumed, f"multisource shards={shard_count}, empty cut")


def test_idle_timeout_state_survives_crash(tmp_path):
    """A crash while one collector is silent must resume with the same idle
    determination: the timed-out source stays excluded, the held tail and
    the monotone floor are identical."""
    arrival = [record for record in multisource_rmat_arrival() if record.source_id == "probe0"]
    batches = batches_of(arrival)

    def build():
        return build_multisource_engine(idle_source_timeout=0.05)

    oracle = build()
    for batch in batches:
        oracle.process_batch(batch)
    oracle.flush()

    path = str(tmp_path / "idle.snap")
    engine = build()
    for batch in batches[: len(batches) // 2]:
        engine.process_batch(batch)
    # probe1 never spoke: with the timeout it must not freeze the horizon
    assert "probe1" in engine.metrics()["reorder"]["idle_sources"]
    engine.checkpoint(path)
    del engine
    resumed = StreamWorksEngine.restore(path)
    assert "probe1" in resumed.metrics()["reorder"]["idle_sources"]
    for batch in batches[len(batches) // 2 :]:
        resumed.process_batch(batch)
    resumed.flush()
    assert_resumed_equals_oracle(oracle, resumed, "idle-timeout crash")
