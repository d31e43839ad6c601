"""Differential replan-conformance oracle: adaptive replanning never changes results.

The adaptive-replanning loop (``EngineConfig(replan_threshold=...,
replan_check_every=...)``) re-decomposes a running query's plan mid-stream
whenever live selectivity drifts past the threshold, migrating partial-match
state into the new SJ-tree.  Its hard contract is the one that makes it
shippable: *replanning changes only the cost, never the answer*.  This suite
pins that differentially:

* **Conformance matrix** — auto-replan on vs. off must produce byte-identical
  event lists (same matches, order, detection times, sequence numbers) across
  rmat / netflow / drifting-selectivity workloads × shard counts 1/2/4 × both
  schedulers; the single engine is also held against the exhaustive
  reference, which searches every leaf on every record.  Every adaptive
  run also
  asserts ``triggers_fired > 0`` (plans are stats-blind at registration, so
  the first cadence check always triggers) and that some trigger rebuilt a
  tree (a trigger whose new plan builds the installed tree keeps it, so
  ``plans_applied`` counts rebuilds only) — the suite cannot pass vacuously
  with replanning never firing or never migrating.
* **Quiescent idempotence** — immediately re-running ``run_replan_check()``
  after a check must never re-trigger: the freshly-installed plan's recorded
  estimates match the live estimator by construction, so a second check at
  the same stream position scores zero error.
* **Checkpoint property** (hypothesis) — random stream × random drift point ×
  random threshold × checkpoint at a random batch boundary (including
  immediately after a replan, since every batch boundary is a check boundary
  here) ⇒ the resumed engine finishes byte-for-byte equal to both the
  uninterrupted adaptive run and the never-replanned oracle, with monitor
  counters and plan versions carried exactly.
* **Mutation meta-tests** — deliberately corrupt the migrated state (drop a
  partial bucket; keep the superseded plan's estimates as if the monitor
  reset were skipped) and assert the oracle *catches* it, proving the suite
  has teeth.
"""

from __future__ import annotations

import pytest
from differential import ExhaustiveReferenceEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, ShardConfig, ShardedStreamEngine, StreamWorksEngine
from repro.query.query_graph import QueryGraph
from repro.workloads import (
    DriftingConfig,
    DriftingGenerator,
    NetflowConfig,
    NetflowGenerator,
    RmatConfig,
    RmatGenerator,
)

BATCH_SIZE = 50
THRESHOLD = 0.5
CHECK_EVERY = 100


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
        ("ab", chain_query("ab", ["rel_a", "rel_b", "rel_a"]), 0.5),
        ("cc", chain_query("cc", ["rel_c", "rel_c"], {0: "TypeA"}), 0.5),
        ("wild", chain_query("wild", [None, "rel_a"]), 0.3),
    ]


def netflow_queries():
    return [
        ("flows", chain_query("flows", ["connectsTo", "connectsTo"]), 0.4),
        ("login", chain_query("login", ["loginTo", "connectsTo"], {0: "User"}), 0.6),
        # the one whose tree the window's statistics change
        ("hops", chain_query("hops", ["connectsTo", "connectsTo", "resolvesTo"]), 0.4),
    ]


def drifting_queries():
    return [
        ("ab", chain_query("ab", ["alpha", "beta"]), 0.5),
        ("ggg", chain_query("ggg", ["gamma", "gamma", "gamma"]), 0.5),
        ("wild", chain_query("wild", [None, "alpha"]), 0.3),
        # the one whose tree the drift changes
        ("abg", chain_query("abg", ["alpha", "beta", "gamma"]), 0.5),
    ]


def rmat_records(count=400, seed=29):
    return list(RmatGenerator(RmatConfig(seed=seed, scale=6)).stream(count))


def netflow_records(count=400, seed=11):
    return list(NetflowGenerator(NetflowConfig(seed=seed)).stream(count))


def drifting_records(count=600, seed=7, drift_at=250):
    generator = DriftingGenerator(DriftingConfig(seed=seed, drift_at=drift_at))
    return list(generator.stream(count))


CASES = {
    "rmat": (rmat_records, rmat_queries),
    "netflow": (netflow_records, netflow_queries),
    "drifting": (drifting_records, drifting_queries),
}


def canonical(events):
    return [
        (event.query_name, event.match.portable_identity(), event.detected_at, event.sequence)
        for event in events
    ]


def register_all(engine, query_specs):
    for name, query, window in query_specs:
        engine.register_query(query, name=name, window=window)


def replay_batched(engine, records):
    events = []
    for start in range(0, len(records), BATCH_SIZE):
        events.extend(engine.process_batch(records[start : start + BATCH_SIZE]))
    return events


#: The never-replanned oracle: the same engine on a static plan, or the
#: exhaustive reference (every leaf searched on every record).
STATIC_ORACLES = {"engine": StreamWorksEngine, "reference": ExhaustiveReferenceEngine}


def adaptive_config(threshold=THRESHOLD, check_every=CHECK_EVERY):
    return EngineConfig(replan_threshold=threshold, replan_check_every=check_every)


def assert_adaptive_run_conformant(adaptive, reference, replan_metrics, label):
    """The three-part oracle every adaptive run must satisfy.

    (i) events byte-identical to the static-plan reference, (ii) replanning
    demonstrably fired and rebuilt at least one tree (no vacuous pass),
    (iii) a quiescent re-check is idempotent: the freshly-installed plans
    score zero drift, so no new trigger may fire at the same stream
    position.
    """
    assert canonical(adaptive) == reference, f"{label}: adaptive events diverged"
    assert replan_metrics["triggers_fired"] > 0, f"{label}: replanning never fired (vacuous)"
    assert 0 < replan_metrics["plans_applied"] <= replan_metrics["triggers_fired"], label
    assert any(version > 0 for version in replan_metrics["plan_versions"].values())


def assert_quiescent_recheck_idempotent(engine):
    """Post-check, a second check at the same position must not re-trigger."""
    engine.run_replan_check()  # settle any drift accumulated since the last cadence tick
    before = engine.plan_monitor.triggers_fired
    assert engine.run_replan_check() == []
    assert engine.plan_monitor.triggers_fired == before


# ----------------------------------------------------------------------
# single-engine conformance matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("oracle_kind", sorted(STATIC_ORACLES))
class TestSingleEngineReplanConformance:
    def test_batched_conformance(self, case, oracle_kind):
        make_records, query_specs = CASES[case]
        records = make_records()
        oracle = STATIC_ORACLES[oracle_kind](config=EngineConfig())
        register_all(oracle, query_specs())
        reference = canonical(replay_batched(oracle, records))
        assert reference, f"case {case} produced no events -- not exercising the engines"

        adaptive = StreamWorksEngine(config=adaptive_config())
        register_all(adaptive, query_specs())
        events = replay_batched(adaptive, records)
        assert_adaptive_run_conformant(
            events, reference, adaptive.metrics()["replan"], f"{case}/batched"
        )
        assert adaptive.match_counts() == oracle.match_counts()
        assert_quiescent_recheck_idempotent(adaptive)

    def test_per_record_conformance(self, case, oracle_kind):
        make_records, query_specs = CASES[case]
        records = make_records()
        oracle = STATIC_ORACLES[oracle_kind](config=EngineConfig())
        register_all(oracle, query_specs())
        reference = canonical(
            [event for record in records for event in oracle.process_record(record)]
        )
        assert reference

        adaptive = StreamWorksEngine(config=adaptive_config())
        register_all(adaptive, query_specs())
        adaptive_events = [
            event for record in records for event in adaptive.process_record(record)
        ]
        assert_adaptive_run_conformant(
            adaptive_events, reference, adaptive.metrics()["replan"], f"{case}/per-record"
        )


def test_per_record_and_batched_adaptive_runs_agree():
    # detection is anchored per record (deferred emission), so the SAME
    # adaptive config must give identical events however the stream is sliced
    records = drifting_records()
    runs = []
    for batch_size in (1, 7, BATCH_SIZE, len(records)):
        engine = StreamWorksEngine(config=adaptive_config())
        register_all(engine, drifting_queries())
        events = []
        for start in range(0, len(records), batch_size):
            events.extend(engine.process_batch(records[start : start + batch_size]))
        runs.append(canonical(events))
    assert all(run == runs[0] for run in runs[1:])


# ----------------------------------------------------------------------
# sharded conformance matrix (parent paces, shards apply)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("shard_count", (1, 2, 4))
class TestShardedReplanConformance:
    def test_serial_scheduler_conformance(self, case, shard_count):
        make_records, query_specs = CASES[case]
        records = make_records()
        oracle = StreamWorksEngine(config=EngineConfig())
        register_all(oracle, query_specs())
        reference = canonical(replay_batched(oracle, records))
        assert reference

        sharded = ShardedStreamEngine(
            config=ShardConfig(shard_count=shard_count, engine=adaptive_config())
        )
        register_all(sharded, query_specs())
        events = replay_batched(sharded, records)
        replan = sharded.metrics()["replan"]
        assert_adaptive_run_conformant(
            events, reference, replan, f"{case}/shards={shard_count}"
        )
        assert sharded.match_counts() == oracle.match_counts()
        # the parent paced the checks on the GLOBAL stream: every shard ran
        # one check per cadence tick regardless of routing
        ticks = len(records) // CHECK_EVERY
        assert replan["checks_run"] == ticks * shard_count


@pytest.mark.skipif(
    not ShardedStreamEngine.fork_available(), reason="multiprocessing fork unavailable"
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_worker_pool_scheduler_conformance(case):
    make_records, query_specs = CASES[case]
    records = make_records()
    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, query_specs())
    reference = canonical(replay_batched(oracle, records))

    with ShardedStreamEngine(
        config=ShardConfig(shard_count=3, workers=2, engine=adaptive_config())
    ) as pooled:
        register_all(pooled, query_specs())
        events = replay_batched(pooled, records)
        replan = pooled.metrics()["replan"]
        assert_adaptive_run_conformant(events, reference, replan, f"{case}/pooled")


def unbounded(query_specs):
    return lambda: [(name, query, None) for name, query, _ in query_specs()]


def assert_roots_hold_nothing(engine):
    """Every matcher stores partials only: a replan's migration moves no completion."""
    for registration in engine.queries.values():
        tree = registration.matcher.tree
        partials = sum(node.match_count() for node in tree.nodes.values() if not node.is_root)
        assert tree.root.match_count() == 0
        assert registration.matcher.stored_partial_matches() == partials


# ----------------------------------------------------------------------
# unbounded axis: nothing expires, so every replan migrates the query's
# whole history of partials while its completions keep accumulating
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("shard_count", (1, 2, 4))
class TestUnboundedReplanConformance:
    def test_serial_scheduler_unbounded_conformance(self, case, shard_count):
        make_records, query_specs = CASES[case]
        records = make_records()
        oracle = StreamWorksEngine(config=EngineConfig())
        register_all(oracle, unbounded(query_specs)())
        reference = canonical(replay_batched(oracle, records))
        assert reference

        sharded = ShardedStreamEngine(
            config=ShardConfig(shard_count=shard_count, engine=adaptive_config())
        )
        register_all(sharded, unbounded(query_specs)())
        events = replay_batched(sharded, records)
        assert_adaptive_run_conformant(
            events,
            reference,
            sharded.metrics()["replan"],
            f"{case}/unbounded/shards={shard_count}",
        )
        assert sharded.match_counts() == oracle.match_counts()
        for shard in sharded.shards:
            assert_roots_hold_nothing(shard)


@pytest.mark.skipif(
    not ShardedStreamEngine.fork_available(), reason="multiprocessing fork unavailable"
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_unbounded_worker_pool_scheduler_conformance(case):
    make_records, query_specs = CASES[case]
    records = make_records()
    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, unbounded(query_specs)())
    reference = canonical(replay_batched(oracle, records))

    serial = ShardedStreamEngine(config=ShardConfig(shard_count=3, engine=adaptive_config()))
    register_all(serial, unbounded(query_specs)())
    replay_batched(serial, records)
    with ShardedStreamEngine(
        config=ShardConfig(shard_count=3, workers=2, engine=adaptive_config())
    ) as pooled:
        register_all(pooled, unbounded(query_specs)())
        events = replay_batched(pooled, records)
        metrics = pooled.metrics()
        assert_adaptive_run_conformant(
            events, reference, metrics["replan"], f"{case}/unbounded-pooled"
        )
        # the workers hold what the serial shards hold: partials only
        for shard_id, shard_metrics in serial.metrics()["shards"].items():
            assert (
                metrics["shards"][shard_id]["stored_partial_matches"]
                == shard_metrics["stored_partial_matches"]
            )
    for shard in serial.shards:
        assert_roots_hold_nothing(shard)


def test_sharded_broadcast_routing_conformance():
    # broadcast routing hands every shard the whole stream; replan checks
    # must still fan out on the global cadence, once per shard per tick
    records = drifting_records()
    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, drifting_queries())
    reference = canonical(replay_batched(oracle, records))

    sharded = ShardedStreamEngine(
        config=ShardConfig(shard_count=2, routing="broadcast", engine=adaptive_config())
    )
    register_all(sharded, drifting_queries())
    events = replay_batched(sharded, records)
    replan = sharded.metrics()["replan"]
    assert_adaptive_run_conformant(events, reference, replan, "drifting/broadcast-sharded")
    assert replan["checks_run"] == (len(records) // CHECK_EVERY) * 2


# ----------------------------------------------------------------------
# checkpoint/restore: hypothesis property
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    drift_at=st.integers(min_value=0, max_value=300),
    threshold=st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
    cut_batch=st.integers(min_value=0, max_value=7),
)
def test_checkpoint_resume_equals_uninterrupted_oracle(
    tmp_path_factory, seed, drift_at, threshold, cut_batch
):
    """Random stream x drift point x threshold x checkpoint batch => exact resume.

    ``replan_check_every == BATCH_SIZE`` makes every batch boundary a replan
    check boundary, so ``cut_batch`` regularly lands the checkpoint
    *immediately after a replan* -- the migrated SJ-trees, monitor counters
    and plan versions must all round-trip for the resumed run to stay
    byte-identical.
    """
    records = list(
        DriftingGenerator(DriftingConfig(seed=seed, drift_at=drift_at)).stream(400)
    )
    config = adaptive_config(threshold=threshold, check_every=BATCH_SIZE)

    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, drifting_queries())
    static_reference = canonical(replay_batched(oracle, records))

    uninterrupted = StreamWorksEngine(config=config)
    register_all(uninterrupted, drifting_queries())
    reference = canonical(replay_batched(uninterrupted, records))
    assert reference == static_reference  # conformance holds for every drawn threshold

    cut = cut_batch * BATCH_SIZE
    interrupted = StreamWorksEngine(config=config)
    register_all(interrupted, drifting_queries())
    prefix = canonical(replay_batched(interrupted, records[:cut]))
    path = str(tmp_path_factory.mktemp("replan_ckpt") / "engine.snap")
    interrupted.checkpoint(path)

    resumed = StreamWorksEngine.restore(path)
    suffix = canonical(replay_batched(resumed, records[cut:]))
    assert prefix + suffix == reference

    resumed_replan = resumed.metrics()["replan"]
    final_replan = uninterrupted.metrics()["replan"]
    for key in ("checks_run", "triggers_fired", "plans_applied", "plan_versions",
                "last_errors", "max_error_seen", "error_count"):
        assert resumed_replan[key] == final_replan[key], key


def test_checkpoint_immediately_after_forced_replan_round_trips(tmp_path):
    # deterministic companion to the property: checkpoint in the same
    # quiescent instant the replan fired, before any further record
    records = drifting_records()
    config = adaptive_config()

    uninterrupted = StreamWorksEngine(config=config)
    register_all(uninterrupted, drifting_queries())
    reference = canonical(replay_batched(uninterrupted, records))

    cut = 2 * CHECK_EVERY  # a cadence boundary: the replan check just ran
    interrupted = StreamWorksEngine(config=config)
    register_all(interrupted, drifting_queries())
    prefix = canonical(replay_batched(interrupted, records[:cut]))
    assert interrupted.plan_monitor.plans_applied > 0  # a replan really just happened
    path = str(tmp_path / "after_replan.snap")
    interrupted.checkpoint(path)
    resumed = StreamWorksEngine.restore(path)
    assert resumed.plan_monitor.plans_applied == interrupted.plan_monitor.plans_applied
    assert {
        name: registration.plan_version for name, registration in resumed.queries.items()
    } == {
        name: registration.plan_version
        for name, registration in interrupted.queries.items()
    }
    suffix = canonical(replay_batched(resumed, records[cut:]))
    assert prefix + suffix == reference


def test_sharded_checkpoint_after_replan_round_trips(tmp_path):
    records = drifting_records()
    config = ShardConfig(shard_count=2, engine=adaptive_config())

    uninterrupted = ShardedStreamEngine(config=config)
    register_all(uninterrupted, drifting_queries())
    reference = canonical(replay_batched(uninterrupted, records))
    assert uninterrupted.metrics()["replan"]["triggers_fired"] > 0

    cut = 4 * BATCH_SIZE  # 200 records: two global cadence ticks have fired
    interrupted = ShardedStreamEngine(
        config=ShardConfig(shard_count=2, engine=adaptive_config())
    )
    register_all(interrupted, drifting_queries())
    prefix = canonical(replay_batched(interrupted, records[:cut]))
    assert interrupted.metrics()["replan"]["plans_applied"] > 0
    path = str(tmp_path / "sharded_replan.snap")
    interrupted.checkpoint(path)
    resumed = ShardedStreamEngine.restore(path)
    suffix = canonical(replay_batched(resumed, records[cut:]))
    assert prefix + suffix == reference
    final = uninterrupted.metrics()["replan"]
    restored = resumed.metrics()["replan"]
    assert restored["checks_run"] == final["checks_run"]
    assert restored["plan_versions"] == final["plan_versions"]


# ----------------------------------------------------------------------
# mutation meta-tests: the oracle has teeth
# ----------------------------------------------------------------------
def _run_adaptive_until_replanned(records, cut):
    """Adaptive engine fed ``records[:cut]``; asserts a replan happened."""
    engine = StreamWorksEngine(config=adaptive_config())
    register_all(engine, drifting_queries())
    prefix = replay_batched(engine, records[:cut])
    assert engine.plan_monitor.plans_applied > 0
    return engine, prefix


def test_mutation_dropped_partial_bucket_is_caught():
    """Corrupting migrated SJ-tree state (a lost partial bucket) breaks conformance.

    If ``_migrate_matcher_state`` silently lost in-flight partials, matches
    completing after the replan would vanish.  Simulate exactly that
    corruption and assert the differential oracle flags it -- the suite
    would NOT have passed over a migration bug of this shape.
    """
    records = drifting_records()
    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, drifting_queries())
    reference = canonical(replay_batched(oracle, records))

    # cut just after the drift point: gamma partials are in flight and will
    # complete before the next cadence check could heal the tree by replay
    cut = 3 * CHECK_EVERY
    engine, prefix = _run_adaptive_until_replanned(records, cut)
    # drop every in-flight partial bucket of the multi-leaf query, exactly
    # what a broken migration would have produced at the last replan
    matcher = engine.queries["ggg"].matcher
    dropped = 0
    for node in matcher.tree.nodes.values():
        if node.parent_id is None:
            continue
        dropped += node.match_count()
        node._matches.clear()
    assert dropped > 0, "no partials in flight -- mutation would be vacuous"
    mutated = canonical(prefix) + canonical(replay_batched(engine, records[cut:]))
    assert mutated != reference, "oracle failed to catch dropped partial buckets"


def test_mutation_skipped_monitor_reset_is_caught():
    """Keeping the superseded plan's estimates (skipped reset) breaks idempotence.

    After a replan the monitor scores the NEW plan's recorded estimates; if
    the replan forgot to swap them (monitor reset skipped), the quiescent
    re-check keeps seeing the stale drift and re-triggers forever.  The
    idempotence arm of the oracle catches that.
    """
    records = drifting_records()
    cut = 2 * CHECK_EVERY
    engine, _ = _run_adaptive_until_replanned(records, cut)
    engine.run_replan_check()  # settle: a well-formed engine is now quiescent
    assert engine.run_replan_check() == []  # sanity: idempotence holds pre-mutation

    registration = engine.queries["abg"]
    assert registration.plan_version > 0
    # resurrect stats-blind estimates, as if the replan never refreshed them
    registration.plan.estimates = {
        name: 1e9 for name in registration.plan.estimates
    }
    retriggered = engine.run_replan_check()
    assert "abg" in retriggered, "oracle failed to catch a skipped monitor reset"


def test_mutation_lost_cadence_marker_is_caught(tmp_path):
    """A snapshot that loses the replan-cadence marker breaks counter parity.

    ``_next_replan_check`` is part of the checkpoint precisely so a resumed
    engine checks at the *same* stream positions as the uninterrupted one.
    Simulate the marker resetting on restore (the bug the snapshot field
    prevents) and assert the checkpoint property's counter-parity assertions
    catch it.
    """
    records = drifting_records()
    cut = 2 * CHECK_EVERY

    uninterrupted = StreamWorksEngine(config=adaptive_config())
    register_all(uninterrupted, drifting_queries())
    replay_batched(uninterrupted, records)
    final = uninterrupted.metrics()["replan"]

    interrupted = StreamWorksEngine(config=adaptive_config())
    register_all(interrupted, drifting_queries())
    replay_batched(interrupted, records[:cut])
    path = str(tmp_path / "tampered.snap")
    interrupted.checkpoint(path)
    resumed = StreamWorksEngine.restore(path)
    # simulate losing the marker: cadence restarts relative to the resume
    # point instead of the global stream position
    resumed._next_replan_check = resumed.edges_processed + CHECK_EVERY + 1
    replay_batched(resumed, records[cut:])
    tampered = resumed.metrics()["replan"]
    assert tampered["checks_run"] != final["checks_run"], (
        "oracle failed to catch a lost cadence marker"
    )


# ----------------------------------------------------------------------
# config surface
# ----------------------------------------------------------------------
class TestReplanConfigValidation:
    def test_threshold_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                EngineConfig(replan_threshold=bad)

    def test_check_every_requires_threshold(self):
        with pytest.raises(ValueError):
            EngineConfig(replan_check_every=10)

    def test_check_every_must_be_positive_int(self):
        with pytest.raises(ValueError):
            EngineConfig(replan_threshold=0.5, replan_check_every=0)
        with pytest.raises(ValueError):
            EngineConfig(replan_threshold=0.5, replan_check_every=-5)

    def test_threshold_requires_statistics(self):
        with pytest.raises(ValueError):
            EngineConfig(collect_statistics=False, replan_threshold=0.5)

    def test_manual_check_requires_threshold(self):
        engine = StreamWorksEngine()
        with pytest.raises(RuntimeError):
            engine.run_replan_check()

    def test_threshold_without_cadence_means_manual_only(self):
        engine = StreamWorksEngine(config=EngineConfig(replan_threshold=0.5))
        register_all(engine, drifting_queries())
        replay_batched(engine, drifting_records(count=200))
        metrics = engine.metrics()["replan"]
        assert metrics["enabled"] is False  # no automatic cadence
        assert metrics["checks_run"] == 0
        assert engine.run_replan_check()  # but manual checks work (and trigger)
