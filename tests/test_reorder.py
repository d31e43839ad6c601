"""Event-time ingestion tests: reorder buffer, watermarks, late records.

Covers the reorder subsystem end to end:

* :class:`ReorderBuffer` semantics (watermark arithmetic, stable release
  order, dropped late records, counters),
* run splitting (:func:`ordered_run_slices`) and the engine-level contract
  that an out-of-order batch equals its ordered runs fed as batches,
* the engine/sharded-engine event-time paths (``allowed_lateness``), whose
  output must be *identical* to a sorted-stream oracle when the lateness
  horizon covers the disorder -- property-tested across 1/2/4 shards,
* deterministic handling of dead-on-arrival records (late beyond the
  retention horizon) on the per-record path, which used to crash with
  statistics enabled and to diverge between the single and sharded engines,
* construction-time validation of ``default_window`` / ``allowed_lateness``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    EngineConfig,
    ShardConfig,
    ShardedStreamEngine,
    StreamWorksEngine,
)
from repro.query.query_graph import QueryGraph
from repro.streaming import (
    ReorderBuffer,
    StreamEdge,
    bounded_shuffle,
    max_time_displacement,
    ordered_run_slices,
)

SUPPRESS = [HealthCheck.too_slow]


def edge(ts, source="a", target="b", label="rel_a"):
    return StreamEdge(source, target, label, ts)


def chain_query(name, labels, vertex_labels=None):
    query = QueryGraph(name)
    vertex_labels = vertex_labels or {}
    for position in range(len(labels) + 1):
        query.add_vertex(f"v{position}", vertex_labels.get(position))
    for position, label in enumerate(labels):
        query.add_edge(f"v{position}", f"v{position + 1}", label)
    return query


def canonical(events):
    return [
        (event.query_name, event.match.portable_identity(), event.detected_at, event.sequence)
        for event in events
    ]


def multiset(events):
    counts = {}
    for event in events:
        key = (event.query_name, event.match.portable_identity())
        counts[key] = counts.get(key, 0) + 1
    return counts


# ----------------------------------------------------------------------
# ReorderBuffer semantics
# ----------------------------------------------------------------------
class TestReorderBuffer:
    def test_in_order_stream_released_once_watermark_passes(self):
        buffer = ReorderBuffer(allowed_lateness=1.0)
        buffer.offer_all([edge(0.0), edge(0.5), edge(2.0)])
        assert buffer.records_late_dropped == 0
        # watermark = 2.0 - 1.0: only the records at/below it are final
        assert buffer.watermark == 1.0
        assert [r.timestamp for r in buffer.drain_ready()] == [0.0, 0.5]
        assert len(buffer) == 1
        assert [r.timestamp for r in buffer.flush()] == [2.0]
        assert len(buffer) == 0

    def test_disorder_within_lateness_is_resorted(self):
        buffer = ReorderBuffer(allowed_lateness=5.0)
        buffer.offer_all([edge(3.0), edge(1.0), edge(2.0), edge(7.0)])
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 2.0]
        assert buffer.records_reordered == 2  # 1.0 and 2.0 arrived behind 3.0
        assert buffer.records_late_dropped == 0
        assert [r.timestamp for r in buffer.flush()] == [3.0, 7.0]

    def test_release_order_is_stable_for_timestamp_ties(self):
        buffer = ReorderBuffer(allowed_lateness=10.0)
        first, second = edge(1.0, "x", "y"), edge(1.0, "p", "q")
        buffer.offer_all([edge(2.0), first, second])
        released = buffer.flush()
        assert [r.timestamp for r in released] == [1.0, 1.0, 2.0]
        assert released[0] is first and released[1] is second

    def test_lateness_zero_admits_only_in_order_input(self):
        buffer = ReorderBuffer(allowed_lateness=0.0)
        assert buffer.offer(edge(1.0)) is None
        assert buffer.offer(edge(1.0)) is None  # tie at the watermark: not late
        assert buffer.offer(edge(0.5)) is None  # dropped
        assert buffer.records_late_dropped == 1
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 1.0]

    def test_late_records_are_dropped_and_counted(self):
        buffer = ReorderBuffer(allowed_lateness=1.0)
        buffer.offer_all([edge(10.0)])
        buffer.offer_all([edge(2.0), edge(9.5)])  # 9.5 is within the horizon
        stats = buffer.stats()
        assert stats["records_late_dropped"] == 1
        assert stats["max_displacement_seen"] == 8.0
        assert [r.timestamp for r in buffer.flush()] == [9.5, 10.0]

    def test_release_concatenation_is_sorted_and_complete(self):
        rng = random.Random(3)
        records = [edge(rng.uniform(0, 50)) for _ in range(200)]
        buffer = ReorderBuffer(allowed_lateness=100.0)
        released = []
        for start in range(0, len(records), 17):
            buffer.offer_all(records[start : start + 17])
            released.extend(buffer.drain_ready())
        released.extend(buffer.flush())
        assert len(released) == len(records)
        assert [r.timestamp for r in released] == sorted(r.timestamp for r in records)
        assert buffer.records_released == len(records)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReorderBuffer(allowed_lateness=-1.0)
        with pytest.raises(ValueError):
            ReorderBuffer(allowed_lateness=float("nan"))
        with pytest.raises(ValueError, match="allowed_lateness"):
            ReorderBuffer(allowed_lateness="bogus")


# ----------------------------------------------------------------------
# run splitting / shuffle helpers
# ----------------------------------------------------------------------
class TestRunHelpers:
    def test_ordered_run_slices(self):
        assert ordered_run_slices([]) == []
        assert ordered_run_slices([edge(1.0), edge(1.0), edge(2.0)]) == [(0, 3)]
        records = [edge(1.0), edge(3.0), edge(2.0), edge(2.5), edge(0.5)]
        assert ordered_run_slices(records) == [(0, 2), (2, 4), (4, 5)]

    def test_bounded_shuffle_respects_displacement(self):
        records = [edge(float(i)) for i in range(500)]
        for displacement in (0, 1, 7, 64):
            shuffled = bounded_shuffle(records, displacement, seed=5)
            assert sorted(r.timestamp for r in shuffled) == [r.timestamp for r in records]
            for position, record in enumerate(shuffled):
                assert abs(position - int(record.timestamp)) <= displacement
        assert [r.timestamp for r in bounded_shuffle(records, 0)] == [
            r.timestamp for r in records
        ]
        with pytest.raises(ValueError):
            bounded_shuffle(records, -1)

    def test_max_time_displacement(self):
        assert max_time_displacement([]) == 0.0
        assert max_time_displacement([edge(1.0), edge(2.0)]) == 0.0
        assert max_time_displacement([edge(5.0), edge(2.0), edge(4.0)]) == 3.0


# ----------------------------------------------------------------------
# engine integration: event-time path
# ----------------------------------------------------------------------
def build_single(allowed_lateness=None, **config_kwargs):
    engine = StreamWorksEngine(
        config=EngineConfig(
            collect_statistics=False,
            allowed_lateness=allowed_lateness,
            **config_kwargs,
        )
    )
    engine.register_query(chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=5.0)
    engine.register_query(chain_query("bc", ["rel_b", "rel_c"]), name="bc", window=4.0)
    return engine


def stream_records(rng, count, jitter=0.0):
    records = []
    timestamp = 0.0
    for _ in range(count):
        timestamp += rng.random() * 0.2
        stamp = max(0.0, timestamp - rng.random() * jitter)
        label = rng.choice(["rel_a", "rel_b", "rel_c"])
        records.append(
            StreamEdge(f"n{rng.randrange(8)}", f"n{rng.randrange(8)}", label, stamp)
        )
    return records


class TestEngineEventTime:
    def test_reordered_equals_segment_matched_sorted_oracle(self):
        rng = random.Random(11)
        records = stream_records(rng, 300)
        shuffled = bounded_shuffle(records, 20, seed=2)
        lateness = max_time_displacement(shuffled)

        # capture the flush segments a buffer produces for this batch feed
        probe = ReorderBuffer(lateness)
        segments = []
        for start in range(0, len(shuffled), 50):
            probe.offer_all(shuffled[start : start + 50])
            segment = probe.drain_ready()
            if segment:
                segments.append(segment)
        assert probe.records_late_dropped == 0
        tail = probe.flush()
        if tail:
            segments.append(tail)
        flat = [r for segment in segments for r in segment]
        assert [r.timestamp for r in flat] == sorted(r.timestamp for r in shuffled)

        oracle = build_single()
        oracle_events = []
        for segment in segments:
            oracle_events.extend(oracle.process_batch(segment))

        reordered = build_single(allowed_lateness=lateness)
        events = []
        for start in range(0, len(shuffled), 50):
            events.extend(reordered.process_batch(shuffled[start : start + 50]))
        events.extend(reordered.flush())

        assert canonical(events) == canonical(oracle_events)
        assert reordered.records_batched == len(shuffled)
        stats = reordered.metrics()["reorder"]
        assert stats["records_late_dropped"] == 0
        assert stats["records_released"] == len(shuffled)

    def test_drop_policy_drops_and_counts_in_metrics(self):
        engine = build_single(allowed_lateness=1.0)
        engine.process_batch([edge(0.0, "x", "y", "rel_a"), edge(10.0, "m", "n", "rel_c")])
        # watermark is 9.0: this record is genuinely late and must be dropped
        events = engine.process_batch([edge(0.2, "y", "z", "rel_b")])
        events.extend(engine.flush())
        assert events == []
        stats = engine.metrics()["reorder"]
        assert stats["records_late_dropped"] == 1
        assert engine.edges_processed == 2  # the dropped record never ingested

    def test_process_stream_flushes_the_tail(self):
        rng = random.Random(5)
        records = stream_records(rng, 120)
        shuffled = bounded_shuffle(records, 10, seed=3)
        lateness = max_time_displacement(shuffled)
        reordered = build_single(allowed_lateness=lateness)
        events = reordered.process_stream(shuffled)
        sorted_engine = build_single()
        expected = sorted_engine.process_stream(sorted(shuffled, key=lambda r: r.timestamp))
        assert multiset(events) == multiset(expected)
        assert len(reordered.reorder) == 0


# ----------------------------------------------------------------------
# run-split regression: one inversion must not demote the whole batch
# ----------------------------------------------------------------------
class TestRunSplitRegression:
    def test_single_inverted_pair_in_1k_batch_keeps_fast_path(self):
        rng = random.Random(13)
        records = []
        timestamp = 0.0
        for _ in range(1000):
            timestamp += 0.01
            label = rng.choice(["rel_a", "rel_b", "rel_c"])
            records.append(
                StreamEdge(f"n{rng.randrange(8)}", f"n{rng.randrange(8)}", label, timestamp)
            )
        # one inverted pair mid-batch (displacement far below every window)
        records[500], records[501] = records[501], records[500]
        assert ordered_run_slices(records) == [(0, 501), (501, 1000)]

        batched = build_single()
        batched_events = batched.process_batch(records)
        # regression: this used to demote all 1000 records to a per-record
        # loop; now only the inversion point splits the batch into two runs
        assert batched.records_batched == 1000
        assert batched.batches_vectorized == 2

        per_record = build_single()
        per_record_events = []
        for record in records:
            per_record_events.extend(per_record.process_record(record))
        assert multiset(batched_events) == multiset(per_record_events)

    def test_disordered_batch_equals_runs_fed_as_batches(self):
        rng = random.Random(29)
        records = stream_records(rng, 200, jitter=0.6)
        runs = ordered_run_slices(records)
        assert len(runs) > 1

        whole = build_single()
        whole_events = whole.process_batch(records)
        split = build_single()
        split_events = []
        for start, end in runs:
            split_events.extend(split.process_batch(records[start:end]))
        assert canonical(whole_events) == canonical(split_events)


# ----------------------------------------------------------------------
# sharded engine: per-run shard segments + dead-on-arrival determinism
# ----------------------------------------------------------------------
class TestShardedEventTime:
    def test_shard_segments_keep_fast_path_when_global_batch_is_disordered(self):
        # the global batch is out of order, but each shard's per-run segments
        # are in order -- the old code demoted every shard to the per-record
        # path on the pre-split (global) order check
        single = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        single.register_query(chain_query("aa", ["rel_a", "rel_a"]), name="aa", window=10.0)
        single.register_query(chain_query("bb", ["rel_b", "rel_b"]), name="bb", window=10.0)
        sharded = ShardedStreamEngine(
            config=ShardConfig(shard_count=2, engine=EngineConfig(collect_statistics=False))
        )
        sharded.register_query(chain_query("aa", ["rel_a", "rel_a"]), name="aa", window=10.0, shard=0)
        sharded.register_query(chain_query("bb", ["rel_b", "rel_b"]), name="bb", window=10.0, shard=1)
        batch = [
            StreamEdge("x", "y", "rel_a", 1.0),
            StreamEdge("m", "n", "rel_b", 5.0),
            StreamEdge("y", "z", "rel_a", 2.0),  # global inversion vs t=5
            StreamEdge("n", "o", "rel_b", 6.0),
        ]
        assert canonical(sharded.process_batch(batch)) == canonical(single.process_batch(batch))
        assert single.records_batched == 4
        assert sharded.shards[0].records_batched == 2
        assert sharded.shards[1].records_batched == 2

    def test_sharded_event_time_matches_single_engine_exactly(self):
        rng = random.Random(23)
        records = stream_records(rng, 250)
        shuffled = bounded_shuffle(records, 15, seed=9)
        lateness = max_time_displacement(shuffled)

        def run(engine):
            events = []
            for start in range(0, len(shuffled), 40):
                events.extend(engine.process_batch(shuffled[start : start + 40]))
            events.extend(engine.flush())
            return canonical(events)

        single = build_single(allowed_lateness=lateness)
        reference = run(single)
        assert reference
        for shard_count in (1, 2, 4):
            sharded = ShardedStreamEngine(
                config=ShardConfig(
                    shard_count=shard_count,
                    engine=EngineConfig(collect_statistics=False, allowed_lateness=lateness),
                )
            )
            sharded.register_query(chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=5.0)
            sharded.register_query(chain_query("bc", ["rel_b", "rel_c"]), name="bc", window=4.0)
            assert run(sharded) == reference
            metrics = sharded.metrics()
            assert metrics["reorder"]["records_late_dropped"] == 0
            # shards must not double-buffer: the parent reorders, they
            # ingest -- but every shard is stamped with the parent's
            # event-time watermark so per-shard metrics expose the horizon
            # (the end-of-stream flush may carry a shard's own clock past
            # the stamped watermark, hence >=)
            for shard_id, shard_metrics in metrics["shards"].items():
                assert (
                    shard_metrics["event_time_watermark"]
                    >= metrics["reorder"]["watermark"]
                    > float("-inf")
                )
            for shard_engine in sharded.shards:
                assert shard_engine.reorder is None

    def test_three_shard_event_time_identical(self):
        rng = random.Random(31)
        records = stream_records(rng, 200)
        shuffled = bounded_shuffle(records, 12, seed=4)
        lateness = max_time_displacement(shuffled)

        def run(engine):
            events = []
            for start in range(0, len(shuffled), 40):
                events.extend(engine.process_batch(shuffled[start : start + 40]))
            events.extend(engine.flush())
            return canonical(events)

        reference = run(build_single(allowed_lateness=lateness))
        assert reference
        sharded = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=3,
                engine=EngineConfig(collect_statistics=False, allowed_lateness=lateness),
            )
        )
        sharded.register_query(chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=5.0)
        sharded.register_query(chain_query("bc", ["rel_b", "rel_c"]), name="bc", window=4.0)
        assert run(sharded) == reference

    def test_dead_on_arrival_record_is_skipped_deterministically(self):
        # regression (confirmed divergence): a record later than the
        # retention horizon is evicted by its own ingest; the single engine
        # used to still match it whenever *unrelated* edges kept its
        # endpoint vertices alive -- which label routing does not preserve,
        # so shard counts disagreed -- and the summarizer crashed on its
        # evicted endpoints with statistics enabled
        def run(engine):
            events = []
            for record in [
                StreamEdge("x", "y", "rel_b", 10.0),  # raises the clock
                StreamEdge("x", "y", "rel_a", 5.0),   # dead on arrival (retention 2)
            ]:
                events.extend(engine.process_record(record))
            return canonical(events)

        single = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        single.register_query(chain_query("aa", ["rel_a"]), name="aa", window=2.0)
        single.register_query(chain_query("bb", ["rel_b"]), name="bb", window=2.0)
        reference = run(single)
        # only the on-time rel_b record may match; the dead rel_a must not,
        # even though the rel_b edge keeps vertices x and y alive here
        assert [key[0] for key in reference] == ["bb"]
        assert single.records_dead_on_arrival == 1

        for shard_count in (2, 4):
            sharded = ShardedStreamEngine(
                config=ShardConfig(shard_count=shard_count, engine=EngineConfig(collect_statistics=False))
            )
            sharded.register_query(chain_query("aa", ["rel_a"]), name="aa", window=2.0)
            sharded.register_query(chain_query("bb", ["rel_b"]), name="bb", window=2.0)
            assert run(sharded) == reference

    def test_dead_on_arrival_does_not_crash_statistics(self):
        # regression: summarizer.observe raised VertexNotFoundError on the
        # evicted endpoints of a dead-on-arrival record
        engine = StreamWorksEngine(config=EngineConfig(collect_statistics=True))
        engine.register_query(chain_query("aa", ["rel_a"]), name="aa", window=1.0)
        engine.process_edge("x", "y", "rel_a", 100.0)
        assert engine.process_edge("a", "b", "rel_a", 5.0) == []
        assert engine.records_dead_on_arrival == 1


# ----------------------------------------------------------------------
# construction-time validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize("bad", [-5.0, 0.0, float("nan")])
    def test_engine_config_rejects_non_positive_default_window(self, bad):
        with pytest.raises(ValueError, match="default_window"):
            EngineConfig(default_window=bad)

    def test_engine_constructor_override_is_validated(self):
        with pytest.raises(ValueError, match="default_window"):
            StreamWorksEngine(default_window=-5.0)
        with pytest.raises(ValueError, match="default_window"):
            StreamWorksEngine(default_window=-5.0, config=EngineConfig())

    def test_shard_config_overrides_are_validated(self):
        with pytest.raises(ValueError, match="default_window"):
            ShardConfig(shard_count=2, default_window=-5.0)
        with pytest.raises(ValueError, match="default_window"):
            ShardConfig(shard_count=2, engine=EngineConfig(), default_window=-5.0)
        with pytest.raises(ValueError, match="default_window"):
            ShardedStreamEngine(
                config=ShardConfig(shard_count=2, engine=EngineConfig()),
                default_window=-5.0,
            )

    def test_valid_default_windows_still_accepted(self):
        assert EngineConfig(default_window=None).default_window is None
        assert EngineConfig(default_window=3).default_window == 3.0
        engine = StreamWorksEngine(default_window=2.5)
        assert engine.config.default_window == 2.5

    def test_allowed_lateness_and_policy_validated(self):
        with pytest.raises(ValueError, match="allowed_lateness"):
            EngineConfig(allowed_lateness=-0.1)
        assert EngineConfig(allowed_lateness=0.0).allowed_lateness == 0.0
        assert EngineConfig(allowed_lateness=1, late_policy="drop").late_policy == "drop"

    @pytest.mark.parametrize("lateness", ["adaptive", "ADAPTIVE"])
    def test_a_string_lateness_names_the_field(self, lateness):
        with pytest.raises(ValueError, match=f"allowed_lateness .*{lateness!r}"):
            EngineConfig(allowed_lateness=lateness)

    @pytest.mark.parametrize("policy", ["process_degraded", "bogus"])
    def test_any_late_policy_but_drop_says_it_was_removed(self, policy):
        with pytest.raises(ValueError, match=f"late_policy {policy!r} was removed"):
            EngineConfig(allowed_lateness=1.0, late_policy=policy)


# ----------------------------------------------------------------------
# property: shuffled + reorder == sorted oracle, across shard counts
# ----------------------------------------------------------------------
class TestReorderOracleProperty:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        displacement=st.integers(min_value=0, max_value=40),
        shard_count=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
    def test_reordered_shuffled_stream_equals_sorted_oracle(
        self, seed, displacement, shard_count
    ):
        rng = random.Random(seed)
        records = stream_records(rng, 120)
        shuffled = bounded_shuffle(records, displacement, seed=seed + 1)
        lateness = max_time_displacement(shuffled)
        batch_size = rng.randint(5, 40)

        # record-level property: the released stream IS the stable sort
        probe = ReorderBuffer(lateness)
        segments = []
        for start in range(0, len(shuffled), batch_size):
            probe.offer_all(shuffled[start : start + batch_size])
            segment = probe.drain_ready()
            if segment:
                segments.append(segment)
        assert probe.records_late_dropped == 0
        tail = probe.flush()
        if tail:
            segments.append(tail)
        flat = [r for segment in segments for r in segment]
        assert [r.timestamp for r in flat] == sorted(r.timestamp for r in shuffled)

        # match-level property: events are identical (same matches, same
        # order, same sequence numbers) to the sorted stream fed with the
        # same release boundaries
        oracle = build_single()
        oracle_events = []
        for segment in segments:
            oracle_events.extend(oracle.process_batch(segment))
        reference = canonical(oracle_events)

        sharded = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=shard_count,
                engine=EngineConfig(collect_statistics=False, allowed_lateness=lateness),
            )
        )
        sharded.register_query(chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=5.0)
        sharded.register_query(chain_query("bc", ["rel_b", "rel_c"]), name="bc", window=4.0)
        events = []
        for start in range(0, len(shuffled), batch_size):
            events.extend(sharded.process_batch(shuffled[start : start + batch_size]))
        events.extend(sharded.flush())
        assert canonical(events) == reference
