"""Multi-source event-time ingestion: per-source watermarks + async front-end.

Covers the multi-source subsystem end to end:

* :class:`MultiSourceReorderBuffer` semantics -- min-watermark release
  across sources, registered/silent sources, idle-source timeout, the
  monotone watermark floor (a source appearing with an old clock must not
  make released output regress), per-source counters, adaptive lateness;
* the **single-source regression pin**: with no ``source_id`` on the
  records the multi-source buffer -- and the engines built on it -- behave
  byte-for-byte like the PR-3 single-watermark :class:`ReorderBuffer`;
* engine-level conformance: per-source skewed interleavings, released by
  min-watermark, equal the sorted-merge oracle byte-for-byte (matches,
  event order, sequence numbers) across shard counts 1/2/4 and both
  schedulers -- property-tested with Hypothesis;
* :class:`AsyncIngestFrontend`: threaded admission with a synchronous
  ``flush()``/``close()`` drain contract whose results are byte-for-byte
  the synchronous path's, including across a checkpoint/restore cut at
  every submitted-batch boundary.
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
    ADAPTIVE_LATENESS,
    AsyncIngestFrontend,
    LatePolicy,
    MultiSourceReorderBuffer,
    ReorderBuffer,
    StreamEdge,
    skewed_interleave,
    split_by_source,
    tag_sources,
)

SUPPRESS = [HealthCheck.too_slow]


def edge(ts, source="a", target="b", label="rel_a", source_id=None):
    return StreamEdge(source, target, label, ts, source_id=source_id)


def chain_query(name, labels):
    query = QueryGraph(name)
    for position in range(len(labels) + 1):
        query.add_vertex(f"v{position}", "Host")
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


def host_records(rng, count, labels=("x", "y"), vertex_pool=12, step=0.1):
    """A strictly time-increasing host-to-host stream over the given labels."""
    records = []
    timestamp = 0.0
    for _ in range(count):
        timestamp += step
        records.append(
            StreamEdge(
                f"h{rng.randrange(vertex_pool)}",
                f"h{rng.randrange(vertex_pool)}",
                rng.choice(labels),
                timestamp,
                source_label="Host",
                target_label="Host",
            )
        )
    return records


def round_robin_sources(records, source_names):
    """Tag a stream round-robin across sources and split it per source."""
    tagged = tag_sources(records, lambda i, r: source_names[i % len(source_names)])
    return split_by_source(tagged)


def build_engine(shards=None, workers=0, **config_kwargs):
    config = EngineConfig(collect_statistics=False, record_latency=False, **config_kwargs)
    if shards is None:
        engine = StreamWorksEngine(config=config)
    else:
        engine = ShardedStreamEngine(
            config=ShardConfig(shard_count=shards, workers=workers, engine=config)
        )
    engine.register_query(chain_query("xy", ["x", "y"]), name="xy", window=5.0)
    engine.register_query(chain_query("yx", ["y", "x"]), name="yx", window=4.0)
    return engine


def run_batches(engine, records, batch_size):
    events = []
    for start in range(0, len(records), batch_size):
        events.extend(engine.process_batch(records[start : start + batch_size]))
    events.extend(engine.flush())
    return events


def release_segments(arrival, batch_size, sources=(), **buffer_kwargs):
    """Probe the release boundaries a multi-source buffer produces for a feed."""
    probe = MultiSourceReorderBuffer(buffer_kwargs.pop("allowed_lateness", 0.0), **buffer_kwargs)
    for source in sources:
        probe.register_source(source)
    segments = []
    for start in range(0, len(arrival), batch_size):
        late = probe.offer_all(arrival[start : start + batch_size])
        assert late == []
        segment = probe.drain_ready()
        if segment:
            segments.append(segment)
    tail = probe.flush()
    if tail:
        segments.append(tail)
    assert probe.records_late == 0
    return segments


def segment_oracle_events(segments):
    """Feed the sorted-merge release segments to a buffer-less oracle engine."""
    oracle = build_engine()
    events = []
    for segment in segments:
        events.extend(oracle.process_batch(segment))
    return events


# ----------------------------------------------------------------------
# MultiSourceReorderBuffer semantics
# ----------------------------------------------------------------------
class TestMultiSourceBuffer:
    def test_slow_source_holds_the_release_horizon(self):
        buffer = MultiSourceReorderBuffer(0.0)
        buffer.register_source("fast")
        buffer.register_source("slow")
        assert buffer.offer_all([edge(t, source_id="fast") for t in (1.0, 2.0, 3.0)]) == []
        # the global clock is at 3.0, but "slow" has not spoken: nothing final
        assert buffer.drain_ready() == []
        assert buffer.offer(edge(0.5, source_id="slow")) is None
        released = buffer.drain_ready()
        # slow's watermark is 0.5: exactly the prefix <= 0.5 is final
        assert [r.timestamp for r in released] == [0.5]
        assert buffer.records_late == 0

    def test_release_is_sorted_merge_of_skewed_sources(self):
        rng = random.Random(3)
        per_source = round_robin_sources(host_records(rng, 120), ["a", "b", "c"])
        arrival = skewed_interleave(per_source, {"a": 0.0, "b": 2.0, "c": 5.0})
        segments = release_segments(arrival, 25, sources=("a", "b", "c"))
        flat = [r.timestamp for segment in segments for r in segment]
        assert flat == sorted(r.timestamp for r in arrival)

    def test_registered_silent_source_blocks_until_it_speaks(self):
        buffer = MultiSourceReorderBuffer(0.0)
        buffer.register_source("present")
        buffer.register_source("silent")
        buffer.offer_all([edge(t, source_id="present") for t in (1.0, 5.0)])
        assert buffer.drain_ready() == []
        assert len(buffer) == 2
        buffer.offer(edge(6.0, source_id="silent"))
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 5.0]

    def test_registered_source_is_not_idle_before_the_timeout_elapses(self):
        """Regression: a registered-but-silent source used to be treated as
        idle the moment any other source spoke, regardless of the timeout --
        so a skewed-but-live collector's first records arrived behind an
        already-advanced floor and were dropped.  Silence must be measured
        in stream time from the first record (or the registration epoch)."""
        buffer = MultiSourceReorderBuffer(0.0, idle_timeout=60.0)
        buffer.register_source("fast")
        buffer.register_source("skewed")
        buffer.offer_all([edge(t, source_id="fast") for t in (1.0, 2.0)])
        # the timeout (60) has not elapsed: "skewed" still holds the horizon
        assert buffer.drain_ready() == []
        assert buffer.stats()["idle_sources"] == []
        # its first record, merely 1.5 behind, must be admitted, not late
        assert buffer.offer(edge(0.5, source_id="skewed")) is None
        assert buffer.records_late == 0
        assert [r.timestamp for r in buffer.drain_ready()] == [0.5]

    def test_source_registered_mid_stream_counts_silence_from_registration(self):
        buffer = MultiSourceReorderBuffer(0.0, idle_timeout=3.0)
        buffer.offer(edge(10.0, source_id="a"))
        buffer.register_source("late_joiner")  # baseline = current clock (10.0)
        buffer.offer(edge(12.0, source_id="a"))
        assert buffer.drain_ready() == []  # 12 - 10 = 2 <= 3: still waited for
        buffer.offer(edge(14.0, source_id="a"))
        # 14 - 10 > 3: the joiner that never spoke is now idle
        assert [r.timestamp for r in buffer.drain_ready()] == [10.0, 12.0, 14.0]

    def test_idle_timeout_excludes_silent_source_from_the_minimum(self):
        buffer = MultiSourceReorderBuffer(0.0, idle_timeout=2.0)
        buffer.register_source("fast")
        buffer.register_source("silent")
        buffer.offer_all([edge(t, source_id="fast") for t in (1.0, 2.0, 5.0)])
        # silent lags the global clock (5.0) by more than 2.0: excluded
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 2.0, 5.0]
        assert "silent" in buffer.stats()["idle_sources"]

    def test_source_going_quiet_mid_stream_times_out(self):
        buffer = MultiSourceReorderBuffer(0.0, idle_timeout=3.0)
        buffer.offer_all(
            [edge(1.0, source_id="a"), edge(1.5, source_id="b"), edge(2.0, source_id="a")]
        )
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 1.5]
        # b stops; a runs ahead until b's lag exceeds the timeout
        buffer.offer_all([edge(t, source_id="a") for t in (3.0, 4.0, 6.0)])
        released = buffer.drain_ready()
        assert [r.timestamp for r in released] == [2.0, 3.0, 4.0, 6.0]

    def test_idle_source_returning_behind_the_floor_is_late(self):
        buffer = MultiSourceReorderBuffer(0.0, idle_timeout=2.0)
        buffer.offer_all([edge(t, source_id="a") for t in (1.0, 6.0)])
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 6.0]
        # b appears with an old clock, below the already-released horizon:
        # the monotone floor classifies it late instead of regressing
        assert buffer.offer(edge(2.0, source_id="b")) is None
        assert buffer.records_late == 1
        assert buffer.stats()["sources"]["b"]["records_late"] == 1.0
        # but b's clock observation is real: once it catches up it rejoins
        buffer.offer(edge(7.0, source_id="b"))
        assert [r.timestamp for r in buffer.flush()] == [7.0]

    def test_watermark_never_regresses_when_a_source_appears(self):
        buffer = MultiSourceReorderBuffer(0.0)
        buffer.offer_all([edge(t, source_id="a") for t in (1.0, 4.0)])
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 4.0]
        watermark_before = buffer.watermark
        # unregistered source appears mid-stream with a lagging clock
        buffer.offer(edge(2.0, source_id="b"))
        assert buffer.watermark == watermark_before
        assert buffer.records_late == 1  # cannot be released in order any more

    def test_new_source_appearing_ahead_of_the_watermark_joins_cleanly(self):
        buffer = MultiSourceReorderBuffer(0.0)
        buffer.offer_all([edge(t, source_id="a") for t in (1.0, 2.0)])
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 2.0]
        buffer.offer(edge(3.0, source_id="b"))
        buffer.offer(edge(5.0, source_id="a"))
        # b now participates in the minimum: only <= 3.0 is final
        assert [r.timestamp for r in buffer.drain_ready()] == [3.0]
        assert buffer.records_late == 0
        assert [r.timestamp for r in buffer.flush()] == [5.0]

    def test_late_policy_process_degraded_hands_records_back(self):
        buffer = MultiSourceReorderBuffer(
            0.0, late_policy=LatePolicy.PROCESS_DEGRADED, idle_timeout=1.0
        )
        buffer.offer_all([edge(t, source_id="a") for t in (1.0, 6.0)])
        buffer.drain_ready()
        handed_back = buffer.offer(edge(2.0, source_id="b"))
        assert handed_back is not None and handed_back.timestamp == 2.0
        assert buffer.records_late_degraded == 1

    def test_per_source_counters_in_stats(self):
        buffer = MultiSourceReorderBuffer(5.0)
        buffer.offer_all(
            [
                edge(1.0, source_id="a"),
                edge(3.0, source_id="b"),
                edge(2.0, source_id="a"),  # behind a's own clock? no: 2.0 > 1.0
                edge(2.5, source_id="b"),  # behind b's own clock (3.0)
            ]
        )
        stats = buffer.stats()
        assert stats["kind"] == "multisource"
        assert stats["source_count"] == 2
        assert stats["sources"]["a"]["records_seen"] == 2.0
        assert stats["sources"]["b"]["records_reordered"] == 1.0
        assert stats["sources"]["b"]["max_displacement_seen"] == 0.5
        assert stats["sources"]["a"]["records_reordered"] == 0.0
        # global counter keeps the single-buffer semantics (vs global max)
        assert stats["records_reordered"] == 2.0

    def test_sources_listed_in_registration_order(self):
        buffer = MultiSourceReorderBuffer(1.0)
        buffer.register_source("z")
        buffer.offer(edge(1.0, source_id="a"))
        buffer.register_source("z")  # idempotent
        assert buffer.sources() == ["z", "a"]

    def test_skewed_interleave_accepts_untagged_none_key(self):
        """split_by_source groups untagged records under None; interleaving
        that output must not crash on the str/None sort."""
        rng = random.Random(61)
        records = host_records(rng, 30)
        tagged = tag_sources(records, lambda i, r: "a" if i % 3 == 0 else None)
        arrival = skewed_interleave(split_by_source(tagged), {None: 0.0, "a": 1.0})
        assert len(arrival) == len(records)
        assert {record.source_id for record in arrival} == {None, "a"}

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="allowed_lateness"):
            MultiSourceReorderBuffer(-1.0)
        with pytest.raises(ValueError, match="allowed_lateness"):
            MultiSourceReorderBuffer("bogus")
        with pytest.raises(ValueError, match="idle_timeout"):
            MultiSourceReorderBuffer(1.0, idle_timeout=0.0)
        with pytest.raises(ValueError, match="late policy"):
            MultiSourceReorderBuffer(1.0, late_policy="whatever")
        with pytest.raises(ValueError, match="adaptive_quantile"):
            MultiSourceReorderBuffer(ADAPTIVE_LATENESS, adaptive_quantile=1.5)


# ----------------------------------------------------------------------
# single-source regression pin: multi-source buffer == PR-3 buffer
# ----------------------------------------------------------------------
class TestSingleSourceRegressionPin:
    @pytest.mark.parametrize("lateness", [0.0, 1.0, 7.5, float("inf")])
    @pytest.mark.parametrize("policy", [LatePolicy.DROP, LatePolicy.PROCESS_DEGRADED])
    def test_buffer_differential_on_sourceless_streams(self, lateness, policy):
        rng = random.Random(int(lateness if lateness != float("inf") else 99) + len(policy))
        stream = [
            edge(max(0.0, t - rng.random() * 4.0))
            for t in (i * 0.3 for i in range(250))
        ]
        single = ReorderBuffer(lateness, late_policy=policy)
        multi = MultiSourceReorderBuffer(lateness, late_policy=policy)
        for start in range(0, len(stream), 23):
            chunk = stream[start : start + 23]
            late_single = [r.to_dict() for r in single.offer_all(chunk)]
            late_multi = [r.to_dict() for r in multi.offer_all(chunk)]
            assert late_single == late_multi
            assert single.watermark == multi.watermark
            assert [r.to_dict() for r in single.drain_ready()] == [
                r.to_dict() for r in multi.drain_ready()
            ]
        assert [r.to_dict() for r in single.flush()] == [r.to_dict() for r in multi.flush()]
        single_stats, multi_stats = single.stats(), multi.stats()
        for key, value in single_stats.items():
            if key != "kind":
                assert multi_stats[key] == value, key

    def test_engine_events_identical_to_single_watermark_buffer(self):
        """The engine's default (multi-source) buffer must reproduce the
        pre-multi-source engine byte-for-byte on sourceless streams."""
        rng = random.Random(17)
        records = host_records(rng, 300)
        shuffled = list(records)
        rng.shuffle(shuffled)  # unbounded disorder: lateness inf buffers all
        legacy = build_engine(allowed_lateness=float("inf"))
        legacy.reorder = ReorderBuffer(float("inf"))  # force the PR-3 buffer
        current = build_engine(allowed_lateness=float("inf"))
        assert isinstance(current.reorder, MultiSourceReorderBuffer)
        assert canonical(run_batches(legacy, shuffled, 31)) == canonical(
            run_batches(current, shuffled, 31)
        )
        # bounded-lateness variant with genuinely-late records
        late_stream = [edge(t) for t in (1.0, 5.0, 0.2, 6.0, 2.0, 9.0)]
        legacy = build_engine(allowed_lateness=2.0)
        legacy.reorder = ReorderBuffer(2.0)
        current = build_engine(allowed_lateness=2.0)
        assert canonical(run_batches(legacy, late_stream, 2)) == canonical(
            run_batches(current, late_stream, 2)
        )
        assert legacy.metrics()["reorder"]["records_late"] == (
            current.metrics()["reorder"]["records_late"]
        )


# ----------------------------------------------------------------------
# adaptive lateness
# ----------------------------------------------------------------------
class TestAdaptiveLateness:
    def test_horizon_tracks_each_sources_own_disorder(self):
        buffer = MultiSourceReorderBuffer(ADAPTIVE_LATENESS, adaptive_refresh=8)
        rng = random.Random(5)
        # "clean" delivers in order; "noisy" jitters by up to 2.0
        for i in range(80):
            t = i * 0.5
            buffer.offer(edge(t, source_id="clean"))
            buffer.offer(edge(max(0.0, t - rng.random() * 2.0), source_id="noisy"))
            buffer.drain_ready()
        stats = buffer.stats()
        assert stats["allowed_lateness"] == ADAPTIVE_LATENESS
        assert stats["sources"]["clean"]["lateness"] == 0.0
        assert stats["sources"]["noisy"]["lateness"] > 0.5
        assert stats["sources"]["noisy"]["lateness"] <= 2.0

    def test_adaptive_floor_bounds_the_horizon_from_below(self):
        buffer = MultiSourceReorderBuffer(ADAPTIVE_LATENESS, adaptive_floor=1.5)
        buffer.offer_all([edge(t, source_id="a") for t in (1.0, 2.0, 3.0)])
        assert buffer.stats()["sources"]["a"]["lateness"] == 1.5
        # the watermark trails by the floor even for a perfectly-ordered source
        assert buffer.watermark == 3.0 - 1.5

    def test_adaptive_engine_config_round_trips_and_flushes(self):
        engine = build_engine(allowed_lateness=ADAPTIVE_LATENESS)
        rng = random.Random(23)
        records = host_records(rng, 120)
        jittered = [
            StreamEdge(
                r.source, r.target, r.label, max(0.0, r.timestamp - rng.random() * 0.4),
                source_label="Host", target_label="Host",
            )
            for r in records
        ]
        events = run_batches(engine, jittered, 20)
        stats = engine.metrics()["reorder"]
        assert stats["allowed_lateness"] == ADAPTIVE_LATENESS
        admitted = stats["records_seen"] - stats["records_late"]
        assert stats["records_released"] == admitted
        assert len(events) == len(engine.events())


# ----------------------------------------------------------------------
# engine-level multi-source conformance
# ----------------------------------------------------------------------
class TestEngineMultiSource:
    def make_arrival(self, seed, count=240, skews={"a": 0.0, "b": 2.5, "c": 6.0}):
        rng = random.Random(seed)
        per_source = round_robin_sources(host_records(rng, count), sorted(skews))
        return skewed_interleave(per_source, skews)

    def test_skewed_sources_equal_sorted_merge_oracle(self):
        arrival = self.make_arrival(7)
        segments = release_segments(arrival, 40, sources=("a", "b", "c"))
        reference = canonical(segment_oracle_events(segments))
        for shards in (None, 2, 4):
            engine = build_engine(shards=shards, allowed_lateness=0.0)
            for source in ("a", "b", "c"):
                engine.register_source(source)
            events = run_batches(engine, arrival, 40)
            assert canonical(events) == reference, f"shards={shards}"
            stats = engine.metrics()["reorder"]
            assert stats["records_late"] == 0
            assert stats["source_count"] == 3

    def test_global_watermark_would_have_dropped_what_min_watermark_keeps(self):
        """The tentpole claim: same lateness horizon, global watermark loses
        the skewed source's records, per-source watermarks lose nothing."""
        arrival = self.make_arrival(11)
        global_buffer = ReorderBuffer(0.0)
        global_buffer.offer_all(arrival)
        assert global_buffer.records_late > 0
        multi = MultiSourceReorderBuffer(0.0)
        for source in ("a", "b", "c"):
            multi.register_source(source)
        assert multi.offer_all(arrival) == []
        assert multi.records_late == 0

    def test_pool_scheduler_matches_serial(self):
        pytest.importorskip("multiprocessing")
        if not ShardedStreamEngine.fork_available():
            pytest.skip("fork start method unavailable")
        arrival = self.make_arrival(13, count=160)
        serial = build_engine(shards=2, allowed_lateness=0.0)
        pooled = build_engine(shards=2, workers=2, allowed_lateness=0.0)
        for engine in (serial, pooled):
            for source in ("a", "b", "c"):
                engine.register_source(source)
        reference = canonical(run_batches(serial, arrival, 32))
        with pooled:
            assert canonical(run_batches(pooled, arrival, 32)) == reference

    def test_engine_idle_timeout_releases_despite_silent_source(self):
        rng = random.Random(19)
        per_source = round_robin_sources(host_records(rng, 200), ["live", "dying"])
        # "dying" stops a third of the way in
        cutoff = per_source["dying"][len(per_source["dying"]) // 3].timestamp
        per_source["dying"] = [r for r in per_source["dying"] if r.timestamp <= cutoff]
        arrival = skewed_interleave(per_source, {"live": 0.0, "dying": 0.0})

        frozen = build_engine(allowed_lateness=0.0)
        timed_out = build_engine(allowed_lateness=0.0, idle_source_timeout=3.0)
        for engine in (frozen, timed_out):
            engine.register_source("live")
            engine.register_source("dying")
        for start in range(0, len(arrival), 40):
            frozen.process_batch(arrival[start : start + 40])
            timed_out.process_batch(arrival[start : start + 40])
        # without the timeout the dead collector freezes the horizon
        assert len(frozen.reorder) > len(timed_out.reorder)
        frozen_events = canonical(frozen.events() + frozen.flush())
        timed_events = canonical(timed_out.events() + timed_out.flush())
        # both are complete after flush; the timeout run was just earlier
        assert multiset(frozen.events()) == multiset(timed_out.events())
        assert timed_out.metrics()["reorder"]["records_late"] == 0

    def test_register_source_requires_event_time(self):
        engine = build_engine()
        with pytest.raises(RuntimeError, match="allowed_lateness"):
            engine.register_source("a")
        sharded = build_engine(shards=2)
        with pytest.raises(RuntimeError, match="allowed_lateness"):
            sharded.register_source("a")

    def test_idle_source_timeout_requires_event_time(self):
        with pytest.raises(ValueError, match="idle_source_timeout"):
            EngineConfig(idle_source_timeout=5.0)
        with pytest.raises(ValueError, match="idle_source_timeout"):
            EngineConfig(allowed_lateness=1.0, idle_source_timeout=-1.0)


# ----------------------------------------------------------------------
# property: per-source streams + min-watermark == sorted-merge oracle
# ----------------------------------------------------------------------
class TestMultiSourceOracleProperty:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        source_count=st.integers(min_value=1, max_value=4),
        shard_count=st.sampled_from([1, 2, 4]),
        workers=st.sampled_from([0, 0, 0, 2]),  # pool examples are pricey: 1 in 4
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=SUPPRESS)
    def test_skewed_interleaving_equals_sorted_merge_oracle(
        self, seed, source_count, shard_count, workers
    ):
        if workers and not ShardedStreamEngine.fork_available():
            workers = 0
        rng = random.Random(seed)
        names = [f"s{i}" for i in range(source_count)]
        per_source = round_robin_sources(host_records(rng, 100), names)
        skews = {name: rng.uniform(0.0, 8.0) for name in names}
        arrival = skewed_interleave(per_source, skews)
        batch_size = rng.randint(5, 40)

        segments = release_segments(arrival, batch_size, sources=names)
        flat = [r.timestamp for segment in segments for r in segment]
        assert flat == sorted(r.timestamp for r in arrival)
        reference = canonical(segment_oracle_events(segments))

        engine = build_engine(
            shards=shard_count if shard_count > 1 else None,
            workers=workers if shard_count > 1 else 0,
            allowed_lateness=0.0,
        )
        for name in names:
            engine.register_source(name)
        events = run_batches(engine, arrival, batch_size)
        if hasattr(engine, "close"):
            engine.close()
        assert canonical(events) == reference


# ----------------------------------------------------------------------
# async ingestion front-end
# ----------------------------------------------------------------------
class TestAsyncIngestFrontend:
    def make_arrival(self, seed, count=200):
        rng = random.Random(seed)
        per_source = round_robin_sources(host_records(rng, count), ["a", "b"])
        return skewed_interleave(per_source, {"a": 0.0, "b": 3.0})

    def sync_reference(self, arrival, batch_size=40, shards=None):
        engine = build_engine(shards=shards, allowed_lateness=0.0)
        engine.register_source("a")
        engine.register_source("b")
        events = run_batches(engine, arrival, batch_size)
        if hasattr(engine, "close"):
            engine.close()
        return canonical(events)

    @pytest.mark.parametrize("shards", [None, 2])
    def test_async_results_equal_synchronous_path(self, shards):
        arrival = self.make_arrival(29)
        reference = self.sync_reference(arrival, shards=shards)
        engine = build_engine(shards=shards, allowed_lateness=0.0)
        engine.register_source("a")
        engine.register_source("b")
        with AsyncIngestFrontend(engine) as frontend:
            events = []
            for start in range(0, len(arrival), 40):
                frontend.submit(arrival[start : start + 40])
                events.extend(frontend.drain())  # interleave draining...
            events.extend(frontend.flush())
        assert canonical(events) == reference
        assert canonical(engine.events()) == reference
        if hasattr(engine, "close"):
            engine.close()

    def test_drain_schedule_does_not_change_results(self):
        arrival = self.make_arrival(31)
        reference = self.sync_reference(arrival, batch_size=25)
        rng = random.Random(0)
        engine = build_engine(allowed_lateness=0.0)
        engine.register_source("a")
        engine.register_source("b")
        frontend = AsyncIngestFrontend(engine, max_queue_batches=4)
        events = []
        for start in range(0, len(arrival), 25):
            frontend.submit(arrival[start : start + 25])
            if rng.random() < 0.3:  # ...or never draining until the end
                events.extend(frontend.drain())
        events.extend(frontend.close())
        assert canonical(events) == reference

    def test_flush_is_synchronous_and_engine_holds_everything(self):
        arrival = self.make_arrival(37, count=80)
        engine = build_engine(allowed_lateness=0.0)
        engine.register_source("a")
        engine.register_source("b")
        frontend = AsyncIngestFrontend(engine)
        for start in range(0, len(arrival), 20):
            frontend.submit(arrival[start : start + 20])
        frontend.flush()
        assert len(engine.reorder) == 0
        stats = frontend.stats()
        assert stats["batches_admitted"] == stats["batches_submitted"]
        assert stats["records_submitted"] == len(arrival)
        assert frontend.metrics()["async_ingest"]["queue_depth"] == 0
        frontend.close()

    def test_lifecycle_errors(self):
        engine = build_engine()
        with pytest.raises(ValueError, match="allowed_lateness"):
            AsyncIngestFrontend(engine)
        engine = build_engine(allowed_lateness=1.0)
        with pytest.raises(ValueError, match="max_queue_batches"):
            AsyncIngestFrontend(engine, max_queue_batches=0)
        frontend = AsyncIngestFrontend(engine)
        assert frontend.close() == []
        assert frontend.close() == []  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            frontend.submit([edge(1.0)])

    def test_autosave_configs_are_rejected_up_front(self, tmp_path):
        """Batch-cadence autosave fires inside process_batch, which the
        frontend bypasses -- silently never autosaving would betray the
        operator, so construction refuses (single and sharded)."""
        path = str(tmp_path / "auto.snap")
        engine = build_engine(
            allowed_lateness=1.0, checkpoint_every=2, checkpoint_path=path
        )
        with pytest.raises(ValueError, match="frontend.checkpoint"):
            AsyncIngestFrontend(engine)
        sharded = build_engine(
            shards=2, allowed_lateness=1.0, checkpoint_every=2, checkpoint_path=path
        )
        with pytest.raises(ValueError, match="frontend.checkpoint"):
            AsyncIngestFrontend(sharded)

    def test_batches_processed_matches_the_synchronous_path(self):
        arrival = self.make_arrival(53, count=80)
        sync_engine = build_engine(allowed_lateness=0.0)
        sync_engine.register_source("a")
        sync_engine.register_source("b")
        run_batches(sync_engine, arrival, 20)
        async_engine = build_engine(allowed_lateness=0.0)
        async_engine.register_source("a")
        async_engine.register_source("b")
        with AsyncIngestFrontend(async_engine) as frontend:
            for start in range(0, len(arrival), 20):
                frontend.submit(arrival[start : start + 20])
        assert async_engine.batches_processed == sync_engine.batches_processed
        assert (
            async_engine.metrics()["event_time_watermark"]
            == sync_engine.metrics()["event_time_watermark"]
        )

    def test_ingest_error_is_sticky_and_close_stops_the_thread(self):
        engine = build_engine(allowed_lateness=1.0)
        frontend = AsyncIngestFrontend(engine)
        frontend.submit([None])  # not a StreamEdge: admission explodes
        with pytest.raises(RuntimeError, match="ingest thread failed"):
            frontend.flush()
        # sticky: a retry must NOT silently pretend the frontend is healthy
        with pytest.raises(RuntimeError, match="ingest thread failed"):
            frontend.drain()
        with pytest.raises(RuntimeError, match="ingest thread failed"):
            frontend.submit([edge(1.0)])
        # close still shuts the thread down, re-raising after cleanup
        with pytest.raises(RuntimeError, match="ingest thread failed"):
            frontend.close()
        frontend._thread.join(timeout=5.0)
        assert not frontend._thread.is_alive()
        assert frontend.close() == []  # idempotent after the failed close

    def test_error_publication_synchronizes_on_released_lock(self):
        """Regression: ``_error`` used to be written by the ingest thread and
        read by ``_check_error`` with no lock -- a data race flagged by
        repro-lint's interprocedural lock-discipline.  Publication now holds
        ``_released_lock``: while a consumer holds that lock, the ingest
        thread cannot make a failure visible (or even finish the poisoned
        batch)."""
        import time

        engine = build_engine(allowed_lateness=1.0)
        frontend = AsyncIngestFrontend(engine)
        frontend._released_lock.acquire()
        try:
            # bypass submit(): it takes _released_lock for its own counters
            frontend._submitted.put([None])  # not a StreamEdge: admission explodes
            deadline = time.monotonic() + 0.5
            while frontend._submitted.unfinished_tasks and time.monotonic() < deadline:
                if frontend._error is not None:
                    break
                time.sleep(0.01)
            # the thread is parked on the lock we hold; the failure is not
            # published past it (pre-fix, _error flips while we hold the lock)
            assert frontend._error is None
        finally:
            frontend._released_lock.release()
        frontend._submitted.join()
        with pytest.raises(RuntimeError, match="ingest thread failed"):
            frontend.drain()
        with pytest.raises(RuntimeError, match="ingest thread failed"):
            frontend.close()
        frontend._thread.join(timeout=5.0)
        assert not frontend._thread.is_alive()

    def test_repr_reads_counters_under_the_lock(self):
        """Regression companion to the lock-discipline audit: ``__repr__``
        used to read ``batches_submitted`` off-lock under a suppression; it
        now takes ``_released_lock`` like every other reader."""
        engine = build_engine(allowed_lateness=1.0)
        with AsyncIngestFrontend(engine) as frontend:
            frontend.submit([edge(1.0)])
            frontend.flush()
            text = repr(frontend)
            assert "submitted=1" in text
            assert "closed=False" in text
        assert "closed=True" in repr(frontend)

    def test_process_degraded_late_records_flow_through(self):
        engine = build_engine(
            allowed_lateness=0.0,
            late_policy=LatePolicy.PROCESS_DEGRADED,
            idle_source_timeout=1.0,
        )
        frontend = AsyncIngestFrontend(engine)
        frontend.submit([edge(t, source_id="a") for t in (1.0, 6.0)])
        frontend.submit([edge(2.0, source_id="b")])  # late: degraded, not lost
        frontend.close()
        assert engine.metrics()["reorder"]["records_late_degraded"] == 1
        # the two released records and the late one, each run by the engine
        assert engine.records_batched == 3


# ----------------------------------------------------------------------
# checkpoint/restore across the async front-end (crash at every boundary)
# ----------------------------------------------------------------------
class TestAsyncCheckpointRestore:
    def test_crash_at_every_submitted_batch_boundary(self, tmp_path):
        rng = random.Random(41)
        per_source = round_robin_sources(host_records(rng, 120), ["a", "b"])
        arrival = skewed_interleave(per_source, {"a": 0.0, "b": 2.0})
        batch_size = 30
        batches = [
            arrival[start : start + batch_size]
            for start in range(0, len(arrival), batch_size)
        ]

        oracle = build_engine(allowed_lateness=0.0)
        oracle.register_source("a")
        oracle.register_source("b")
        with AsyncIngestFrontend(oracle) as frontend:
            for batch in batches:
                frontend.submit(batch)
        reference = canonical(oracle.events())

        for cut in range(len(batches) + 1):
            engine = build_engine(allowed_lateness=0.0)
            engine.register_source("a")
            engine.register_source("b")
            frontend = AsyncIngestFrontend(engine)
            for batch in batches[:cut]:
                frontend.submit(batch)
            path = tmp_path / f"cut{cut}.snap"
            frontend.checkpoint(str(path))
            frontend.close()  # stop the ingest thread (a real crash would kill it)
            del frontend, engine  # the crash: only the snapshot survives

            resumed = StreamWorksEngine.restore(str(path))
            assert isinstance(resumed.reorder, MultiSourceReorderBuffer)
            frontend = AsyncIngestFrontend(resumed)
            for batch in batches[cut:]:
                frontend.submit(batch)
            frontend.close()
            assert canonical(resumed.events()) == reference, f"cut={cut}"

    def test_sharded_async_checkpoint_mid_stream(self, tmp_path):
        rng = random.Random(43)
        per_source = round_robin_sources(host_records(rng, 160), ["a", "b"])
        arrival = skewed_interleave(per_source, {"a": 0.0, "b": 2.0})
        batches = [arrival[start : start + 40] for start in range(0, len(arrival), 40)]

        oracle = build_engine(shards=2, allowed_lateness=0.0)
        oracle.register_source("a")
        oracle.register_source("b")
        with AsyncIngestFrontend(oracle) as frontend:
            for batch in batches:
                frontend.submit(batch)
        reference = canonical(oracle.events())

        engine = build_engine(shards=2, allowed_lateness=0.0)
        engine.register_source("a")
        engine.register_source("b")
        frontend = AsyncIngestFrontend(engine)
        for batch in batches[: len(batches) // 2]:
            frontend.submit(batch)
        path = tmp_path / "sharded.snap"
        frontend.checkpoint(str(path))
        frontend.close()

        resumed = ShardedStreamEngine.restore(str(path))
        frontend = AsyncIngestFrontend(resumed)
        for batch in batches[len(batches) // 2 :]:
            frontend.submit(batch)
        frontend.close()
        assert canonical(resumed.events()) == reference

    def test_legacy_single_buffer_snapshot_upgrades_on_restore(self, tmp_path):
        """A pre-multisource snapshot (plain ReorderBuffer payload) must
        restore into an engine whose buffer supports the new API --
        register_source works, sourced records get per-source watermarks --
        while a sourceless resumed stream releases byte-for-byte."""
        rng = random.Random(59)
        records = host_records(rng, 120)
        shuffled = list(records)
        rng.shuffle(shuffled)
        engine = build_engine(allowed_lateness=float("inf"))
        engine.reorder = ReorderBuffer(float("inf"))  # the pre-PR5 engine
        for start in range(0, 60, 20):
            engine.process_batch(shuffled[start : start + 20])
        path = str(tmp_path / "legacy.snap")
        engine.checkpoint(path)  # writes a "kind": "single" reorder section

        oracle = build_engine(allowed_lateness=float("inf"))
        oracle.reorder = ReorderBuffer(float("inf"))
        reference = canonical(run_batches(oracle, shuffled, 20))

        resumed = StreamWorksEngine.restore(path)
        assert isinstance(resumed.reorder, MultiSourceReorderBuffer)
        resumed.register_source("new-collector")  # must not AttributeError
        assert "new-collector" in resumed.reorder.sources()
        events = list(resumed.events())
        for start in range(60, len(shuffled), 20):
            events.extend(resumed.process_batch(shuffled[start : start + 20]))
        events.extend(resumed.flush())
        assert canonical(events) == reference

    def test_multisource_buffer_state_round_trips_exactly(self, tmp_path):
        buffer = MultiSourceReorderBuffer(
            ADAPTIVE_LATENESS, idle_timeout=4.0, adaptive_refresh=4
        )
        buffer.register_source("silent")
        rng = random.Random(47)
        for i in range(30):
            buffer.offer(edge(max(0.0, i * 0.5 - rng.random()), source_id="a"))
            buffer.offer(edge(i * 0.5, source_id="b"))
            buffer.drain_ready()
        restored = MultiSourceReorderBuffer.from_state(buffer.state_dict())
        assert restored.stats() == buffer.stats()
        assert restored.sources() == buffer.sources()
        # both must release identically from here on
        tail = [edge(20.0 + i, source_id="a") for i in range(4)]
        buffer.offer_all(tail)
        restored.offer_all(tail)
        assert [r.to_dict() for r in buffer.drain_ready()] == [
            r.to_dict() for r in restored.drain_ready()
        ]
        assert [r.to_dict() for r in buffer.flush()] == [
            r.to_dict() for r in restored.flush()
        ]
