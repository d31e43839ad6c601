"""Multi-source event-time ingestion: per-source watermarks.

Covers the multi-source subsystem end to end:

* :class:`ReorderBuffer` semantics -- min-watermark release across
  sources, registered/silent sources, idle-source timeout, the monotone
  watermark floor (a source appearing with an old clock must not make
  released output regress), per-source counters;
* the **sourceless oracle**: with no ``source_id`` on the records the
  buffer is one global watermark -- releases and counters equal
  :func:`sourceless_oracle`, which shares no code with the buffer, under
  random arrival orders and batch cuts, and a loop whose late test keeps
  the horizon's edge fails it;
* engine-level conformance: per-source skewed interleavings, released by
  min-watermark, equal the sorted-merge oracle byte-for-byte (matches,
  event order, sequence numbers) across shard counts 1/2/4 --
  property-tested with Hypothesis;
* one ingest path: per-record, fixed and random batching give the same
  events, and an autosave between batches resumes with the held tail;
* what per-source watermarks buy over one global watermark: nothing lost
  at per-source lateness, fresher release than a worst-case global
  horizon, and an idle timeout that keeps a silent collector's held tail
  bounded;
* checkpoint/restore of the buffer, including a snapshot whose buffer
  was written as a single-watermark payload (``"kind": "single"``);
* the admission loop against the one it replaced (kept here as
  :class:`LoopReference`): releases, the watermark after every offer,
  ``stats()`` and ``state_dict()`` agree exactly under random multi-source
  streams, and a loop that forgets to write its watermark floor back fails.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from differential import mutant_admit
from test_checkpoint import as_single_buffer

from repro.core import (
    EngineConfig,
    ShardConfig,
    ShardedStreamEngine,
    StreamWorksEngine,
)
from repro.persistence import read_snapshot
from repro.persistence.state import ENGINE_KIND, load_engine_sections
from repro.persistence.upgrade import upgrade
from repro.query.query_graph import QueryGraph
from repro.streaming import (
    ReorderBuffer,
    StreamEdge,
    bounded_shuffle,
    max_time_displacement,
    skewed_interleave,
    split_by_source,
    tag_sources,
)
from repro.streaming.reorder import DEFAULT_SOURCE, _idle, _SourceState

SUPPRESS = [HealthCheck.too_slow]
_NEG_INF = float("-inf")


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


def build_engine(shards=None, **config_kwargs):
    config = EngineConfig(collect_statistics=False, **config_kwargs)
    if shards is None:
        engine = StreamWorksEngine(config=config)
    else:
        engine = ShardedStreamEngine(
            config=ShardConfig(shard_count=shards, engine=config)
        )
    engine.register_query(chain_query("xy", ["x", "y"]), name="xy", window=5.0)
    engine.register_query(chain_query("yx", ["y", "x"]), name="yx", window=4.0)
    return engine


def strip_sources(records):
    """Copies of ``records`` without a ``source_id``: one global watermark."""
    return tag_sources(records, lambda index, record: None)


def run_batches(engine, records, batch_size):
    events = []
    for start in range(0, len(records), batch_size):
        events.extend(engine.process_batch(records[start : start + batch_size]))
    events.extend(engine.flush())
    return events


def release_segments(arrival, batch_size, sources=(), **buffer_kwargs):
    """Probe the release boundaries a multi-source buffer produces for a feed."""
    probe = ReorderBuffer(buffer_kwargs.pop("allowed_lateness", 0.0), **buffer_kwargs)
    for source in sources:
        probe.register_source(source)
    segments = []
    for start in range(0, len(arrival), batch_size):
        probe.offer_all(arrival[start : start + batch_size])
        assert probe.records_late_dropped == 0
        segment = probe.drain_ready()
        if segment:
            segments.append(segment)
    tail = probe.flush()
    if tail:
        segments.append(tail)
    assert probe.records_late_dropped == 0
    return segments


def segment_oracle_events(segments):
    """Feed the sorted-merge release segments to a buffer-less oracle engine."""
    oracle = build_engine()
    events = []
    for segment in segments:
        events.extend(oracle.process_batch(segment))
    return events


# ----------------------------------------------------------------------
# ReorderBuffer semantics
# ----------------------------------------------------------------------
class TestMultiSourceBuffer:
    def test_slow_source_holds_the_release_horizon(self):
        buffer = ReorderBuffer(0.0)
        buffer.register_source("fast")
        buffer.register_source("slow")
        buffer.offer_all([edge(t, source_id="fast") for t in (1.0, 2.0, 3.0)])
        # the global clock is at 3.0, but "slow" has not spoken: nothing final
        assert buffer.drain_ready() == []
        buffer.offer(edge(0.5, source_id="slow"))
        released = buffer.drain_ready()
        # slow's watermark is 0.5: exactly the prefix <= 0.5 is final
        assert [r.timestamp for r in released] == [0.5]
        assert buffer.records_late_dropped == 0

    def test_release_is_sorted_merge_of_skewed_sources(self):
        rng = random.Random(3)
        per_source = round_robin_sources(host_records(rng, 120), ["a", "b", "c"])
        arrival = skewed_interleave(per_source, {"a": 0.0, "b": 2.0, "c": 5.0})
        segments = release_segments(arrival, 25, sources=("a", "b", "c"))
        flat = [r.timestamp for segment in segments for r in segment]
        assert flat == sorted(r.timestamp for r in arrival)

    def test_registered_silent_source_blocks_until_it_speaks(self):
        buffer = ReorderBuffer(0.0)
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
        buffer = ReorderBuffer(0.0, idle_timeout=60.0)
        buffer.register_source("fast")
        buffer.register_source("skewed")
        buffer.offer_all([edge(t, source_id="fast") for t in (1.0, 2.0)])
        # the timeout (60) has not elapsed: "skewed" still holds the horizon
        assert buffer.drain_ready() == []
        assert buffer.stats()["idle_sources"] == []
        # its first record, merely 1.5 behind, must be admitted, not late
        buffer.offer(edge(0.5, source_id="skewed"))
        assert buffer.records_late_dropped == 0
        assert [r.timestamp for r in buffer.drain_ready()] == [0.5]

    def test_source_registered_mid_stream_counts_silence_from_registration(self):
        buffer = ReorderBuffer(0.0, idle_timeout=3.0)
        buffer.offer(edge(10.0, source_id="a"))
        buffer.register_source("late_joiner")  # baseline = current clock (10.0)
        buffer.offer(edge(12.0, source_id="a"))
        assert buffer.drain_ready() == []  # 12 - 10 = 2 <= 3: still waited for
        buffer.offer(edge(14.0, source_id="a"))
        # 14 - 10 > 3: the joiner that never spoke is now idle
        assert [r.timestamp for r in buffer.drain_ready()] == [10.0, 12.0, 14.0]

    def test_idle_timeout_excludes_silent_source_from_the_minimum(self):
        buffer = ReorderBuffer(0.0, idle_timeout=2.0)
        buffer.register_source("fast")
        buffer.register_source("silent")
        buffer.offer_all([edge(t, source_id="fast") for t in (1.0, 2.0, 5.0)])
        # silent lags the global clock (5.0) by more than 2.0: excluded
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 2.0, 5.0]
        assert "silent" in buffer.stats()["idle_sources"]

    def test_source_going_quiet_mid_stream_times_out(self):
        buffer = ReorderBuffer(0.0, idle_timeout=3.0)
        buffer.offer_all(
            [edge(1.0, source_id="a"), edge(1.5, source_id="b"), edge(2.0, source_id="a")]
        )
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 1.5]
        # b stops; a runs ahead until b's lag exceeds the timeout
        buffer.offer_all([edge(t, source_id="a") for t in (3.0, 4.0, 6.0)])
        released = buffer.drain_ready()
        assert [r.timestamp for r in released] == [2.0, 3.0, 4.0, 6.0]

    def test_idle_source_returning_behind_the_floor_is_late(self):
        buffer = ReorderBuffer(0.0, idle_timeout=2.0)
        buffer.offer_all([edge(t, source_id="a") for t in (1.0, 6.0)])
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 6.0]
        # b appears with an old clock, below the already-released horizon:
        # the monotone floor classifies it late instead of regressing
        buffer.offer(edge(2.0, source_id="b"))
        assert buffer.records_late_dropped == 1
        assert buffer.stats()["sources"]["b"]["records_late"] == 1.0
        # but b's clock observation is real: once it catches up it rejoins
        buffer.offer(edge(7.0, source_id="b"))
        assert [r.timestamp for r in buffer.flush()] == [7.0]

    def test_watermark_never_regresses_when_a_source_appears(self):
        buffer = ReorderBuffer(0.0)
        buffer.offer_all([edge(t, source_id="a") for t in (1.0, 4.0)])
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 4.0]
        watermark_before = buffer.watermark
        # unregistered source appears mid-stream with a lagging clock
        buffer.offer(edge(2.0, source_id="b"))
        assert buffer.watermark == watermark_before
        assert buffer.records_late_dropped == 1  # cannot be released in order any more

    def test_new_source_appearing_ahead_of_the_watermark_joins_cleanly(self):
        buffer = ReorderBuffer(0.0)
        buffer.offer_all([edge(t, source_id="a") for t in (1.0, 2.0)])
        assert [r.timestamp for r in buffer.drain_ready()] == [1.0, 2.0]
        buffer.offer(edge(3.0, source_id="b"))
        buffer.offer(edge(5.0, source_id="a"))
        # b now participates in the minimum: only <= 3.0 is final
        assert [r.timestamp for r in buffer.drain_ready()] == [3.0]
        assert buffer.records_late_dropped == 0
        assert [r.timestamp for r in buffer.flush()] == [5.0]

    def test_per_source_counters_in_stats(self):
        buffer = ReorderBuffer(5.0)
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
        buffer = ReorderBuffer(1.0)
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
            ReorderBuffer(-1.0)
        with pytest.raises(ValueError, match="allowed_lateness"):
            ReorderBuffer("bogus")
        with pytest.raises(ValueError, match="idle_timeout"):
            ReorderBuffer(1.0, idle_timeout=0.0)


# ----------------------------------------------------------------------
# sourceless streams: one global watermark, against an independent oracle
# ----------------------------------------------------------------------
def sourceless_oracle(timestamps, lateness):
    """What a buffer with lateness ``L`` must do with a sourceless arrival sequence.

    A record is late exactly when the largest earlier timestamp exceeds it by
    more than ``L``; the releases concatenate to the stable timestamp sort of
    the rest.  Returns ``(release order as arrival indices, late,
    reordered, max displacement)``.
    """
    kept, late, reordered, displacement, clock = [], 0, 0, 0.0, float("-inf")
    for index, timestamp in enumerate(timestamps):
        behind = clock - timestamp
        displacement = max(displacement, behind)
        clock = max(clock, timestamp)
        if behind > lateness:
            late += 1
        else:
            reordered += behind > 0
            kept.append(index)
    return sorted(kept, key=lambda index: timestamps[index]), late, reordered, displacement


@st.composite
def sourceless_cases(draw):
    """A sourceless arrival sequence on a quarter grid, batch cuts, and per
    batch whether it is offered record by record."""
    clock, timestamps = 0, []
    for advance, back in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 12)),
                                       min_size=1, max_size=60)):
        clock += advance
        timestamps.append(max(clock - max(back - 4, 0), 0) * 0.25)
    cuts = draw(st.lists(st.integers(1, 13), min_size=1, max_size=8))
    per_record = draw(st.lists(st.booleans(), min_size=1, max_size=8))
    return timestamps, cuts, per_record


def assert_matches_sourceless_oracle(buffer_cls, lateness, timestamps, cuts, per_record):
    records = [edge(timestamp, target=f"b{index}") for index, timestamp in enumerate(timestamps)]
    buffer, released, position, batch = buffer_cls(lateness), [], 0, 0
    while position < len(records):
        chunk = records[position : position + cuts[batch % len(cuts)]]
        if per_record[batch % len(per_record)]:
            for record in chunk:
                buffer.offer(record)
        else:
            buffer.offer_all(chunk)
        released += buffer.drain_ready()
        position, batch = position + len(chunk), batch + 1
    released += buffer.flush()
    arrival_index = {id(record): index for index, record in enumerate(records)}
    order, late, reordered, displacement = sourceless_oracle(timestamps, lateness)
    assert [arrival_index[id(record)] for record in released] == order
    assert buffer.records_late_dropped == late
    assert buffer.records_reordered == reordered
    assert buffer.max_displacement_seen == displacement
    assert buffer.records_released == len(order) and buffer.records_seen == len(records)
    assert buffer.watermark == max(timestamps) - lateness


class InclusiveLateTest(ReorderBuffer):
    """Mutant: a record exactly ``L`` behind the least clock is late."""

    _admit = mutant_admit(
        ("late = clock - timestamp > lateness", "late = clock - timestamp >= lateness")
    )


class TestSourcelessOracle:
    @pytest.mark.parametrize("lateness", [0.0, 0.25, 1.0, 7.5, float("inf")])
    @pytest.mark.parametrize("admission", ["offer", "offer_all", "mixed"])
    @settings(max_examples=100, deadline=None, suppress_health_check=SUPPRESS)
    @given(case=sourceless_cases())
    def test_sourceless_buffer_matches_the_oracle(self, lateness, admission, case):
        timestamps, cuts, per_record = case
        per_record = {"offer": [True], "offer_all": [False], "mixed": per_record}[admission]
        assert_matches_sourceless_oracle(ReorderBuffer, lateness, timestamps, cuts, per_record)

    def test_a_late_test_that_includes_the_horizon_fails_the_oracle(self):
        assert_matches_sourceless_oracle(ReorderBuffer, 1.0, [1.0, 3.0, 2.0], [3], [False])
        with pytest.raises(AssertionError):
            assert_matches_sourceless_oracle(InclusiveLateTest, 1.0, [1.0, 3.0, 2.0], [3], [False])


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
            assert stats["records_late_dropped"] == 0
            assert stats["source_count"] == 3

    def test_global_watermark_would_have_dropped_what_min_watermark_keeps(self):
        """The tentpole claim: same lateness horizon, global watermark loses
        the skewed source's records, per-source watermarks lose nothing."""
        arrival = self.make_arrival(11)
        global_buffer = ReorderBuffer(0.0)
        global_buffer.offer_all(strip_sources(arrival))
        assert global_buffer.records_late_dropped > 0
        multi = ReorderBuffer(0.0)
        for source in ("a", "b", "c"):
            multi.register_source(source)
        multi.offer_all(arrival)
        assert multi.records_late_dropped == 0

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
        assert timed_out.metrics()["reorder"]["records_late_dropped"] == 0

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
# what per-source watermarks buy over one global watermark
# ----------------------------------------------------------------------
COLLECTORS = ("c0", "c1", "c2", "c3")


def spiking_arrival(seed=79, count=400):
    """Round-robin collectors, each lagging in proportion to its index; the
    lags spike eightfold in the middle third of the stream.  Each collector's
    own feed stays in order: all disorder is inter-source skew."""
    records = host_records(random.Random(seed), count)
    first, span = records[0].timestamp, records[-1].timestamp - records[0].timestamp
    max_lag = span * 0.08

    def lag(source, timestamp):
        base = max_lag * COLLECTORS.index(source) / (len(COLLECTORS) - 1)
        spiking = first + span / 3.0 <= timestamp <= first + 2.0 * span / 3.0
        return base if spiking else base * 0.125

    return skewed_interleave(round_robin_sources(records, COLLECTORS), lag), max_lag


def registered_buffer(**kwargs):
    buffer = ReorderBuffer(0.0, **kwargs)
    for source in COLLECTORS:
        buffer.register_source(source)
    return buffer


class TestPerSourceWatermarksPay:
    def test_per_source_release_is_fresher_than_a_worst_case_global_horizon(self):
        """Without loss, a global watermark must trail by the worst skew all
        the time; per-source watermarks trail by the collectors' current lag."""
        arrival, _ = spiking_arrival()
        releases = {}
        for name, buffer, records in (
            ("global", ReorderBuffer(max_time_displacement(arrival)), strip_sources(arrival)),
            ("per_source", registered_buffer(), arrival),
        ):
            clock, staleness, peak = float("-inf"), [], 0
            for start in range(0, len(records), 100):
                chunk = records[start : start + 100]
                buffer.offer_all(chunk)
                clock = max([clock] + [record.timestamp for record in chunk])
                peak = max(peak, len(buffer))
                staleness += [clock - record.timestamp for record in buffer.drain_ready()]
            staleness += [clock - record.timestamp for record in buffer.flush()]
            assert buffer.records_late_dropped == 0 and len(staleness) == len(arrival)
            releases[name] = (sum(staleness) / len(staleness), peak)
        assert releases["per_source"][0] < releases["global"][0]
        assert releases["per_source"][1] <= releases["global"][1]

    @pytest.mark.parametrize("shards", [None, 2])
    def test_idle_timeout_bounds_a_silent_collectors_held_tail(self, shards):
        """The slowest collector goes silent two thirds in.  Without a timeout
        its frozen clock holds back everything after it; with one, the held
        tail stays within the timeout and lag of the stream clock.  Both runs
        flush to the sorted-merge oracle's events."""
        arrival, max_lag = spiking_arrival()
        cutoff = max(record.timestamp for record in arrival) * 2.0 / 3.0
        arrival = [
            record
            for record in arrival
            if record.source_id != COLLECTORS[-1] or record.timestamp <= cutoff
        ]
        timeout = 2.0 * max_lag
        oracle = build_engine()
        reference = canonical(run_batches(oracle, sorted(arrival, key=lambda r: r.timestamp), 25))
        assert reference
        tails = {}
        for timed in (False, True):
            engine = build_engine(
                shards=shards,
                allowed_lateness=0.0,
                idle_source_timeout=timeout if timed else None,
            )
            for source in COLLECTORS:
                engine.register_source(source)
            held, bounds = [], []
            for start in range(0, len(arrival), 25):
                engine.process_batch(arrival[start : start + 25])
                seen = arrival[: start + 25]
                clock = max(record.timestamp for record in seen)
                held.append(len(engine.reorder))
                bounds.append(sum(r.timestamp > clock - timeout - max_lag for r in seen))
            tails[timed] = held, bounds
            assert canonical(engine.events() + engine.flush()) == reference
            assert engine.metrics()["reorder"]["records_late_dropped"] == 0
        frozen, bounds = tails[False]
        timed_out, _ = tails[True]
        assert all(tail <= bound for tail, bound in zip(timed_out, bounds))
        # from the batch after the collector's last record, the frozen tail
        # only grows
        last = max(index for index, r in enumerate(arrival) if r.source_id == COLLECTORS[-1])
        assert frozen[last // 25 + 1 :] == sorted(frozen[last // 25 + 1 :])
        assert frozen[-1] > bounds[-1]
        assert frozen[-1] > 10 * timed_out[-1]


# ----------------------------------------------------------------------
# property: per-source streams + min-watermark == sorted-merge oracle
# ----------------------------------------------------------------------
class TestMultiSourceOracleProperty:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        source_count=st.integers(min_value=1, max_value=4),
        shard_count=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=SUPPRESS)
    def test_skewed_interleaving_equals_sorted_merge_oracle(self, seed, source_count, shard_count):
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
            shards=shard_count if shard_count > 1 else None, allowed_lateness=0.0
        )
        for name in names:
            engine.register_source(name)
        events = run_batches(engine, arrival, batch_size)
        assert canonical(events) == reference


# ----------------------------------------------------------------------
# one ingest path: how the caller slices the stream changes nothing
# ----------------------------------------------------------------------
class TestMultiSourceIngestPath:
    def make_arrival(self, seed, count=200):
        rng = random.Random(seed)
        per_source = round_robin_sources(host_records(rng, count), ["a", "b"])
        return skewed_interleave(per_source, {"a": 0.0, "b": 3.0})

    def build(self, shards=None, **config_kwargs):
        engine = build_engine(shards=shards, allowed_lateness=0.0, **config_kwargs)
        engine.register_source("a")
        engine.register_source("b")
        return engine

    @pytest.mark.parametrize("shards", [None, 2])
    def test_per_record_ingest_equals_batched(self, shards):
        arrival = self.make_arrival(29)
        reference = canonical(run_batches(self.build(shards), arrival, 40))
        assert reference
        engine = self.build(shards)
        events = [event for record in arrival for event in engine.process_record(record)]
        events.extend(engine.flush())
        assert canonical(events) == reference
        assert canonical(engine.events()) == reference

    def test_random_batching_does_not_change_results(self):
        arrival = self.make_arrival(31)
        reference = canonical(run_batches(self.build(), arrival, 25))
        rng = random.Random(0)
        engine = self.build()
        events = []
        start = 0
        while start < len(arrival):
            end = start + rng.randrange(1, 60)
            events.extend(engine.process_batch(arrival[start:end]))
            start = end
        events.extend(engine.flush())
        assert canonical(events) == reference

    def test_flush_releases_everything_to_the_engine(self):
        arrival = self.make_arrival(37, count=80)
        engine = self.build()
        for start in range(0, len(arrival), 20):
            engine.process_batch(arrival[start : start + 20])
        assert len(engine.reorder) > 0  # the skewed source holds a tail back
        engine.flush()
        assert len(engine.reorder) == 0
        assert engine.records_batched == len(arrival)
        stats = engine.metrics()["reorder"]
        assert stats["records_late_dropped"] == 0
        assert stats["records_released"] == len(arrival)

    def test_batch_count_and_watermark_do_not_depend_on_sharding(self):
        arrival = self.make_arrival(53, count=80)
        single = self.build()
        sharded = self.build(shards=2)
        for engine in (single, sharded):
            for start in range(0, len(arrival), 20):
                engine.process_batch(arrival[start : start + 20])
        assert single.batches_processed == sharded.batches_processed == 4
        assert (
            single.metrics()["event_time_watermark"]
            == sharded.metrics()["reorder"]["watermark"]
            > float("-inf")
        )

    @pytest.mark.parametrize("shards", [None, 2])
    def test_autosave_resumes_with_the_held_tail(self, shards, tmp_path):
        arrival = self.make_arrival(41, count=160)
        batches = [arrival[start : start + 20] for start in range(0, len(arrival), 20)]
        reference = canonical(run_batches(self.build(shards), arrival, 20))
        path = str(tmp_path / "auto.snap")
        engine = self.build(shards, checkpoint_every=3, checkpoint_path=path)
        for batch in batches[:4]:
            engine.process_batch(batch)
        held = len(engine.reorder)
        assert held > 0
        # the autosave ran after batch 3; batch 4 is lost with the process
        del engine
        engine_cls = StreamWorksEngine if shards is None else ShardedStreamEngine
        resumed = engine_cls.restore(path)
        assert isinstance(resumed.reorder, ReorderBuffer)
        assert resumed.batches_processed == 3
        events = list(resumed.events())
        for batch in batches[3:]:
            events.extend(resumed.process_batch(batch))
        events.extend(resumed.flush())
        assert canonical(events) == reference


# ----------------------------------------------------------------------
# checkpoint/restore of the buffer
# ----------------------------------------------------------------------
def restored_from_single_payload(engine, path):
    """``engine``, checkpointed to ``path`` and restored as a format-1 snapshot
    whose reorder section is the single-watermark payload (``"kind":
    "single"``) of its sourceless buffer."""
    engine.checkpoint(path)
    _, sections = read_snapshot(path)
    as_single_buffer(tagged=True)(sections)
    return load_engine_sections(upgrade(ENGINE_KIND, sections, 1))


class TestMultiSourceCheckpointRestore:
    def test_legacy_single_buffer_snapshot_upgrades_on_restore(self, tmp_path):
        """A format-1 snapshot whose buffer is a single-watermark payload must
        restore into an engine whose buffer supports the source API --
        register_source works, sourced records get per-source watermarks --
        while a sourceless resumed stream releases byte-for-byte."""
        rng = random.Random(59)
        records = host_records(rng, 120)
        shuffled = list(records)
        rng.shuffle(shuffled)
        reference = canonical(run_batches(build_engine(allowed_lateness=float("inf")), shuffled, 20))
        engine = build_engine(allowed_lateness=float("inf"))
        for start in range(0, 60, 20):
            engine.process_batch(shuffled[start : start + 20])
        resumed = restored_from_single_payload(engine, str(tmp_path / "legacy.snap"))
        assert isinstance(resumed.reorder, ReorderBuffer)
        resumed.register_source("new-collector")  # must not AttributeError
        assert "new-collector" in resumed.reorder.sources()
        events = list(resumed.events())
        for start in range(60, len(shuffled), 20):
            events.extend(resumed.process_batch(shuffled[start : start + 20]))
        events.extend(resumed.flush())
        assert canonical(events) == reference

    def test_engine_events_identical_to_single_watermark_buffer(self, tmp_path):
        """An engine restored mid-stream from a single-watermark payload with
        genuinely-late records behind it runs on to the uninterrupted
        engine's events and late count."""
        arrival = bounded_shuffle(host_records(random.Random(17), 300), 12, seed=17)
        reference = build_engine(allowed_lateness=0.5)
        expected = canonical(run_batches(reference, arrival, 25))
        engine = build_engine(allowed_lateness=0.5)
        for start in range(0, 150, 25):
            engine.process_batch(arrival[start : start + 25])
        assert engine.metrics()["reorder"]["records_late_dropped"] > 0
        resumed = restored_from_single_payload(engine, str(tmp_path / "late.snap"))
        events = list(resumed.events()) + run_batches(resumed, arrival[150:], 25)
        assert canonical(events) == expected
        assert resumed.metrics()["reorder"]["records_late_dropped"] == (
            reference.metrics()["reorder"]["records_late_dropped"]
        )

    @pytest.mark.parametrize("shards", [None, 2])
    def test_mid_stream_checkpoint_resumes_per_record(self, shards, tmp_path):
        """A snapshot taken between batches resumes through ``process_record``
        to the events of an uninterrupted batched run."""
        rng = random.Random(43)
        per_source = round_robin_sources(host_records(rng, 160), ["a", "b"])
        arrival = skewed_interleave(per_source, {"a": 0.0, "b": 2.0})

        def build():
            engine = build_engine(shards=shards, allowed_lateness=0.0)
            engine.register_source("a")
            engine.register_source("b")
            return engine

        reference = canonical(run_batches(build(), arrival, 40))
        engine = build()
        for start in range(0, len(arrival) // 2, 40):
            engine.process_batch(arrival[start : start + 40])
        path = str(tmp_path / "mid.snap")
        engine.checkpoint(path)
        del engine
        engine_cls = StreamWorksEngine if shards is None else ShardedStreamEngine
        resumed = engine_cls.restore(path)
        for record in arrival[len(arrival) // 2 :]:
            resumed.process_record(record)
        resumed.flush()
        assert canonical(resumed.events()) == reference

    def test_multisource_buffer_state_round_trips_exactly(self, tmp_path):
        buffer = ReorderBuffer(0.5, idle_timeout=4.0)
        buffer.register_source("silent")
        rng = random.Random(47)
        for i in range(30):
            buffer.offer(edge(max(0.0, i * 0.5 - rng.random()), source_id="a"))
            buffer.offer(edge(i * 0.5, source_id="b"))
            buffer.drain_ready()
        restored = ReorderBuffer.from_state(buffer.state_dict())
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


# ----------------------------------------------------------------------
# the admission loop against the loop it replaced
# ----------------------------------------------------------------------
class LoopReference(ReorderBuffer):
    """The admission loop and watermark before the loop kept its state in locals.

    Every counter and clock is read and written on the buffer per record,
    the least clock is rebuilt by a generator, and the watermark is derived
    from every source on each read.
    """

    def _reference_min_clock(self):
        clocks = [
            state.max_seen
            for state in self._sources.values()
            if not _idle(state, self._max_seen, self.idle_timeout)
        ]
        return min(clocks) if clocks else None

    @property
    def watermark(self):
        clock = self._reference_min_clock() if self._max_seen != _NEG_INF else None
        raw = _NEG_INF if clock is None else clock - self.allowed_lateness
        if raw > self._watermark_floor:
            self._watermark_floor = raw
        return self._watermark_floor

    def _reference_floor(self, raw, late, timestamp):
        if raw > self._watermark_floor:
            self._watermark_floor = raw
        if not late and self._watermark_floor > raw and timestamp < self._watermark_floor:
            late = True
        return late

    def _admit(self, records):
        sources = self._sources
        cached = self.idle_timeout is None
        lateness = self.allowed_lateness
        pending = self._pending
        for record in records:
            key = record.source_id if record.source_id is not None else DEFAULT_SOURCE
            state = sources.get(key)
            if state is None:
                state = sources[key] = _SourceState()
                self._min_clock = _NEG_INF
            self.records_seen += 1
            state.records_seen += 1
            timestamp = record.timestamp
            displacement = self._max_seen - timestamp
            if displacement > self.max_displacement_seen:
                self.max_displacement_seen = displacement
            own_displacement = state.max_seen - timestamp
            if own_displacement < 0.0:
                own_displacement = 0.0
            if own_displacement > state.max_displacement_seen:
                state.max_displacement_seen = own_displacement
            if cached:
                clock = self._min_clock
                if clock is None:
                    clock = self._min_clock = min(source.max_seen for source in sources.values())
            else:
                clock = self._reference_min_clock()
            if clock is None or self._max_seen == _NEG_INF:
                raw, late = _NEG_INF, False
            else:
                raw, late = clock - lateness, clock - timestamp > lateness
            late = self._reference_floor(raw, late, timestamp)
            if timestamp > state.max_seen:
                if state.max_seen == self._min_clock:
                    self._min_clock = None
                state.max_seen = timestamp
            if late:
                state.records_late += 1
                self.records_late_dropped += 1
                continue
            if displacement > 0:
                self.records_reordered += 1
            if own_displacement > 0:
                state.records_reordered += 1
            pending.append(record)
            if timestamp < self._min_pending:
                self._min_pending = timestamp
            if timestamp > self._max_seen:
                first_data = self._max_seen == _NEG_INF
                self._max_seen = timestamp
                if first_data:
                    for other in sources.values():
                        if other.baseline == _NEG_INF:
                            other.baseline = timestamp


class NoFloorWriteBack(ReorderBuffer):
    """Mutant: the loop raises its floor in a local and never writes it back."""

    _admit = mutant_admit(("self._watermark_floor = floor", "pass"))


LOOP_SOURCES = [None, "s1", "s2", "s3"]


@st.composite
def loop_cases(draw):
    """Sources registered before data, after some batches, or never; random cuts."""
    sources = draw(st.lists(st.sampled_from(LOOP_SOURCES), min_size=1, max_size=4, unique=True))
    # per source: register before data (0), before batch k (k >= 1), or never (None)
    register_at = {
        source: draw(st.one_of(st.none(), st.integers(0, 4))) for source in sources
    }
    settings_ = dict(
        allowed_lateness=draw(st.sampled_from([0.0, 0.25, 1.0])),
        idle_timeout=draw(st.sampled_from([None, 0.5, 2.0])),
    )
    clocks = {source: draw(st.integers(0, 8)) for source in sources}
    records = []
    steps = draw(st.lists(
        st.tuples(st.sampled_from(sources), st.integers(0, 4), st.integers(0, 14)),
        min_size=1, max_size=60,
    ))
    for position, (source, advance, back) in enumerate(steps):
        clocks[source] += advance
        # back > 8 is a straggler far behind its own source's clock
        timestamp = max(clocks[source] - (back if back > 8 else max(back - 5, 0)), 0) * 0.25
        records.append(StreamEdge("a", f"b{position}", "rel", timestamp, source_id=source))
    cuts = draw(st.lists(st.sampled_from([1, 1, 2, 3, 5, 8, 13, 60]), min_size=1, max_size=12))
    drains = draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
    return register_at, settings_, records, cuts, drains


def assert_loop_matches_reference(case, buffer_cls):
    register_at, settings_, records, cuts, drains = case
    buffer, reference = buffer_cls(**settings_), LoopReference(**settings_)
    position, batch = 0, 0
    while position < len(records):
        for source, at in register_at.items():
            if at == batch:
                buffer.register_source(source)
                reference.register_source(source)
        size = cuts[batch % len(cuts)]
        chunk = records[position : position + size]
        buffer.offer_all(chunk)
        reference.offer_all(chunk)
        assert buffer.watermark == reference.watermark
        if drains[batch % len(drains)]:
            assert [id(r) for r in buffer.drain_ready()] == [id(r) for r in reference.drain_ready()]
        assert buffer.stats() == reference.stats()
        assert buffer.state_dict() == reference.state_dict()
        position += size
        batch += 1
    assert [id(r) for r in buffer.flush()] == [id(r) for r in reference.flush()]
    assert buffer.stats() == reference.stats()
    assert buffer.state_dict() == reference.state_dict()


class TestAdmissionLoopDifferential:
    @settings(max_examples=300, deadline=None, suppress_health_check=SUPPRESS)
    @given(loop_cases())
    def test_the_loop_admits_as_the_loop_it_replaced(self, case):
        assert_loop_matches_reference(case, ReorderBuffer)

    def test_a_loop_that_drops_its_floor_write_back_fails_the_property(self):
        # no shrinking: the meta-test needs a failure, not the smallest one
        mutated = settings(
            max_examples=300, deadline=None, derandomize=True, database=None,
            report_multiple_bugs=False, suppress_health_check=list(HealthCheck),
            phases=[Phase.generate],
        )(given(loop_cases())(lambda case: assert_loop_matches_reference(case, NoFloorWriteBack)))
        with pytest.raises(AssertionError):
            mutated()
