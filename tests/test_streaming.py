"""Tests for edge streams, batching, events and metrics."""

import math
import os
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.streaming import (
    BatchReplay,
    CallbackSink,
    CollectingSink,
    CountingSink,
    EdgeStream,
    LatencyRecorder,
    MatchEvent,
    MultiSink,
    QueryFilterSink,
    StreamEdge,
    Stopwatch,
    ThroughputMeter,
    batch_by_count,
    batch_by_time,
    merge_events,
    merge_streams,
)
from repro.isomorphism import Match
from repro.graph.types import Edge


def record(source, target, label, timestamp):
    return StreamEdge(source, target, label, timestamp, source_label="IP", target_label="IP")


class TestStreamEdge:
    def test_round_trip(self):
        edge = StreamEdge("a", "b", "connectsTo", 2.5, {"port": 80}, "IP", "IP",
                          source_attrs={"dc": "eu"}, target_attrs={"dc": "us"})
        clone = StreamEdge.from_dict(edge.to_dict())
        assert clone == edge
        assert clone.source_attrs == {"dc": "eu"}

    def test_to_edge(self):
        edge = record("a", "b", "r", 1.0).to_edge(7)
        assert isinstance(edge, Edge)
        assert edge.id == 7 and edge.timestamp == 1.0

    @pytest.mark.parametrize(
        "timestamp", [math.nan, math.inf, -math.inf, "nan"], ids=["nan", "inf", "-inf", "nan_text"]
    )
    def test_non_finite_timestamp_is_rejected_naming_the_record(self, timestamp):
        with pytest.raises(ValueError, match=r"'q'-\[a\]->'r'.*non-finite timestamp"):
            StreamEdge("q", "r", "a", timestamp)
        with pytest.raises(ValueError, match="non-finite timestamp"):
            StreamEdge.from_dict(
                {"source": "q", "target": "r", "label": "a", "timestamp": timestamp}
            )

    @pytest.mark.parametrize(
        "timestamp", ["3", True, False, None, b"1", [1.0], Decimal("1")],
        ids=["text", "true", "false", "none", "bytes", "list", "decimal"],
    )
    def test_a_timestamp_that_is_no_real_number_is_rejected_naming_the_record(self, timestamp):
        with pytest.raises(ValueError, match=r"'q'-\[a\]->'r'.*non-numeric or non-finite"):
            StreamEdge("q", "r", "a", timestamp)

    @pytest.mark.parametrize(
        "timestamp", [3, 2.5, Fraction(1, 2), -1], ids=["int", "float", "fraction", "negative"]
    )
    def test_any_finite_real_timestamp_is_accepted(self, timestamp):
        assert StreamEdge("q", "r", "a", timestamp).timestamp == float(timestamp)

    @pytest.mark.parametrize(
        "label", [None, 7, ("a",), ["a"], {"a": 1}],
        ids=["none", "int", "tuple", "list", "dict"],
    )
    def test_a_label_that_is_not_a_str_is_rejected_naming_the_record(self, label):
        with pytest.raises(ValueError, match=r"'q'-\[.*\]->'r' has a \w+ label"):
            StreamEdge("q", "r", label, 1.0)
        with pytest.raises(ValueError, match="label must be a str"):
            StreamEdge.from_dict({"source": "q", "target": "r", "label": label, "timestamp": 1})


@pytest.mark.parametrize("allowed_lateness", [None, 2.0], ids=["no_buffer", "lateness"])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_a_nan_stamped_record_cannot_reach_the_window_store(allowed_lateness, batch_size):
    """A NaN timestamp compares false against every eviction horizon, so a
    NaN-stamped edge that got into the store would stay there forever: the
    chain below would end with 3 stored edges instead of 2.  The record is
    refused where it is built, and the stream without it evicts normally."""
    from repro.core import EngineConfig, StreamWorksEngine
    from repro.query.query_graph import QueryGraph

    query = QueryGraph("ab")
    for name in ("x", "y", "z"):
        query.add_vertex(name)
    query.add_edge("x", "y", "a")
    query.add_edge("y", "z", "b")
    engine = StreamWorksEngine(config=EngineConfig(allowed_lateness=allowed_lateness))
    engine.register_query(query, window=5.0)
    records = [
        StreamEdge(f"v{index}", f"v{index + 1}", "ab"[index % 2], float(timestamp))
        for index, timestamp in enumerate([1, 2, 3, 4, 30, 31])
    ]
    try:
        records.insert(2, StreamEdge("q", "r", "a", math.nan))
    except ValueError:
        pass  # refused at construction: the stream goes on without it
    for start in range(0, len(records), batch_size):
        engine.process_batch(records[start : start + batch_size])
    engine.flush()
    assert engine.metrics()["graph_edges"] == 2


class TestEdgeStream:
    def make_stream(self):
        return EdgeStream([
            record("a", "b", "x", 3.0),
            record("b", "c", "y", 1.0),
            record("c", "d", "x", 2.0),
        ], name="s")

    def test_from_tuples(self):
        stream = EdgeStream.from_tuples([("a", "b", "r", 1.0), ("b", "c", "r", 2.0, {"w": 1})])
        assert len(stream) == 2
        assert stream[1].attrs == {"w": 1}

    def test_sorting_and_order_check(self):
        stream = self.make_stream()
        assert not stream.is_time_ordered()
        ordered = stream.sorted_by_time()
        assert ordered.is_time_ordered()
        assert [edge.timestamp for edge in ordered] == [1.0, 2.0, 3.0]

    def test_filter_slice_limit_concat(self):
        stream = self.make_stream().sorted_by_time()
        assert len(stream.filter(lambda e: e.label == "x")) == 2
        assert len(stream.slice_time(1.5, 3.0)) == 1
        assert len(stream.limit(2)) == 2
        assert len(stream.concat(stream)) == 6
        assert len(stream[0:2]) == 2

    def test_label_counts_and_time_span(self):
        stream = self.make_stream()
        assert stream.label_counts() == {"x": 2, "y": 1}
        assert stream.time_span() == pytest.approx(2.0)
        assert EdgeStream([]).time_span() == 0.0

    def test_jsonl_round_trip(self, tmp_path):
        stream = self.make_stream()
        path = os.path.join(tmp_path, "stream.jsonl")
        stream.to_jsonl(path)
        loaded = EdgeStream.from_jsonl(path)
        assert len(loaded) == len(stream)
        assert loaded[0] == stream[0]

    def test_merge_streams_orders_by_time(self):
        first = EdgeStream([record("a", "b", "x", 1.0), record("a", "b", "x", 5.0)])
        second = EdgeStream([record("c", "d", "y", 2.0), record("c", "d", "y", 4.0)])
        merged = merge_streams(first, second)
        assert [edge.timestamp for edge in merged] == [1.0, 2.0, 4.0, 5.0]
        assert len(merged) == 4

    def test_merge_streams_timestamp_ties_break_by_stream_then_position(self):
        # regression: timestamp ties must merge deterministically -- records
        # from the earlier argument stream first, original order within a
        # stream -- not however the underlying heap happens to settle
        first = EdgeStream([record("a1", "b", "x", 1.0), record("a2", "b", "x", 1.0),
                            record("a3", "b", "x", 2.0)])
        second = EdgeStream([record("c1", "d", "y", 1.0), record("c2", "d", "y", 2.0)])
        third = EdgeStream([record("e1", "f", "z", 1.0)])
        merged = list(merge_streams(first, second, third))
        assert [edge.source for edge in merged] == ["a1", "a2", "c1", "e1", "a3", "c2"]
        # merging the same inputs twice yields the identical order
        again = list(merge_streams(first, second, third))
        assert [edge.source for edge in again] == [edge.source for edge in merged]

    def test_merge_streams_sorts_unsorted_inputs_stably(self):
        jumbled = EdgeStream([record("late", "b", "x", 3.0), record("tie1", "b", "x", 1.0),
                              record("tie2", "b", "x", 1.0)])
        merged = list(merge_streams(jumbled))
        assert [edge.source for edge in merged] == ["tie1", "tie2", "late"]


class TestBatching:
    def test_batch_by_count(self):
        records = [record("a", "b", "r", float(index)) for index in range(7)]
        batches = list(batch_by_count(records, 3))
        assert [len(batch) for batch in batches] == [3, 3, 1]
        with pytest.raises(ValueError):
            list(batch_by_count(records, 0))

    def test_batch_by_time(self):
        records = [record("a", "b", "r", timestamp) for timestamp in (0.0, 0.5, 1.2, 3.7)]
        batches = list(batch_by_time(records, 1.0))
        assert [len(batch) for batch in batches] == [2, 1, 0, 1]
        with pytest.raises(ValueError):
            list(batch_by_time(records, 0.0))

    def test_batch_replay_records_metrics(self):
        stream = EdgeStream([record("a", "b", "r", float(index)) for index in range(10)])
        replay = BatchReplay(lambda batch: len(batch))
        results = replay.run(stream, batch_size=4)
        assert len(results) == 3
        assert replay.total_matches() == 10
        assert replay.total_elapsed() >= 0.0
        assert results[0].to_dict()["edges"] == 4.0

    def test_batch_replay_requires_exactly_one_mode(self):
        stream = EdgeStream([record("a", "b", "r", 0.0)])
        replay = BatchReplay(lambda batch: 0)
        with pytest.raises(ValueError):
            replay.run(stream)
        with pytest.raises(ValueError):
            replay.run(stream, batch_size=1, bucket_seconds=1.0)


class TestEvents:
    def make_event(self, sequence=0, query="q"):
        match = Match({"x": "a", "y": "b"}, {0: Edge(0, "a", "b", "r", 5.0), 1: Edge(1, "b", "c", "r", 8.0)})
        return MatchEvent(query, match, detected_at=8.0, sequence=sequence)

    def test_event_properties(self):
        event = self.make_event()
        assert event.detection_latency == pytest.approx(3.0)
        assert event.span == pytest.approx(3.0)
        payload = event.to_dict()
        assert payload["query"] == "q" and payload["edges"] == [0, 1]

    def test_collecting_sink(self):
        sink = CollectingSink()
        sink.deliver(self.make_event(0, "a"))
        sink.deliver(self.make_event(1, "b"))
        assert len(sink) == 2
        assert len(sink.for_query("a")) == 1
        sink.clear()
        assert len(sink) == 0

    def make_timed_event(self, query, detected_at, sequence):
        match = Match({"x": "a"}, {0: Edge(0, "a", "b", "r", detected_at)})
        return MatchEvent(query, match, detected_at=detected_at, sequence=sequence)

    def test_merge_events_ties_break_by_sequence_then_query_name(self):
        # regression: on identical timestamps the merged order must be pinned
        # by (sequence, query name), not by argument order or sort whims
        left = [
            self.make_timed_event("zeta", 1.0, 0),
            self.make_timed_event("zeta", 5.0, 1),
        ]
        right = [
            self.make_timed_event("alpha", 1.0, 0),
            self.make_timed_event("alpha", 1.0, 2),
        ]
        merged = merge_events(left, right)
        assert [(e.query_name, e.detected_at, e.sequence) for e in merged] == [
            ("alpha", 1.0, 0),  # ties (t=1.0, seq=0): query name decides
            ("zeta", 1.0, 0),
            ("alpha", 1.0, 2),  # then the higher sequence
            ("zeta", 5.0, 1),
        ]
        # argument order must not matter
        swapped = merge_events(right, left)
        assert [(e.query_name, e.detected_at, e.sequence) for e in swapped] == [
            (e.query_name, e.detected_at, e.sequence) for e in merged
        ]

    def test_callback_counting_multi_sinks(self):
        seen = []
        multi = MultiSink([CallbackSink(seen.append)])
        counting = CountingSink()
        multi.add(counting)
        multi.deliver(self.make_event(0, "a"))
        multi.deliver(self.make_event(1, "a"))
        assert len(seen) == 2
        assert counting.total == 2
        assert counting.per_query == {"a": 2}

    def test_query_filter_sink_routes_by_query_name(self):
        seen = []
        sink = QueryFilterSink("a", CallbackSink(seen.append))
        sink.deliver(self.make_event(0, "a"))
        sink.deliver(self.make_event(1, "b"))
        sink.deliver(self.make_event(2, "a"))
        assert [event.sequence for event in seen] == [0, 2]
        assert all(event.query_name == "a" for event in seen)

    def test_multi_sink_remove(self):
        seen = []
        callback = CallbackSink(seen.append)
        multi = MultiSink([callback])
        assert multi.remove(callback)
        assert not multi.remove(callback)
        multi.deliver(self.make_event(0, "a"))
        assert seen == []


class TestMetrics:
    def test_stopwatch(self):
        watch = Stopwatch()
        watch.start()
        elapsed = watch.stop()
        assert elapsed >= 0.0
        with pytest.raises(RuntimeError):
            watch.stop()
        with Stopwatch() as context_watch:
            pass
        assert context_watch.elapsed >= 0.0

    def test_latency_recorder_percentiles(self):
        recorder = LatencyRecorder()
        for value in (0.001, 0.002, 0.003, 0.004, 0.1):
            recorder.record(value)
        assert recorder.count == 5
        assert recorder.mean() == pytest.approx(0.022)
        assert recorder.percentile(0.0) == 0.001
        assert recorder.percentile(1.0) == 0.1
        assert recorder.max() == 0.1
        summary = recorder.summary()
        assert summary["count"] == 5.0
        with pytest.raises(ValueError):
            recorder.percentile(2.0)

    def test_latency_recorder_empty(self):
        recorder = LatencyRecorder()
        assert recorder.mean() == 0.0
        assert recorder.percentile(0.5) == 0.0
        assert recorder.max() == 0.0

    def test_latency_reservoir_bounds_memory(self):
        recorder = LatencyRecorder(cap=100)
        for index in range(10_000):
            recorder.record(index * 0.001)
        assert recorder.count == 10_000
        assert recorder.retained == 100
        # mean and max stay exact over all samples, not just the reservoir
        assert recorder.mean() == pytest.approx(sum(i * 0.001 for i in range(10_000)) / 10_000)
        assert recorder.max() == pytest.approx(9.999)
        # percentiles come from a uniform sample of the stream
        assert 0.0 <= recorder.percentile(0.5) <= 9.999
        assert recorder.percentile(0.1) <= recorder.percentile(0.9)

    def test_latency_percentiles_exact_below_cap(self):
        recorder = LatencyRecorder(cap=100)
        for value in (5.0, 1.0, 3.0, 2.0, 4.0):
            recorder.record(value)
        assert recorder.percentile(0.0) == 1.0
        assert recorder.percentile(0.5) == 3.0
        assert recorder.percentile(1.0) == 5.0
        # cached sorted view must invalidate on new samples
        recorder.record(0.5)
        assert recorder.percentile(0.0) == 0.5

    def test_latency_cap_validation(self):
        with pytest.raises(ValueError):
            LatencyRecorder(cap=0)
        unbounded = LatencyRecorder(cap=None)
        for index in range(500):
            unbounded.record(float(index))
        assert unbounded.retained == 500

    def test_throughput_meter(self):
        meter = ThroughputMeter()
        meter.start()
        meter.add(10)
        meter.stop()
        assert meter.items == 10
        assert meter.elapsed > 0.0
        assert meter.rate() > 0.0
        assert meter.summary()["items"] == 10.0

    def test_throughput_meter_zero_elapsed(self):
        meter = ThroughputMeter()
        assert meter.rate() == 0.0
