"""The latency meter's contract: one timing per run, exact per-record count and mean.

The engine times the match step (step 4 of a run) once per ordered run
that stores a record, and records the run's mean per stored record as one
reservoir sample (``LatencyRecorder.record(seconds, operations)``).  So
``count`` is the number of stored records timed, ``mean`` is exact over
them, and the percentiles are over per-run means.
"""

import pytest

from repro.core import EngineConfig, StreamWorksEngine
from repro.query.builder import QueryBuilder
from repro.streaming import StreamEdge
from repro.streaming.metrics import LatencyRecorder


def chain_engine(**config):
    engine = StreamWorksEngine(config=EngineConfig(**config))
    query = (
        QueryBuilder("chain")
        .vertex("a", "Host").vertex("b", "Host").vertex("c", "Host")
        .edge("a", "b", "hop").edge("b", "c", "hop")
        .build()
    )
    engine.register_query(query, window=50.0)
    return engine


def hop(index, label="hop", timestamp=None):
    return StreamEdge(
        f"h{index}", f"h{index + 1}", label,
        float(index) if timestamp is None else timestamp,
        source_label="Host", target_label="Host",
    )


def test_a_run_takes_one_sample_of_its_records_mean():
    engine = chain_engine()
    engine.process_batch([hop(index) for index in range(10)])
    assert engine.latency.count == 10
    assert engine.latency.retained == 1
    assert len(engine.events()) == 9
    engine.process_batch([hop(index) for index in range(10, 15)])
    assert (engine.latency.count, engine.latency.retained) == (15, 2)


def test_count_is_the_hot_records_timed_and_cold_records_are_not():
    engine = chain_engine()
    batch = [hop(index, "hop" if index % 3 else "noise") for index in range(12)]
    engine.process_batch(batch)
    hot = sum(record.label == "hop" for record in batch)
    assert engine.metrics()["ingest_paths"]["cold"] == len(batch) - hot
    assert engine.graph.edges_ingested == hot
    assert (engine.latency.count, engine.latency.retained) == (hot, 1)


def test_a_run_of_only_cold_records_takes_no_sample():
    engine = chain_engine()
    engine.process_batch([hop(index) for index in range(4)])
    before = (engine.latency.count, engine.latency.retained)
    engine.process_batch([hop(index, "noise") for index in range(4, 9)])
    assert engine.metrics()["ingest_paths"]["cold"] == 5
    assert (engine.latency.count, engine.latency.retained) == before


def test_process_record_takes_one_sample():
    engine = chain_engine()
    for index in range(3):
        engine.process_record(hop(index))
    assert (engine.latency.count, engine.latency.retained) == (3, 3)


def test_each_ordered_run_of_a_batch_takes_its_own_sample():
    engine = chain_engine()
    # two non-decreasing runs: 0..4, then a step back to 2.5 and on
    batch = [hop(index) for index in range(5)] + [hop(index, timestamp=index - 2.5) for index in range(5, 8)]
    engine.process_batch(batch)
    assert engine.metrics()["ingest_paths"]["batched_fast_path"] == 8
    assert (engine.latency.count, engine.latency.retained) == (8, 2)


def test_a_sample_is_the_mean_and_the_totals_stay_exact():
    recorder = LatencyRecorder()
    recorder.record(0.008, 4)
    recorder.record(0.001)
    assert recorder.count == 5
    assert recorder.retained == 2
    assert recorder.mean() == pytest.approx(0.009 / 5)
    assert recorder.max() == pytest.approx(0.002)
    assert recorder.percentile(0.0) == pytest.approx(0.001)
    assert recorder.percentile(1.0) == pytest.approx(0.002)


def test_the_reservoir_draws_over_samples_not_operations():
    recorder = LatencyRecorder(cap=4)
    for index in range(100):
        recorder.record(float(index), 1000)
    assert recorder.count == 100_000 and recorder.retained == 4
    # a uniform sample of the 100 per-run means, all kept values among them
    assert all(value in {index / 1000 for index in range(100)} for value in recorder._samples)
