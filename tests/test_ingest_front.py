"""One way in: every ingest entry point is a batch through one front.

``process_record(r)`` is ``process_batch([r])`` minus the batch count, on
both engines; late ``process_degraded`` records, ``flush`` and the async
front-end's drains reach the same run loop; and the replan cadence is
counted once per batch whichever entry point made it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_sharded_conformance import (
    chain_query,
    drifting_queries,
    drifting_records,
    heavily_disordered_records,
    rmat_queries,
)

from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.core.sharded import ShardConfig, ShardedStreamEngine
from repro.streaming.async_ingest import AsyncIngestFrontend
from repro.streaming.edge_stream import StreamEdge
from repro.streaming.reorder import LatePolicy


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


def chain_specs():
    return [
        ("ab", chain_query("ab", ["rel_a", "rel_b"]), 2.0),
        ("bc", chain_query("bc", ["rel_b", "rel_c"]), 1.0),
        ("ca", chain_query("ca", ["rel_c", "rel_a"]), 3.0),
    ]


def chain_records(rng, count, disordered):
    """Three labels over ten vertices; disordered streams jitter 30 % of stamps back."""
    records = []
    timestamp = 0.0
    for _ in range(count):
        timestamp += rng.random() * 0.2
        stamp = timestamp
        if disordered and rng.random() < 0.3:
            stamp = max(0.0, timestamp - rng.random() * 4.0)
        records.append(
            StreamEdge(
                f"n{rng.randrange(10)}",
                f"n{rng.randrange(10)}",
                rng.choice(["rel_a", "rel_b", "rel_c"]),
                stamp,
            )
        )
    return records


def build(specs, layout="single", **config):
    engine_config = EngineConfig(collect_statistics=False, **config)
    if layout == "single":
        engine = StreamWorksEngine(config=engine_config)
    else:
        engine = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=2, workers=2 if layout == "pool" else 0, engine=engine_config
            )
        )
    for name, query, window in specs():
        engine.register_query(query, name=name, window=window)
    return engine


def counters(engine):
    """``dispatch`` / ``queries`` metrics, per shard on the sharded engine."""
    metrics = engine.metrics()
    engines = metrics["shards"].values() if "shards" in metrics else [metrics]
    return [(shard["dispatch"], shard["queries"]) for shard in engines]


def feed(engine, records, one_by_one):
    """Every record through ``process_record`` or as ``process_batch([r])``, then flush."""
    events = []
    for record in records:
        if one_by_one:
            events.extend(engine.process_record(record))
        else:
            events.extend(engine.process_batch([record]))
    events.extend(engine.flush())
    return canonical(events), counters(engine)


def assert_record_equals_batch(records, specs, layout="single", mutate=None, **config):
    """``process_record(r)`` and ``process_batch([r])`` agree, event for event."""
    per_record = build(specs, layout, **config)
    one_record_batches = build(specs, layout, **config)
    if mutate is not None:
        mutate(per_record)
    try:
        assert feed(per_record, records, True) == feed(one_record_batches, records, False)
    finally:
        for engine in (per_record, one_record_batches):
            if isinstance(engine, ShardedStreamEngine):
                engine.close()


BUFFERS = {
    "none": {},
    "degraded_0.05": dict(allowed_lateness=0.05, late_policy=LatePolicy.PROCESS_DEGRADED),
    "degraded_0.5": dict(allowed_lateness=0.5, late_policy=LatePolicy.PROCESS_DEGRADED),
}


class TestRecordIsAOneRecordBatch:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        disordered=st.booleans(),
        buffer=st.sampled_from(sorted(BUFFERS)),
        layout=st.sampled_from(["single", "serial", "pool"]),
    )
    @settings(
        max_examples=24,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_process_record_equals_a_one_record_batch(self, seed, disordered, buffer, layout):
        if layout == "pool" and not ShardedStreamEngine.fork_available():
            pytest.skip("multiprocessing fork unavailable")
        records = chain_records(random.Random(seed), 40, disordered)
        assert_record_equals_batch(records, chain_specs, layout, **BUFFERS[buffer])


def run_minimum_rule(engine):
    """Fault: the rule before the window rule -- each run sweeps at its own
    first timestamp and emits every completion whose own span fits.

    A late record then completes whatever partials its run's minimum kept,
    so what it emits depends on where the batches were cut.
    """
    run, sweep, dispatch = engine._run_fast_path, engine.expire_all_partials, engine._dispatch_run
    first = []

    def run_fast_path(records, events):
        first.append(records[0].timestamp)
        try:
            run(records, events)
        finally:
            first.pop()

    engine._run_fast_path = run_fast_path
    engine.expire_all_partials = lambda now: sweep(first[-1])
    # no record of a run is below its first timestamp: no clock check
    engine._dispatch_run = lambda hot, length, clock, events: dispatch(
        hot, length, first[-1], events
    )


def assert_record_equals_whole_batch(records, specs, mutate=None):
    """Record by record and the whole stream as one batch give the same events."""
    per_record, whole = build(specs), build(specs)
    if mutate is not None:
        mutate(per_record)
        mutate(whole)
    for record in records:
        per_record.process_record(record)
    whole.process_batch(records)
    assert canonical(per_record.events()) == canonical(whole.events())


#: ``p`` and ``q`` store a partial of ``pqrs`` (its first two-edge leaf),
#: a record only ``zz`` binds moves the clock to 20, then late ``r`` and
#: ``s`` would complete the partial with a span of 7 inside the 10-unit
#: window.  The long ``zz`` window keeps retention open, so the late
#: records are not dead on arrival.
LATE_COMPLETION = [
    StreamEdge("a", "b", "p", 0.0),
    StreamEdge("b", "c", "q", 1.0),
    StreamEdge("m", "n", "z", 20.0),
    StreamEdge("c", "d", "r", 6.0),
    StreamEdge("d", "e", "s", 7.0),
]


def late_completion_specs():
    return [
        ("pqrs", chain_query("pqrs", ["p", "q", "r", "s"]), 10.0),
        ("zz", chain_query("zz", ["z"]), 100.0),
    ]


class TestLateRecordAgainstTheSweptClock:
    """A late record sees the window as of the stream clock.

    ``r`` and ``s`` arrive after ``z`` moved the clock to 20, so the chain
    ``p..s`` stretched to the clock spans 20 and ``pqrs`` never fires --
    however the stream is batched, and whichever partials a sweep left.
    """

    @pytest.mark.parametrize("layout", ["single", "serial"])
    def test_a_late_record_does_not_complete_a_swept_partial(self, layout):
        engine = build(late_completion_specs, layout)
        events, _ = feed(engine, LATE_COMPLETION, one_by_one=True)
        assert [key[0] for key in events] == ["zz"]
        if layout == "serial":
            engine.close()

    def test_the_record_equals_batch_property_catches_the_old_sweep_set(self):
        # under the run-minimum rule the whole stream as one batch runs
        # r and s in a run starting at 6, whose sweep keeps the p..q partial
        mutated = build(late_completion_specs)
        run_minimum_rule(mutated)
        mutated.process_batch(LATE_COMPLETION)
        assert [event.query_name for event in mutated.events()] == ["zz", "pqrs"]
        for records, specs in (
            (LATE_COMPLETION, late_completion_specs),
            (heavily_disordered_records(300), rmat_queries),
        ):
            assert_record_equals_whole_batch(records, specs)
            with pytest.raises(AssertionError):
                assert_record_equals_whole_batch(records, specs, mutate=run_minimum_rule)


class TestEveryEntryPointRunsTheFastPath:
    def test_every_record_reaches_the_run_loop(self, monkeypatch):
        ran = []
        run = StreamWorksEngine._run_fast_path

        def counted(self, records, events):
            ran.extend(records)
            return run(self, records, events)

        monkeypatch.setattr(StreamWorksEngine, "_run_fast_path", counted)
        direct = build(chain_specs)
        direct.process_edge("n1", "n2", "rel_a", 1.0)
        direct.process_record(StreamEdge("n2", "n3", "rel_b", 1.5))
        direct.process_batch([StreamEdge("n3", "n4", "rel_c", 2.0)])
        assert len(ran) == direct.edges_processed == 3

        ran.clear()
        buffered = build(
            chain_specs, allowed_lateness=1.0, late_policy=LatePolicy.PROCESS_DEGRADED
        )
        buffered.process_batch([StreamEdge("a", "b", "rel_a", 5.0)])
        buffered.process_record(StreamEdge("b", "c", "rel_b", 10.0))  # releases t=5
        buffered.process_record(StreamEdge("c", "d", "rel_c", 1.0))  # late: degraded
        with AsyncIngestFrontend(buffered) as frontend:
            frontend.submit([StreamEdge("d", "e", "rel_a", 12.0)])
        # the drain releases t=10, the flush in close() t=12
        assert [record.timestamp for record in ran] == [5.0, 1.0, 10.0, 12.0]


class TestReplanCadenceParity:
    """Automatic replan checks fall due by record count, whatever the entry point."""

    CONFIG = dict(allowed_lateness=0.05, replan_threshold=0.4, replan_check_every=50)

    @staticmethod
    def run(shard_count, use_async):
        config = EngineConfig(**TestReplanCadenceParity.CONFIG)
        if shard_count == 1:
            engine = StreamWorksEngine(config=config)
        else:
            engine = ShardedStreamEngine(
                config=ShardConfig(shard_count=shard_count, engine=config)
            )
        for name, query, window in drifting_queries():
            engine.register_query(query, name=name, window=window)
        records = drifting_records(300)
        batches = [records[start : start + 50] for start in range(0, len(records), 50)]
        if use_async:
            with AsyncIngestFrontend(engine) as frontend:
                for batch in batches:
                    frontend.submit(batch)
        else:
            for batch in batches:
                engine.process_batch(batch)
            engine.flush()
        return engine.metrics()["replan"]["checks_run"], canonical(engine.events())

    def test_checks_run_once_per_cadence_mark_on_every_path(self):
        # 300 records, a check every 50: six checks, the last one earned by
        # the flushed tail; the sharded rollup counts one per shard
        results = {
            (shard_count, use_async): self.run(shard_count, use_async)
            for shard_count in (1, 2)
            for use_async in (False, True)
        }
        checks = {key: count for key, (count, _) in results.items()}
        assert checks == {(1, False): 6, (1, True): 6, (2, False): 12, (2, True): 12}
        reference = results[1, False][1]
        assert reference
        assert all(events == reference for _, events in results.values())
