"""The window rule: a match must fit the window as of the stream clock.

A record emits every embedding it is the newest edge of whose interval,
stretched to the stream clock at that record, fits the query window.  For
an in-order record the clock is its own timestamp, so this is the span
check; a late record is judged against the clock it arrived at.  Sweeps,
store eviction, the cold ring and the dead-on-arrival skip drop only what
fails the rule, so on a disordered stream the events are a function of the
record sequence alone.  Three things that must not matter are varied here:

* how the stream is cut into ``process_batch`` calls;
* the plan (the default plan vs one leaf per query edge);
* an unrelated long-window query, which lengthens retention for everyone.

The property holds on the single engine and on sharded engines, where a
shard whose own clock lags learns the global clock only from the late
records the parent tags.  The four streams of the regression table give
one event count each, at every batch size.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_sharded_conformance import (
    chain_query,
    heavily_disordered_records,
    rmat_queries,
    rmat_records,
)

from repro.core.decomposition import Strategy
from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.core.sharded import ShardConfig, ShardedStreamEngine
from repro.streaming import StreamEdge, bounded_shuffle

#: ``layout -> shard count``; ``single`` is the plain engine.
LAYOUTS = {"single": None, "1_shard": 1, "2_shards": 2, "4_shards": 4}
#: Checked on one fixed stream, not the property matrix: an odd shard
#: count splits queries and vertices unevenly.
ODD_LAYOUTS = {"3_shards": 3}
PLANS = (None, Strategy.EDGE_BY_EDGE)
#: The unrelated query: binds only ``z`` records, keeps everything 50 units.
UNRELATED = "zz"


def window_specs():
    return [
        ("ab", chain_query("ab", ["a", "b"]), 1.0),
        ("abc", chain_query("abc", ["a", "b", "c"]), 1.5),
        ("ca", chain_query("ca", ["c", "a"]), 0.8),
    ]


def disordered_stream(rng, count):
    """Chains over ``a``/``b``/``c`` and ``z`` noise; a quarter of the records late.

    Lateness reaches 4 units, past every window above, so late records
    meet swept partials, evicted partners and the dead-on-arrival skip.
    """
    records = []
    clock = 0.0
    for _ in range(count):
        clock += rng.random() * 0.3
        stamp = clock
        if rng.random() < 0.25:
            stamp = max(0.0, clock - rng.random() * 4.0)
        records.append(
            StreamEdge(
                f"n{rng.randrange(6)}", f"n{rng.randrange(6)}", rng.choice("abcz"), stamp
            )
        )
    return records


def random_batching(rng, count):
    """Cut ``range(count)`` into consecutive batches of random sizes."""
    cuts, start = [], 0
    while start < count:
        end = min(count, start + rng.choice([1, 1, 2, 3, 5, 8, 13, count]))
        cuts.append((start, end))
        start = end
    return cuts


def build(layout, plan, unrelated):
    config = EngineConfig(collect_statistics=False)
    if layout == "single":
        engine = StreamWorksEngine(config=config)
    else:
        engine = ShardedStreamEngine(
            config=ShardConfig(shard_count={**LAYOUTS, **ODD_LAYOUTS}[layout], engine=config)
        )
    for name, query, window in window_specs():
        engine.register_query(query, name=name, window=window, strategy=plan)
    if unrelated:
        engine.register_query(chain_query(UNRELATED, ["z"]), name=UNRELATED, window=50.0)
    return engine


def events_of(records, batching, layout, plan, unrelated):
    """The events of every query but the unrelated one, keyed by global record index."""
    engine = build(layout, plan, unrelated)
    for start, end in batching:
        engine.process_batch(records[start:end])
    return [
        (event.query_name, event.match.portable_identity(), event.detected_at,
         event.trigger_index)
        for event in engine.events()
        if event.query_name != UNRELATED
    ]


def assert_window_rule(records, batchings, layout):
    """Every batching x plan x unrelated-query cell gives the single engine's events."""
    expected = events_of(records, batchings[0], "single", None, False)
    for batching in batchings:
        for plan in PLANS:
            for unrelated in (False, True):
                assert events_of(records, batching, layout, plan, unrelated) == expected, (
                    f"{layout}: plan={plan} unrelated={unrelated} diverged"
                )
    return expected


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_events_do_not_depend_on_batching_plan_or_other_queries(layout, seed):
    rng = random.Random(seed)
    records = disordered_stream(rng, 50)
    batchings = [random_batching(rng, len(records)) for _ in range(2)]
    assert_window_rule(records, batchings, layout)


def test_three_shards_follow_the_window_rule():
    rng = random.Random(4)
    records = disordered_stream(rng, 60)
    batchings = [random_batching(rng, len(records)) for _ in range(2)]
    assert assert_window_rule(records, batchings, "3_shards")


def test_a_late_record_sees_the_window_as_of_the_stream_clock():
    # q@7 arrives at clock 20: p@0..q@7 spans 7 < 10, but 20 stretched to
    # the clock, so pq never fires -- under either plan, and whether or not
    # the long zz window keeps p@0 in the store
    records = [
        StreamEdge("x", "y", "p", 0.0),
        StreamEdge("m", "n", "z", 20.0),
        StreamEdge("y", "w", "q", 7.0),
    ]
    for plan in PLANS:
        for unrelated in (False, True):
            engine = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
            engine.register_query(chain_query("pq", ["p", "q"]), name="pq", window=10.0,
                                  strategy=plan)
            if unrelated:
                engine.register_query(chain_query("zz", ["z"]), name="zz", window=100.0)
            engine.process_batch(records)
            assert engine.match_counts()["pq"] == 0
    # inside the window as of the clock, the same late record fires
    engine = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
    engine.register_query(chain_query("pq", ["p", "q"]), name="pq", window=10.0)
    engine.process_batch([records[0], StreamEdge("m", "n", "z", 9.0), records[2]])
    assert engine.match_counts() == {"pq": 1}


# ----------------------------------------------------------------------
# mutation: the property must catch a build without the clock check
# ----------------------------------------------------------------------
def without_the_clock_check(monkeypatch):
    """Fault: late records keep every completion whose own span fits."""
    dispatch = StreamWorksEngine._dispatch_run

    def unchecked(self, hot, run_length, clock, events):
        return dispatch(self, hot, run_length, float("-inf"), events)

    monkeypatch.setattr(StreamWorksEngine, "_dispatch_run", unchecked)


def test_the_property_fails_without_the_clock_check(monkeypatch):
    without_the_clock_check(monkeypatch)
    for seed in range(4):
        rng = random.Random(seed)
        records = disordered_stream(rng, 50)
        batchings = [random_batching(rng, len(records)) for _ in range(2)]
        with pytest.raises(AssertionError):
            assert_window_rule(records, batchings, "single")


# ----------------------------------------------------------------------
# regression table: one event count per stream, at every batch size
# ----------------------------------------------------------------------
STREAMS = {
    "heavily_disordered_300": (lambda: heavily_disordered_records(300), 263),
    "heavily_disordered_2000": (lambda: heavily_disordered_records(2000), 1335),
    "bounded_shuffle_6": (lambda: bounded_shuffle(rmat_records(2000), 6, seed=30), 3109),
    "in_order": (lambda: rmat_records(2000), 3341),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_one_event_count_per_stream_at_every_batch_size(stream):
    make_records, expected = STREAMS[stream]
    records = make_records()
    for size in (1, 3, 7, 50, 400, len(records)):
        engine = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        for name, query, window in rmat_queries():
            engine.register_query(query, name=name, window=window)
        for start in range(0, len(records), size):
            engine.process_batch(records[start : start + size])
        assert len(engine.events()) == expected, f"{stream}: batch size {size}"
    sharded = ShardedStreamEngine(
        config=ShardConfig(shard_count=2, engine=EngineConfig(collect_statistics=False))
    )
    for name, query, window in rmat_queries():
        sharded.register_query(query, name=name, window=window)
    for start in range(0, len(records), 50):
        sharded.process_batch(records[start : start + 50])
    assert len(sharded.events()) == expected
