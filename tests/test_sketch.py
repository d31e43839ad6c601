"""Sketch-exactness differential suite: sketches accelerate, never change answers.

The sketch layer (``repro.sketch``) fronts two hot paths: a cuckoo-fronted
bounded duplicate-suppression memory in every matcher, and count-min planner
statistics.  Its contract is absolute: with every sketch switch on -- at any
filter geometry, including degenerate 2-bucket filters built to force
false-positive storms -- the emitted event stream is byte-for-byte the
exact-path stream.  This suite pins that contract:

* **Structure properties** (hypothesis) -- each sketch never false-negatives,
  supports deletion, and round-trips ``state_dict``/``from_state``
  cell-for-cell; :class:`DedupMemory` agrees with a plain-set oracle at any
  front geometry.
* **Engine differential** (hypothesis) -- random streams × degenerate sketch
  sizes ⇒ sketch-on events equal the sketch-off oracle exactly, while the
  false-positive counters prove the storms actually happened.
* **Checkpoint property** (hypothesis) -- checkpoint mid-stream with sketches
  on, resume, finish ⇒ byte-identical to the uninterrupted run, sketch
  counters included.
* **Bounded memory under attack** -- 1M+ distinct keys: the dedup store's
  measured entry count never exceeds ``dedup_memory_budget`` while
  in-horizon suppression recall stays 100%.
* **Mutation meta-tests** -- delete the confirm-against-exact-store step,
  drop a sketch snapshot section: each must fail the suite (the oracle has
  teeth).
"""

from __future__ import annotations

import ast
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, StreamWorksEngine
from repro.graph.window import TimeWindow
from repro.persistence.state import (
    _RETIRED_CONFIG_FIELDS,
    engine_sections,
    load_engine_sections,
)
from repro.persistence.snapshot import SnapshotCorruptError
from repro.query.query_graph import QueryGraph
from repro.sketch import CountMinSketch, CuckooFilter, DedupMemory
from repro.streaming import StreamEdge
from repro.workloads import high_cardinality_flood

import random


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def chain_query(name, labels, vertex_labels=None):
    query = QueryGraph(name)
    vertex_labels = vertex_labels or {}
    for position in range(len(labels) + 1):
        query.add_vertex(f"v{position}", vertex_labels.get(position))
    for position, label in enumerate(labels):
        query.add_edge(f"v{position}", f"v{position + 1}", label)
    return query


def query_specs():
    return [
        ("xy", chain_query("xy", ["x", "y"]), 8.0),
        ("yy", chain_query("yy", ["y", "y"]), 8.0),
        ("never", chain_query("never", ["no_such_label"]), 8.0),
    ]


def mixed_stream(count, seed, noise_ratio=0.4):
    """Deterministic stream: matchable x/y traffic plus unique-label noise."""
    rng = random.Random(seed)
    records = []
    clock = 0.0
    for index in range(count):
        clock += rng.choice((0.05, 0.1, 0.3))
        if rng.random() < noise_ratio:
            records.append(
                StreamEdge(f"n{index}", f"m{index}", f"noise{index}", clock)
            )
        else:
            label = rng.choice(("x", "y"))
            source = f"h{rng.randrange(6)}"
            target = f"h{rng.randrange(6)}"
            records.append(StreamEdge(source, target, label, clock))
    return records


def canonical(events):
    return [
        (event.query_name, event.match.portable_identity(), event.detected_at, event.sequence)
        for event in events
    ]


def register_all(engine, query_specs):
    for name, query, window in query_specs:
        engine.register_query(query, name=name, window=window)


def sketch_config(budget=4096):
    return EngineConfig(dedup_memory_budget=budget, sketch_stats=True)


def degenerate_sketch_engine(budget=4096):
    """Sketch-on engine with filters sized to guarantee false-positive storms."""
    engine = StreamWorksEngine(config=sketch_config(budget))
    register_all(engine, query_specs())
    # swap every matcher's dedup memory for 2-bucket/2-bit-fingerprint fronts
    # (they are empty right after registration, so adoption is lossless)
    for index, registration in enumerate(engine.queries.values()):
        registration.matcher.adopt_dedup_memories(
            DedupMemory(budget=4096, front_buckets=2, front_fingerprint_bits=2, seed=31 + index),
            DedupMemory(budget=4096, front_buckets=2, front_fingerprint_bits=2, seed=67 + index),
        )
    return engine


def run_stream(engine, records):
    events = []
    for record in records:
        events.extend(engine.process_record(record))
    return events


# ----------------------------------------------------------------------
# structure properties: cuckoo filter
# ----------------------------------------------------------------------
class TestCuckooFilter:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=0, max_size=12), unique=True, max_size=60),
        degenerate=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_never_false_negative_even_in_storm_geometry(self, keys, degenerate, seed):
        # 2 buckets x 2-bit fingerprints cannot hold 60 distinct keys --
        # the overflow stash must keep membership exact regardless
        kwargs = (
            {"buckets": 2, "bucket_size": 2, "fingerprint_bits": 2}
            if degenerate
            else {"buckets": 64, "fingerprint_bits": 16}
        )
        cuckoo = CuckooFilter(seed=seed, **kwargs)
        for key in keys:
            cuckoo.add(key)
        assert all(cuckoo.might_contain(key) for key in keys)
        for key in keys:
            assert cuckoo.remove(key)
        assert len(cuckoo) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=0, max_size=8), unique=True, max_size=40),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_state_roundtrip_preserves_slot_layout(self, keys, seed):
        cuckoo = CuckooFilter(buckets=4, bucket_size=2, seed=seed)
        for key in keys:
            cuckoo.add(key)
        state = cuckoo.state_dict()
        clone = CuckooFilter.from_state(state)
        # verbatim slots/stash/kick-cursor: the clone's future behaviour
        # (false-positive pattern included) is indistinguishable
        assert clone.state_dict() == state
        assert all(clone.might_contain(key) for key in keys)

    def test_remove_of_absent_key_is_false(self):
        cuckoo = CuckooFilter(buckets=8)
        cuckoo.add(b"present")
        assert not cuckoo.remove(b"absent")
        assert cuckoo.might_contain(b"present")


# ----------------------------------------------------------------------
# structure properties: count-min sketch
# ----------------------------------------------------------------------
class TestCountMinSketch:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=80),
        width=st.sampled_from([4, 64, 1024]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_estimates_are_one_sided(self, keys, width, seed):
        sketch = CountMinSketch(width=width, depth=4, seed=seed)
        exact = {}
        for key in keys:
            sketch.add(key)
            exact[key] = exact.get(key, 0) + 1
        assert sketch.total == len(keys)  # total is exact, not estimated
        for key, count in exact.items():
            assert sketch.estimate(key) >= count

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=1, max_size=6), max_size=40),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_retract_and_roundtrip(self, keys, seed):
        sketch = CountMinSketch(width=16, depth=3, seed=seed)
        for key in keys:
            sketch.add(key)
        state = sketch.state_dict()
        clone = CountMinSketch.from_state(state)
        assert clone.state_dict() == state
        for key in keys:
            sketch.retract(key)
        assert sketch.total == 0


# ----------------------------------------------------------------------
# structure properties: bounded dedup memory vs. a plain-set oracle
# ----------------------------------------------------------------------
class TestDedupMemory:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(st.integers(min_value=0, max_value=15), max_size=80),
        degenerate=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_matches_set_oracle_at_any_front_geometry(self, ops, degenerate, seed):
        kwargs = (
            {"front_buckets": 2, "front_fingerprint_bits": 2}
            if degenerate
            else {"front_buckets": 64}
        )
        memory = DedupMemory(seed=seed, **kwargs)
        oracle = set()
        for index, op in enumerate(ops):
            key = f"key{op}"
            assert memory.seen(key) == (key in oracle)
            memory.add(key, float(index))
            oracle.add(key)
        assert memory.entry_count() == len(oracle)
        stats = memory.stats()
        assert stats["probes"] == len(ops)
        # confirmed positives + front negatives + front FPs account for
        # every probe: nothing bypassed the confirm step
        assert (
            stats["confirms"] + stats["front_negatives"] + stats["front_false_positives"]
            == stats["probes"]
        )

    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=60),
        cut=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_state_roundtrip_mid_sequence(self, count, cut, seed):
        memory = DedupMemory(budget=16, front_buckets=4, seed=seed)
        keys = [f"k{index}" for index in range(count)]
        for index, key in enumerate(keys[: min(cut, count)]):
            memory.seen(key)
            memory.add(key, float(index))
        state = memory.state_dict()
        clone = DedupMemory(budget=16, front_buckets=4, seed=seed)
        clone.load_state(state)
        assert clone.state_dict() == state
        # both continue identically: same answers, same evictions
        for index, key in enumerate(keys[min(cut, count) :]):
            assert memory.seen(key) == clone.seen(key)
            memory.add(key, float(1000 + index))
            clone.add(key, float(1000 + index))
        assert memory.state_dict() == clone.state_dict()

    def test_budget_eviction_is_oldest_anchor_first(self):
        memory = DedupMemory(budget=3)
        for index, key in enumerate(("a", "b", "c")):
            memory.add(key, float(index))
        memory.add("d", 99.0)  # evicts "a" (smallest anchor, earliest seq)
        assert not memory.seen("a")
        assert all(memory.seen(key) for key in ("b", "c", "d"))
        assert memory.stats()["evictions_budget"] == 1
        assert memory.peak_entries == 3  # measured AFTER budget enforcement

    def test_expire_drops_only_out_of_horizon_anchors(self):
        window = TimeWindow(10.0)
        memory = DedupMemory()
        memory.add("old", 0.0)
        memory.add("fresh", 8.0)
        dropped = memory.expire(window, now=12.0)  # 12 - 0 >= 10; 12 - 8 < 10
        assert dropped == 1
        assert not memory.seen("old")
        assert memory.seen("fresh")
        assert memory.stats()["evictions_horizon"] == 1

    def test_legacy_keys_never_expire_and_evict_last(self):
        memory = DedupMemory(budget=2)
        memory.load_legacy_keys(["legacy"])
        memory.add("young", 1.0)
        memory.expire(TimeWindow(5.0), now=1000.0)  # drops "young", not "legacy"
        assert memory.seen("legacy")
        assert not memory.seen("young")


# ----------------------------------------------------------------------
# bounded memory under adversarial cardinality (measured, not inferred)
# ----------------------------------------------------------------------
def test_adversarial_million_distinct_keys_bounded_with_full_recall():
    """1M+ distinct keys: entries stay <= budget, in-horizon recall stays 100%.

    The horizon covers 10k live keys and the budget doubles that, so horizon
    expiry (not budget pressure) is the active mechanism -- exactly the
    regime where suppression must stay exact.  The bound is *measured* via
    ``entry_count()``/``peak_entries`` on the live structure.
    """
    budget = 20_000
    window = TimeWindow(1_000.0)
    memory = DedupMemory(budget=budget, front_buckets=4096, seed=3)
    total = 1_050_000
    step = 0.1  # 10_000 keys alive inside the horizon at any moment
    recall_probes = 0
    for index in range(total):
        now = index * step
        key = f"key{index}"
        assert not memory.seen(key)  # every key is brand new
        memory.add(key, now)
        if index % 4096 == 0:
            memory.expire(window, now)
        if index % 50_000 == 0 and index >= 5_000:
            # a key added 5k steps ago is 500 time units old: well in-horizon
            assert memory.seen(f"key{index - 5_000}")
            recall_probes += 1
    assert recall_probes >= 20
    memory.expire(window, total * step)
    stats = memory.stats()
    assert stats["peak_entries"] <= budget  # the measured high-water mark
    assert memory.entry_count() <= budget
    # horizon expiry did the bounding; the budget never had to fire
    assert stats["evictions_horizon"] > 1_000_000
    assert stats["evictions_budget"] == 0


def test_engine_flood_bounded_memory_and_exact_events():
    """Engine under a high-cardinality flood: bounded dedup, oracle-equal events."""
    records = high_cardinality_flood(6_000, signal_every=12)
    # single-edge query: the flood's signal pools are disjoint (S* -> T*),
    # so longer chains would never close and the test would be vacuous
    signal_query = [("sig", chain_query("sig", ["signal"]), 50.0)]

    oracle = StreamWorksEngine(config=EngineConfig())  # unbounded, sketch-off
    register_all(oracle, signal_query)
    reference = canonical(run_stream(oracle, records))
    assert reference, "flood produced no signal matches -- vacuous"

    engine = StreamWorksEngine(config=sketch_config(budget=1024))
    register_all(engine, signal_query)
    assert canonical(run_stream(engine, records)) == reference
    sketch = engine.metrics()["sketch"]
    assert sketch["dedup_memory"]["peak_entries"] <= 1024


# ----------------------------------------------------------------------
# engine differential: sketch-on == sketch-off, even under FP storms
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    noise_ratio=st.sampled_from([0.0, 0.3, 0.7]),
)
def test_degenerate_sketches_emit_exact_event_stream(seed, noise_ratio):
    records = mixed_stream(150, seed, noise_ratio)
    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, query_specs())
    reference = canonical(run_stream(oracle, records))

    engine = degenerate_sketch_engine()
    assert canonical(run_stream(engine, records)) == reference


def test_degenerate_geometry_forces_false_positive_storms():
    """The 2-bit filters actually storm -- the property above is not vacuous."""
    records = mixed_stream(400, seed=99, noise_ratio=0.5)
    engine = degenerate_sketch_engine()
    events = run_stream(engine, records)
    assert events
    dedup_fps = sum(
        memory.front_false_positives
        for registration in engine.queries.values()
        for memory in registration.matcher.dedup_memories()
    )
    assert dedup_fps > 0, "2-bucket cuckoo fronts never false-positived"


def test_default_geometry_sketch_on_equals_off_with_metrics_shape():
    records = mixed_stream(300, seed=5, noise_ratio=0.5)
    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, query_specs())
    reference = canonical(run_stream(oracle, records))

    engine = StreamWorksEngine(config=sketch_config())
    register_all(engine, query_specs())
    assert canonical(run_stream(engine, records)) == reference
    sketch = engine.metrics()["sketch"]
    assert sketch["dedup_memory"]["probes"] > 0
    assert sketch["stats_backend"] == "countmin"
    assert engine.metrics()["dispatch"] == oracle.metrics()["dispatch"]


def test_wildcard_query_opens_the_label_gate_and_stays_exact():
    records = mixed_stream(200, seed=12, noise_ratio=0.5)
    wildcard_specs = [("wild", chain_query("wild", [None, "x"]), 8.0)]
    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, wildcard_specs)
    reference = canonical(run_stream(oracle, records))
    assert reference

    engine = StreamWorksEngine(config=sketch_config())
    register_all(engine, wildcard_specs)
    assert canonical(run_stream(engine, records)) == reference
    # every label can bind a wildcard leaf: the gate must turn nothing away
    assert not any(engine.dispatch.front_rejects(record.label) for record in records)
    assert engine.metrics()["dispatch"] == oracle.metrics()["dispatch"]


# ----------------------------------------------------------------------
# checkpoint property: resume mid-stream with sketches on is exact
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cut=st.integers(min_value=0, max_value=200),
)
def test_checkpoint_mid_stream_resume_equals_uninterrupted(seed, cut):
    records = mixed_stream(200, seed, noise_ratio=0.4)
    cut = min(cut, len(records))

    uninterrupted = StreamWorksEngine(config=sketch_config())
    register_all(uninterrupted, query_specs())
    reference = canonical(run_stream(uninterrupted, records))

    interrupted = StreamWorksEngine(config=sketch_config())
    register_all(interrupted, query_specs())
    prefix = canonical(run_stream(interrupted, records[:cut]))
    handle, path = tempfile.mkstemp(suffix=".snap")
    os.close(handle)
    try:
        interrupted.checkpoint(path)
        resumed = StreamWorksEngine.restore(path)
    finally:
        os.unlink(path)
    suffix = canonical(run_stream(resumed, records[cut:]))
    assert prefix + suffix == reference
    assert resumed.metrics()["sketch"] == uninterrupted.metrics()["sketch"]


def _legacy_sections(engine):
    """Render an engine's sections the way a pre-sketch snapshot stored them."""
    sections = engine_sections(engine)
    for payload in sections["queries"]:
        matcher_state = payload["matcher"]
        # legacy matchers stored bare entry lists; the repr of each parsed
        # entry is exactly the canonical string key today's store uses
        matcher_state["reported_identities"] = [
            ast.literal_eval(key)
            for key, _, _ in matcher_state.pop("dedup_identities")["entries"]
        ]
        matcher_state["reported_edge_sets"] = [
            ast.literal_eval(key)
            for key, _, _ in matcher_state.pop("dedup_edge_sets")["entries"]
        ]
    return sections


def test_legacy_snapshot_without_sketch_sections_still_loads():
    """Pre-sketch snapshots (bare reported-identity lists) migrate losslessly."""
    records = mixed_stream(200, seed=3, noise_ratio=0.2)
    cut = 120

    uninterrupted = StreamWorksEngine(config=EngineConfig())
    register_all(uninterrupted, query_specs())
    reference = canonical(run_stream(uninterrupted, records))

    interrupted = StreamWorksEngine(config=EngineConfig())
    register_all(interrupted, query_specs())
    prefix = canonical(run_stream(interrupted, records[:cut]))
    migrated_keys = {
        name: list(registration.matcher.dedup_memories()[0]._entries)
        for name, registration in interrupted.queries.items()
    }
    assert any(migrated_keys.values()), "no identities recorded before cut -- vacuous"

    resumed = load_engine_sections(_legacy_sections(interrupted))
    # every legacy key landed in the bounded store with a never-expiring anchor
    for name, keys in migrated_keys.items():
        memory = resumed.queries[name].matcher.dedup_memories()[0]
        for key in keys:
            assert memory.seen(key)
            assert memory._entries[key][0] == float("inf")
    suffix = canonical(run_stream(resumed, records[cut:]))
    assert prefix + suffix == reference


# ----------------------------------------------------------------------
# mutation meta-tests: the differential oracle has teeth
# ----------------------------------------------------------------------
class TestMutations:
    def test_skipping_exact_confirm_is_caught(self, monkeypatch):
        """Trusting the dedup front without the exact-store confirm must fail.

        With degenerate 2-bucket fronts the cuckoo filter false-positives on
        brand-new identities; a mutant that believes the front outright
        suppresses those first-time emissions, so its event stream diverges
        from the exact oracle.
        """
        records = mixed_stream(400, seed=99, noise_ratio=0.5)
        oracle = StreamWorksEngine(config=EngineConfig())
        register_all(oracle, query_specs())
        reference = canonical(run_stream(oracle, records))

        # sanity: unmutated degenerate engine is exact AND its fronts stormed
        sane = degenerate_sketch_engine()
        assert canonical(run_stream(sane, records)) == reference
        sane_fps = sum(
            memory.front_false_positives
            for registration in sane.queries.values()
            for memory in registration.matcher.dedup_memories()
        )
        assert sane_fps > 0, "no false positives -- the mutation test is vacuous"

        def confirm_free_seen(self, key):
            self.probes += 1
            return self._front.might_contain(key.encode("utf-8"))

        monkeypatch.setattr(DedupMemory, "seen", confirm_free_seen)
        mutant = degenerate_sketch_engine()
        assert canonical(run_stream(mutant, records)) != reference

    def test_dropped_dedup_snapshot_section_is_caught(self):
        """A snapshot missing the dedup sections (and legacy lists) must not load."""
        engine = StreamWorksEngine(config=sketch_config())
        register_all(engine, query_specs())
        run_stream(engine, mixed_stream(100, seed=1))
        sections = engine_sections(engine)
        # sanity: untampered sections load fine
        load_engine_sections(sections)
        for payload in sections["queries"]:
            payload["matcher"].pop("dedup_identities")
            payload["matcher"].pop("dedup_edge_sets")
        with pytest.raises(SnapshotCorruptError):
            load_engine_sections(sections)

# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestEngineConfigValidation:
    def test_dedup_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            EngineConfig(dedup_memory_budget=0)
        with pytest.raises(ValueError, match="positive"):
            EngineConfig(dedup_memory_budget=-5)

    def test_sketch_stats_requires_statistics(self):
        with pytest.raises(ValueError, match="collect_statistics"):
            EngineConfig(sketch_stats=True, collect_statistics=False)

    @pytest.mark.parametrize(
        "name, value",
        [("use_dispatch_index", False), ("sketch_dispatch", True), ("auto_replan_interval", 50)],
    )
    def test_retired_routing_knob_is_not_an_option(self, name, value):
        # the engine has one routing path; snapshots that still carry the
        # knob drop it on load instead of handing it to the constructor
        with pytest.raises(TypeError, match=name):
            EngineConfig(**{name: value})
        assert name in _RETIRED_CONFIG_FIELDS


# ----------------------------------------------------------------------
# sketch-backed planner statistics
# ----------------------------------------------------------------------
class TestSketchLabelDistribution:
    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=60),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_counts_one_sided_totals_exact(self, labels, seed):
        from repro.stats.sketches import SketchLabelDistribution

        distribution = SketchLabelDistribution(width=8, seed=seed)
        exact = {}
        for label in labels:
            distribution.observe(label)
            exact[label] = exact.get(label, 0) + 1
        assert distribution.total() == len(labels)
        for label, count in exact.items():
            assert distribution.count(label) >= count

    def test_state_roundtrip_and_retract(self):
        from repro.stats.sketches import SketchLabelDistribution

        distribution = SketchLabelDistribution(width=64)
        for label in ("x", "x", "y", "z"):
            distribution.observe(label)
        clone = SketchLabelDistribution.from_state(distribution.state_dict())
        assert clone.state_dict() == distribution.state_dict()
        assert clone.count("x") >= 2
        distribution.retract("x")
        assert distribution.total() == 3
