"""Sketch-exactness differential suite: sketches accelerate, never change answers.

The sketch layer (``repro.sketch``) backs the planner statistics with
count-min sketches (``EngineConfig(sketch_stats=True)``).  Its contract is
absolute: with the sketches on, the emitted event stream is byte-for-byte the
exact-path stream -- estimates can only shift plan choice, and events are
plan-independent.  This suite pins that contract:

* **Structure properties** (hypothesis) -- count-min estimates are one-sided,
  totals exact, and ``state_dict``/``from_state`` round-trips cell-for-cell.
* **Engine differential** -- sketch-on events equal the sketch-off oracle,
  also under a high-cardinality flood and behind a wildcard query.
* **Checkpoint property** (hypothesis) -- checkpoint mid-stream with sketches
  on, resume, finish ⇒ byte-identical to the uninterrupted run, sketch
  metrics included.
* **Retired duplicate memory** -- ``metrics()["sketch"]["dedup_memory"]``
  reads zero, and snapshots that still carry a matcher's duplicate memory
  load with it ignored.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, StreamWorksEngine
from repro.core.engine import RETIRED_DEDUP_METRICS
from repro.persistence.state import (
    _RETIRED_CONFIG_FIELDS,
    engine_sections,
    load_engine_sections,
)
from repro.query.query_graph import QueryGraph
from repro.sketch import CountMinSketch
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


def sketch_config():
    return EngineConfig(sketch_stats=True)


def duplicates_suppressed(engine):
    return sum(stats["duplicate_matches_suppressed"] for stats in engine.metrics()["queries"].values())


def run_stream(engine, records):
    events = []
    for record in records:
        events.extend(engine.process_record(record))
    return events


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
# engine differential: sketch-on == sketch-off
# ----------------------------------------------------------------------
def test_engine_flood_bounded_memory_and_exact_events():
    """Engine under a high-cardinality flood: no duplicate memory, oracle-equal events."""
    records = high_cardinality_flood(6_000, signal_every=12)
    # single-edge query: the flood's signal pools are disjoint (S* -> T*),
    # so longer chains would never close and the test would be vacuous
    signal_query = [("sig", chain_query("sig", ["signal"]), 50.0)]

    oracle = StreamWorksEngine(config=EngineConfig())  # unbounded, sketch-off
    register_all(oracle, signal_query)
    reference = canonical(run_stream(oracle, records))
    assert reference, "flood produced no signal matches -- vacuous"

    engine = StreamWorksEngine(config=sketch_config())
    register_all(engine, signal_query)
    assert canonical(run_stream(engine, records)) == reference
    assert engine.metrics()["sketch"]["dedup_memory"] == RETIRED_DEDUP_METRICS


def test_default_geometry_sketch_on_equals_off_with_metrics_shape():
    records = mixed_stream(300, seed=5, noise_ratio=0.5)
    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, query_specs())
    reference = canonical(run_stream(oracle, records))

    assert reference, "no events -- vacuous"
    engine = StreamWorksEngine(config=sketch_config())
    register_all(engine, query_specs())
    assert canonical(run_stream(engine, records)) == reference
    assert duplicates_suppressed(engine) == 0
    sketch = engine.metrics()["sketch"]
    assert sketch["dedup_memory"] == RETIRED_DEDUP_METRICS
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


def _legacy_sections(engine, prefix_events):
    """Render an engine's sections with the duplicate memory older snapshots carried."""
    sections = engine_sections(engine)
    config = sections["config"]
    config["dedup_memory_budget"] = 4096
    reported = {}
    for event in prefix_events:
        reported.setdefault(event.query_name, []).append(event.match)
    for payload in sections["queries"]:
        matches = reported.get(payload["name"], [])
        matcher_state = payload["matcher"]
        # the pre-sketch lists, and the sketch-era stores after them
        matcher_state["reported_identities"] = [
            [sorted(([name, vertex] for name, vertex in match.vertex_map.items()), key=repr),
             sorted([query_edge, edge.id] for query_edge, edge in match.edge_map.items())]
            for match in matches
        ]
        matcher_state["reported_edge_sets"] = [
            sorted(edge.id for edge in match.edge_map.values()) for match in matches
        ]
        matcher_state["dedup_identities"] = {"entries": [], "front": {}}
        matcher_state["dedup_edge_sets"] = {"entries": [], "front": {}}
    return sections


def test_legacy_snapshot_without_sketch_sections_still_loads():
    """Snapshots carrying duplicate memory and its budget load with both ignored."""
    records = mixed_stream(200, seed=3, noise_ratio=0.2)
    cut = 120

    uninterrupted = StreamWorksEngine(config=EngineConfig())
    register_all(uninterrupted, query_specs())
    reference = canonical(run_stream(uninterrupted, records))

    interrupted = StreamWorksEngine(config=EngineConfig())
    register_all(interrupted, query_specs())
    prefix_events = run_stream(interrupted, records[:cut])
    assert prefix_events, "no events before the cut -- vacuous"

    resumed = load_engine_sections(_legacy_sections(interrupted, prefix_events))
    assert "dedup_memory_budget" not in vars(resumed.config)
    assert resumed.queries.keys() == interrupted.queries.keys()
    for name, registration in resumed.queries.items():
        assert registration.matcher.state_dict() == interrupted.queries[name].matcher.state_dict()
    suffix = canonical(run_stream(resumed, records[cut:]))
    assert canonical(prefix_events) + suffix == reference
    assert duplicates_suppressed(resumed) == 0


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestEngineConfigValidation:
    def test_sketch_stats_requires_statistics(self):
        with pytest.raises(ValueError, match="collect_statistics"):
            EngineConfig(sketch_stats=True, collect_statistics=False)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("use_dispatch_index", False),
            ("sketch_dispatch", True),
            ("auto_replan_interval", 50),
            ("columnar", False),
            ("dedup_memory_budget", 4096),
        ],
    )
    def test_retired_routing_knob_is_not_an_option(self, name, value):
        # the engine has one routing and matching path; snapshots that still
        # carry the knob drop it on load instead of handing it to the
        # constructor
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
