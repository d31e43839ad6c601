"""Differential conformance suite: sharded engines vs. the single engine.

The sharded engine's contract is strong: fed the same stream with the same
batch boundaries, a :class:`ShardedStreamEngine` at *any* shard count must
emit the byte-identical event list the single :class:`StreamWorksEngine`
emits -- same matches, same order, same sequence numbers, same detection
timestamps.  This suite checks that differentially
over seeded randomized workloads covering the paths that historically
diverge:

* in-order streams (batched fast path),
* internally out-of-order batches (split at inversion points, ordered runs
  on the batched fast path),
* heavily disordered streams whose displacement exceeds the retention
  horizon (dead-on-arrival records must be skipped deterministically),
* duplicate-edge streams (parallel edges with identical content, where
  id-based identities are ambiguous and enumeration order is fragile),
* eviction-heavy streams (tiny windows, constant expiry/recreation),
* label-disjoint chain queries, where routing sends each record to exactly
  one shard,

for shard counts 1, 2 and 4 and label and broadcast routing.  The main
matrix also holds the shards against the exhaustive reference
(``tests/differential.py``), which searches every leaf on every record.

Events are compared on ``(query, portable match identity, detection time,
sequence)`` as ordered lists -- :meth:`Match.portable_identity` keys edges
by content because shard-local edge ids differ from the single engine's,
and list (multiset) comparison keeps duplicate-content matches honest.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import List

import pytest

from repro.core import EngineConfig, ShardConfig, ShardedStreamEngine, StreamWorksEngine
from repro.persistence import read_snapshot
from repro.persistence.state import SHARDED_KIND, load_sharded_sections
from repro.persistence.upgrade import upgrade
from repro.query.predicates import AttrEquals
from repro.query.query_graph import QueryGraph
from repro.streaming import Routing, StreamEdge
from repro.workloads import (
    DriftingConfig,
    DriftingGenerator,
    NetflowConfig,
    NetflowGenerator,
    RmatConfig,
    RmatGenerator,
)

SHARD_COUNTS = (1, 2, 4)
BATCH_SIZE = 50


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
        ("ab", chain_query("ab", ["rel_a", "rel_b", "rel_a", "rel_b"]), 0.5),
        ("cc", chain_query("cc", ["rel_c", "rel_c"], {0: "TypeA"}), 0.5),
        ("wild", chain_query("wild", [None, "rel_a"]), 0.3),
        ("never", chain_query("never", ["no_such", "no_such"]), 0.5),
    ]


def netflow_queries():
    return [
        ("flows", chain_query("flows", ["connectsTo", "connectsTo"]), 0.4),
        ("dns_then_flow", chain_query("dns_then_flow", ["resolvesTo"]), 0.4),
        ("login", chain_query("login", ["loginTo", "connectsTo"], {0: "User"}), 0.6),
    ]


def rmat_records(count, seed=29, mean_interarrival=0.01):
    generator = RmatGenerator(
        RmatConfig(seed=seed, scale=6, mean_interarrival=mean_interarrival)
    )
    return list(generator.stream(count))


def out_of_order_records(count, seed=29, jitter=0.1):
    """R-MAT stream with timestamps jittered out of order (not re-sorted)."""
    records = rmat_records(count, seed=seed)
    rng = random.Random(seed + 1)
    for record in records:
        record.timestamp = max(0.0, record.timestamp + rng.uniform(-jitter, jitter))
    return records


def heavily_disordered_records(count, seed=29):
    """R-MAT stream block-shuffled far beyond the query windows.

    Displacements exceed the retention horizon, so some records arrive dead
    (already outside retention): the regression here is that such a record
    used to match erratically on the single engine -- only when unrelated
    edges kept its endpoint vertices alive, which label routing does not
    preserve -- so shard counts disagreed.
    """
    from repro.streaming import bounded_shuffle

    return bounded_shuffle(rmat_records(count, seed=seed), 48, seed=seed + 1)


def duplicate_records(count, seed=29):
    """R-MAT stream where every 4th record is repeated verbatim slightly later."""
    records = []
    for index, record in enumerate(rmat_records(count, seed=seed)):
        records.append(record)
        if index % 4 == 0:
            records.append(
                StreamEdge(
                    record.source,
                    record.target,
                    record.label,
                    record.timestamp + 0.001,
                    record.attrs,
                    record.source_label,
                    record.target_label,
                )
            )
    return records


def eviction_heavy_records(count, seed=31):
    """Slow R-MAT stream against the sub-second windows: everything expires."""
    return rmat_records(count, seed=seed, mean_interarrival=0.3)


def netflow_records(count, seed=11):
    return list(NetflowGenerator(NetflowConfig(seed=seed)).stream(count))


def _label_disjoint_chain_queries(query_count: int, chain_length: int) -> List[QueryGraph]:
    """Build ``query_count`` path queries over mutually disjoint edge labels."""
    queries = []
    for index in range(query_count):
        query = QueryGraph(f"chain{index}")
        for position in range(chain_length + 1):
            query.add_vertex(f"v{position}", "Host")
        for position in range(chain_length):
            query.add_edge(f"v{position}", f"v{position + 1}", f"rel{index}_{position}")
        queries.append(query)
    return queries


def _multiquery_dispatch_stream(
    query_count: int,
    edge_count: int,
    seed: int,
    chain_length: int,
    vertex_pool: int = 40,
    plant_probability: float = 0.08,
    interarrival: float = 0.02,
) -> List[StreamEdge]:
    """Generate a stream whose edges each target exactly one query's labels.

    Most records are single noise edges carrying a random label of a random
    query; occasionally a complete chain instance is planted so every query
    fires now and then.
    """
    rng = random.Random(seed)
    records: List[StreamEdge] = []
    timestamp = 0.0
    while len(records) < edge_count:
        query_index = rng.randrange(query_count)
        if rng.random() < plant_probability:
            vertices = [
                f"q{query_index}v{rng.randrange(vertex_pool)}" for _ in range(chain_length + 1)
            ]
            for position in range(chain_length):
                timestamp += interarrival
                records.append(
                    StreamEdge(
                        vertices[position],
                        vertices[position + 1],
                        f"rel{query_index}_{position}",
                        timestamp,
                        source_label="Host",
                        target_label="Host",
                    )
                )
        else:
            timestamp += interarrival
            records.append(
                StreamEdge(
                    f"q{query_index}v{rng.randrange(vertex_pool)}",
                    f"q{query_index}v{rng.randrange(vertex_pool)}",
                    f"rel{query_index}_{rng.randrange(chain_length)}",
                    timestamp,
                    source_label="Host",
                    target_label="Host",
                )
            )
    return records[:edge_count]


def label_disjoint_queries():
    """Twenty six-edge chains over mutually disjoint edge labels."""
    return [(query.name, query, 10.0) for query in _label_disjoint_chain_queries(20, 6)]


def label_disjoint_records(count, seed=61):
    """Each record carries one chain's label; complete chains are planted."""
    return _multiquery_dispatch_stream(20, count, seed, 6)


CASES = {
    "rmat_inorder": (lambda: rmat_records(300), rmat_queries),
    "rmat_out_of_order": (lambda: out_of_order_records(300), rmat_queries),
    "rmat_heavy_disorder": (lambda: heavily_disordered_records(300), rmat_queries),
    "rmat_duplicates": (lambda: duplicate_records(240), rmat_queries),
    "rmat_eviction_heavy": (lambda: eviction_heavy_records(300), rmat_queries),
    "netflow": (lambda: netflow_records(300), netflow_queries),
    "label_disjoint_chains": (lambda: label_disjoint_records(480), label_disjoint_queries),
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


def single_engine(kind="engine"):
    """The single engine the shards are held against: the production engine,
    or (``"reference"``) the exhaustive reference that searches every leaf
    on every record."""
    if kind == "reference":
        # imported here: differential re-exports this module's catalogue
        from differential import ExhaustiveReferenceEngine as engine_cls
    else:
        engine_cls = StreamWorksEngine
    return engine_cls(config=EngineConfig(collect_statistics=False))


def single_engine_reference(records, query_specs, kind="engine"):
    engine = single_engine(kind)
    register_all(engine, query_specs())
    return engine, canonical(replay_batched(engine, records))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("single_kind", ["engine", "reference"])
class TestShardedConformance:
    def test_batched_identical_across_shard_counts(self, case, single_kind):
        make_records, query_specs = CASES[case]
        records = make_records()
        single, reference = single_engine_reference(records, query_specs, single_kind)
        assert reference, f"case {case} produced no events -- not exercising the engines"
        for shard_count in SHARD_COUNTS:
            sharded = ShardedStreamEngine(
                config=ShardConfig(
                    shard_count=shard_count,
                    engine=EngineConfig(collect_statistics=False),
                )
            )
            register_all(sharded, query_specs())
            assert canonical(replay_batched(sharded, records)) == reference, (
                f"case {case}: {shard_count}-shard batched run diverged"
            )
            assert sharded.match_counts() == single.match_counts()
            assert sharded.edges_processed == single.edges_processed

    def test_per_record_identical_across_shard_counts(self, case, single_kind):
        make_records, query_specs = CASES[case]
        records = make_records()
        single = single_engine(single_kind)
        register_all(single, query_specs())
        reference = canonical(
            [event for record in records for event in single.process_record(record)]
        )
        assert reference
        for shard_count in SHARD_COUNTS:
            sharded = ShardedStreamEngine(
                config=ShardConfig(
                    shard_count=shard_count,
                    engine=EngineConfig(collect_statistics=False),
                )
            )
            register_all(sharded, query_specs())
            events = [event for record in records for event in sharded.process_record(record)]
            assert canonical(events) == reference, (
                f"case {case}: {shard_count}-shard per-record run diverged"
            )


@pytest.mark.parametrize("case", ["rmat_inorder", "rmat_duplicates"])
def test_broadcast_routing_identical(case):
    make_records, query_specs = CASES[case]
    records = make_records()
    _, reference = single_engine_reference(records, query_specs)
    for shard_count in (2, 4):
        sharded = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=shard_count,
                routing=Routing.BROADCAST,
                engine=EngineConfig(collect_statistics=False),
            )
        )
        register_all(sharded, query_specs())
        assert canonical(replay_batched(sharded, records)) == reference
        stats = sharded.router.stats()
        assert stats["mean_fanout"] == shard_count  # broadcast fans out everywhere


@pytest.mark.parametrize("routing", [Routing.LABELS, Routing.BROADCAST])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_vertex_attributes_identical(batch_size, routing):
    # x's admin role lives as long as x keeps a stored edge: the single
    # engine drops it with x@0 when a run ends past the window, so whether
    # x@51 matches follows the store's eviction.  Under label routing the
    # rel_c@50 that moves the clock goes to the other shard only, so the
    # admin shard must still evict at the global clock before x@51
    admin = QueryGraph("admin")
    admin.add_vertex("s", predicate=AttrEquals("role", "admin"))
    admin.add_vertex("t")
    admin.add_edge("s", "t", "rel_a")
    records = [
        StreamEdge("x", "y", "rel_a", 0.0, source_attrs={"role": "admin"}),
        StreamEdge("m", "n", "rel_c", 50.0),
        StreamEdge("x", "w", "rel_a", 51.0),
    ]

    def run(engine):
        engine.register_query(admin, name="admin", window=1.0)
        engine.register_query(chain_query("cc", ["rel_c"]), name="cc", window=1.0)
        events = []
        for start in range(0, len(records), batch_size):
            events.extend(engine.process_batch(records[start : start + batch_size]))
        return canonical(events)

    reference = run(StreamWorksEngine(config=EngineConfig(collect_statistics=False)))
    assert [key[0] for key in reference][:2] == ["admin", "cc"]
    sharded = ShardedStreamEngine(
        config=ShardConfig(
            shard_count=2, routing=routing, engine=EngineConfig(collect_statistics=False)
        )
    )
    assert run(sharded) == reference
    assert sharded.assignments()["admin"] != sharded.assignments()["cc"]


@pytest.mark.parametrize("workers", [1, 2, -1])
def test_worker_pool_is_rejected(workers):
    """The worker-process pool was removed: ``workers`` accepts only 0."""
    with pytest.raises(ValueError, match="worker pool was removed"):
        ShardConfig(shard_count=2, workers=workers)


def test_zero_workers_is_accepted_and_not_stored():
    assert ShardConfig(shard_count=2, workers=0).shard_count == 2
    assert not hasattr(ShardConfig(shard_count=2), "workers")


def test_three_shards_identical_to_single():
    """An odd shard count splits queries and vertices unevenly; events still match."""
    records = rmat_records(250)
    _, reference = single_engine_reference(records, rmat_queries)
    sharded = ShardedStreamEngine(
        config=ShardConfig(shard_count=3, engine=EngineConfig(collect_statistics=False))
    )
    register_all(sharded, rmat_queries())
    assert canonical(replay_batched(sharded, records)) == reference
    metrics = sharded.metrics()
    assert metrics["totals"]["shard_edges_processed"] > 0
    assert sorted(metrics["shards"]) == [0, 1, 2]


def test_close_leaves_the_engine_usable():
    """``close()`` is a documented no-op: every shard lives in-process."""
    sharded = ShardedStreamEngine(shard_count=2)
    sharded.register_query(chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=10.0)
    sharded.process_batch([StreamEdge("x", "y", "rel_a", 1.0)])
    sharded.close()
    assert sharded.process_batch([StreamEdge("y", "z", "rel_b", 1.1)])  # completes the chain
    assert sharded.match_counts() == {"ab": 1}
    assert "workers" not in sharded.metrics()


def drifting_queries():
    return [
        ("ab", chain_query("ab", ["alpha", "beta"]), 0.5),
        ("ggg", chain_query("ggg", ["gamma", "gamma", "gamma"]), 0.5),
    ]


def drifting_records(count=400, seed=7, drift_at=180):
    generator = DriftingGenerator(DriftingConfig(seed=seed, drift_at=drift_at))
    return list(generator.stream(count))


RETIRED_KNOB_CASES = {
    "rmat": (lambda: rmat_records(300), rmat_queries),
    "netflow": (lambda: netflow_records(300), netflow_queries),
    "drifting": (drifting_records, drifting_queries),
}

#: What a writer with count-min statistics, root completion stores and a
#: latency sample cap put in its engine config.
RETIRED_KNOBS = {"sketch_stats": True, "store_complete_matches": True, "latency_sample_cap": 64}


def with_retired_knobs(sections, completions):
    """Rewrite one shard's sections as a writer with the retired knobs left them.

    The config carries the knobs, the summarizer holds count-min tables in
    place of exact label and signature counts (all zero here: the loader
    must recount, not read them), and each SJ-tree root -- the last node
    built -- holds the query's completions (``completions`` maps a query
    name to its match payloads).  Returns how many completions went into
    roots.
    """
    sections["config"].update(RETIRED_KNOBS)
    summarizer = sections["summarizer"]
    summarizer["sketch_stats"] = True
    for name in ("vertex_labels", "edge_labels", "signatures"):
        summarizer[name] = {
            "sketch": {"width": 8, "depth": 2, "seed": 0, "total": 0, "rows": [[0] * 8] * 2},
            "heavy_capacity": 64,
            "heavy": [],
            "total_count": 0,
        }
    stored = 0
    for payload in sections["queries"]:
        payload["store_complete_matches"] = True
        _, root_state = payload["matcher"]["tree"]["nodes"][-1]
        root_state["matches"] = completions.get(payload["name"], [])
        stored += len(root_state["matches"])
    return stored


def resume_from_retired_knobs(engine, path):
    """Checkpoint ``engine`` and restore it as a format-1 retired-knob snapshot."""
    engine.checkpoint(path)
    _, sections = read_snapshot(path)
    sections["config"]["engine"].update(RETIRED_KNOBS)
    # the parent collects the events; each shard's roots get their queries'
    completions = {}
    for event in sections["events"]:
        completions.setdefault(event["q"], []).append(event["m"])
    stored = sum(
        with_retired_knobs(sections[f"shard_{shard_id}"], completions)
        for shard_id in range(sections["config"]["shard_count"])
    )
    assert stored, "no completion reached a root before the cut -- vacuous"
    return load_sharded_sections(upgrade(SHARDED_KIND, sections, 1))


@pytest.mark.parametrize("case", sorted(RETIRED_KNOB_CASES))
class TestRetiredKnobSnapshotResume:
    """A sharded snapshot written with the retired knobs resumes exactly.

    Each shard's section ignores the knobs and its roots' completions, and
    recounts its label and signature counts from its restored store; the
    rest of the stream then gives the uninterrupted single engine's events.
    """

    def test_resumes_identical_across_shard_counts(self, case, tmp_path):
        make_records, query_specs = RETIRED_KNOB_CASES[case]
        records = make_records()
        _, reference = single_engine_reference(records, query_specs)
        cut = (len(records) // BATCH_SIZE // 2) * BATCH_SIZE
        for shard_count in SHARD_COUNTS:
            sharded = ShardedStreamEngine(
                config=ShardConfig(shard_count=shard_count, engine=EngineConfig())
            )
            register_all(sharded, query_specs())
            replay_batched(sharded, records[:cut])
            resumed = resume_from_retired_knobs(sharded, str(tmp_path / f"{shard_count}.snap"))
            assert not any(hasattr(resumed.config.engine, name) for name in RETIRED_KNOBS)
            for shard in resumed.shards:
                assert not any(hasattr(shard.config, name) for name in RETIRED_KNOBS)
                stored_labels = Counter(edge.label for edge in shard.graph.edges())
                assert shard.statistics_summary().edge_labels.to_dict() == dict(stored_labels)
                for registration in shard.queries.values():
                    assert registration.matcher.tree.root.match_count() == 0
            replay_batched(resumed, records[cut:])
            assert canonical(resumed.collector.events) == reference, (
                f"case {case}: {shard_count}-shard retired-knob resume diverged"
            )

    def test_resumes_identical_at_three_shards(self, case, tmp_path):
        make_records, query_specs = RETIRED_KNOB_CASES[case]
        records = make_records()
        _, reference = single_engine_reference(records, query_specs)
        cut = (len(records) // BATCH_SIZE // 2) * BATCH_SIZE
        sharded = ShardedStreamEngine(config=ShardConfig(shard_count=3, engine=EngineConfig()))
        register_all(sharded, query_specs())
        replay_batched(sharded, records[:cut])
        resumed = resume_from_retired_knobs(sharded, str(tmp_path / "three.snap"))
        assert not any(hasattr(resumed.config.engine, name) for name in RETIRED_KNOBS)
        replay_batched(resumed, records[cut:])
        assert sorted(resumed.metrics()["shards"]) == [0, 1, 2]
        assert canonical(resumed.collector.events) == reference


class TestShardedEngineBehaviour:
    """Engine-level behaviour that conformance alone does not pin down."""

    def test_greedy_balance_spreads_queries(self):
        sharded = ShardedStreamEngine(shard_count=4)
        for index in range(8):
            sharded.register_query(
                chain_query(f"q{index}", ["rel_a", "rel_b"]), name=f"q{index}", window=1.0
            )
        assignments = sharded.assignments()
        per_shard = [list(assignments.values()).count(shard) for shard in range(4)]
        assert per_shard == [2, 2, 2, 2]
        loads = sharded.shard_loads()
        assert max(loads) - min(loads) < 1e-9  # equal-cost queries balance exactly

    def test_label_routing_drops_unmatchable_records(self):
        sharded = ShardedStreamEngine(shard_count=2)
        sharded.register_query(chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=1.0)
        sharded.process_record(StreamEdge("x", "y", "nobody_wants_this", 1.0))
        sharded.process_record(StreamEdge("x", "y", "rel_a", 1.1))
        stats = sharded.router.stats()
        assert stats["records_dropped"] == 1
        assert sharded.edges_processed == 2
        # the dropped record never reached a shard engine
        assert sum(engine.edges_processed for engine in sharded.shards) == 1

    def test_vertex_attr_records_are_broadcast(self):
        sharded = ShardedStreamEngine(shard_count=2)
        sharded.register_query(chain_query("ab", ["rel_a"]), name="ab", window=1.0, shard=0)
        sharded.register_query(chain_query("cd", ["rel_c"]), name="cd", window=1.0, shard=1)
        sharded.process_record(
            StreamEdge("x", "y", "rel_a", 1.0, source_attrs={"role": "admin"})
        )
        # carries vertex attributes -> every shard must see it
        assert all(engine.edges_processed == 1 for engine in sharded.shards)

    def test_on_match_callback_sees_only_its_query_in_global_order(self):
        seen = []
        sharded = ShardedStreamEngine(shard_count=2)
        sharded.register_query(
            chain_query("ab", ["rel_a", "rel_b"]),
            name="ab",
            window=5.0,
            on_match=lambda event: seen.append(event),
        )
        sharded.register_query(chain_query("aa", ["rel_a"]), name="aa", window=5.0)
        sharded.process_batch(
            [
                StreamEdge("x", "y", "rel_a", 1.0),
                StreamEdge("y", "z", "rel_b", 1.1),
            ]
        )
        assert [event.query_name for event in seen] == ["ab"]
        sequences = [event.sequence for event in sharded.events()]
        assert sequences == sorted(sequences)

    def test_unregister_detaches_routing_and_counts(self):
        sharded = ShardedStreamEngine(shard_count=2)
        sharded.register_query(chain_query("ab", ["rel_a"]), name="ab", window=1.0)
        sharded.register_query(chain_query("cd", ["rel_c"]), name="cd", window=1.0)
        sharded.unregister_query("ab")
        sharded.process_record(StreamEdge("x", "y", "rel_a", 1.0))
        assert sharded.router.stats()["records_dropped"] == 1
        assert "ab" not in sharded.match_counts()
        with pytest.raises(KeyError):
            sharded.unregister_query("ab")

    def test_lagging_shard_swept_before_batched_matching(self):
        # regression (confirmed divergence): shard 0 receives nothing while
        # the global clock advances via shard 1's records; a late but
        # in-order batch then arrives for shard 0 and must NOT match the
        # history the single engine already evicted at its end-of-batch
        # sweeps
        batches = [
            [StreamEdge("x", "y", "rel_a", 0.0)],   # shard 0 only
            [StreamEdge("m", "n", "rel_c", 50.0)],  # shard 1 only; evicts t=0 globally
            [StreamEdge("y", "z", "rel_b", 5.0)],   # late, in-order batch for shard 0
        ]

        def run(engine):
            events = []
            for batch in batches:
                events.extend(engine.process_batch(batch))
            return canonical(events)

        single = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        single.register_query(chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=10.0)
        single.register_query(chain_query("cc", ["rel_c", "rel_c"]), name="cc", window=10.0)
        reference = run(single)
        assert reference == []  # the t=0 edge is long gone by the time t=5 arrives

        sharded = ShardedStreamEngine(
            config=ShardConfig(shard_count=2, engine=EngineConfig(collect_statistics=False))
        )
        sharded.register_query(chain_query("ab", ["rel_a", "rel_b"]), name="ab", window=10.0)
        sharded.register_query(chain_query("cc", ["rel_c", "rel_c"]), name="cc", window=10.0)
        assert run(sharded) == reference

    def test_register_queries_atomic_on_name_collision(self):
        sharded = ShardedStreamEngine(shard_count=2)
        sharded.register_query(chain_query("taken", ["rel_a"]), name="taken", window=1.0)
        loads_before = sharded.shard_loads()
        with pytest.raises(ValueError):
            sharded.register_queries(
                [
                    (chain_query("fresh", ["rel_b"]), {"name": "fresh", "window": 1.0}),
                    (chain_query("dup", ["rel_c"]), {"name": "taken", "window": 1.0}),
                ]
            )
        # nothing from the failed batch stuck
        assert set(sharded.queries) == {"taken"}
        assert sharded.shard_loads() == loads_before
        sharded.process_record(StreamEdge("a", "b", "rel_b", 1.0))
        assert sharded.router.stats()["records_dropped"] == 1
        # unsupported kwargs are rejected before anything registers
        with pytest.raises(ValueError):
            sharded.register_queries(
                [(chain_query("x", ["rel_a"]), {"name": "x", "shard": 1})]
            )
        assert set(sharded.queries) == {"taken"}

    def test_register_queries_rolls_back_on_mid_batch_rejection(self):
        sharded = ShardedStreamEngine(shard_count=2)
        loads_before = sharded.shard_loads()
        with pytest.raises(ValueError):
            sharded.register_queries(
                [
                    (chain_query("good", ["rel_a"]), {"name": "good", "window": 1.0}),
                    (chain_query("bad", ["rel_b"]), {"name": "bad", "window": -5.0}),
                ]
            )
        # the successfully-registered prefix was rolled back
        assert sharded.queries == {}
        assert sharded.shard_loads() == loads_before
        sharded.process_record(StreamEdge("a", "b", "rel_a", 1.0))
        assert sharded.router.stats()["records_dropped"] == 1

    @pytest.mark.parametrize("with_long_query", [True, False], ids=["with_zz", "without_zz"])
    def test_late_record_fits_the_window_as_of_the_global_clock(self, with_long_query):
        # the late q@7 arrives when the stream clock is 20: p@0..q@7 would
        # span 7 < 10, but stretched to the clock it spans 20, so pq never
        # fires -- whether or not the long zz window keeps p@0 in the store,
        # and whether shard A's sub-batch starts later than the global one
        batches = [
            [StreamEdge("x", "y", "p", 0.0)],                                  # partial for pq
            [StreamEdge("m", "n", "z", 5.0), StreamEdge("u", "v", "p", 20.0)],  # sub-min 20 vs global min 5
            [StreamEdge("y", "w", "q", 7.0)],                                  # late against clock 20
        ]

        def run(engine):
            engine.register_query(chain_query("pq", ["p", "q"]), name="pq", window=10.0)
            if with_long_query:
                engine.register_query(chain_query("zz", ["z"]), name="zz", window=100.0)
            events = []
            for batch in batches:
                events.extend(engine.process_batch(batch))
            return canonical(events)

        reference = run(StreamWorksEngine(config=EngineConfig(collect_statistics=False)))
        assert [key[0] for key in reference] == (["zz"] if with_long_query else [])
        sharded = ShardedStreamEngine(
            config=ShardConfig(shard_count=2, engine=EngineConfig(collect_statistics=False))
        )
        assert run(sharded) == reference

    @pytest.mark.parametrize("single_kind", ["engine", "reference"])
    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "per_record"])
    def test_sweep_sequence_mirrored_for_cross_batch_late_records(self, batched, single_kind):
        # regression: pqrs lives on one shard and zz on the other, so only
        # the global clock knows that z@20 came before the late r@6 and s@7.
        # A shard judging them against its own lagging clock (1) sees an
        # in-order p..s chain spanning 7 < 10 and fires pqrs; against the
        # global clock the chain spans 20, so the single engine does not.
        records = [
            StreamEdge("a", "b", "p", 0.0),
            StreamEdge("b", "c", "q", 1.0),   # completes leaf 1 -> stored partial
            StreamEdge("m", "n", "z", 20.0),  # routed to the other shard only
            StreamEdge("c", "d", "r", 6.0),   # late against clock 20
            StreamEdge("d", "e", "s", 7.0),   # late; span 7 < 10 on a lagging clock
        ]

        def run(engine):
            engine.register_query(
                chain_query("pqrs", ["p", "q", "r", "s"]), name="pqrs", window=10.0
            )
            engine.register_query(chain_query("zz", ["z"]), name="zz", window=100.0)
            events = []
            for record in records:
                if batched:
                    events.extend(engine.process_batch([record]))
                else:
                    events.extend(engine.process_record(record))
            return canonical(events)

        reference = run(single_engine(single_kind))
        assert [key[0] for key in reference] == ["zz"]
        sharded = ShardedStreamEngine(
            config=ShardConfig(shard_count=2, engine=EngineConfig(collect_statistics=False))
        )
        assert run(sharded) == reference
        assert sharded.assignments()["pqrs"] != sharded.assignments()["zz"]

    def test_registration_after_ingest_rejected_in_serial_mode_too(self):
        # a query registered mid-stream would land on a shard missing the
        # history routing skipped for it and silently miss matches
        sharded = ShardedStreamEngine(shard_count=2)
        sharded.register_query(chain_query("ab", ["rel_a"]), name="ab", window=1.0)
        sharded.process_record(StreamEdge("x", "y", "rel_a", 1.0))
        with pytest.raises(RuntimeError):
            sharded.register_query(chain_query("late", ["rel_b"]), name="late", window=1.0)
        # close() must not re-open the registration window
        sharded.close()
        with pytest.raises(RuntimeError):
            sharded.register_query(chain_query("late", ["rel_b"]), name="late", window=1.0)
        # unregistering stays possible
        sharded.unregister_query("ab")

    def test_retention_synced_to_global_window(self):
        sharded = ShardedStreamEngine(shard_count=2)
        sharded.register_query(chain_query("short", ["rel_a"]), name="short", window=0.5, shard=0)
        sharded.register_query(chain_query("long", ["rel_c"]), name="long", window=9.0, shard=1)
        assert all(engine.graph.window.duration == 9.0 for engine in sharded.shards)
        sharded.unregister_query("long")
        assert all(engine.graph.window.duration == 0.5 for engine in sharded.shards)

    def test_shard_config_does_not_mutate_caller_engine_config(self):
        # regression: the default_window override used to write through to
        # the caller's EngineConfig, silently re-windowing unrelated engines
        shared = EngineConfig()
        ShardConfig(shard_count=2, engine=shared, default_window=5.0)
        assert shared.default_window is None
        sharded = ShardedStreamEngine(
            config=ShardConfig(shard_count=2, engine=shared), default_window=7.0
        )
        assert shared.default_window is None
        assert sharded.config.engine.default_window == 7.0

    def test_register_queries_balances_skewed_costs_offline(self):
        sharded = ShardedStreamEngine(shard_count=2)
        heavy = chain_query("heavy", ["rel_a", "rel_b", "rel_a", "rel_b", "rel_a", "rel_b"])
        light = [chain_query(f"light{i}", ["rel_c"]) for i in range(4)]
        handles = sharded.register_queries(
            [(heavy, {"name": "heavy", "window": 1.0})]
            + [(q, {"name": f"light{i}", "window": 1.0}) for i, q in enumerate(light)]
        )
        assignments = sharded.assignments()
        # LPT gives the heavy query a shard to itself; the light ones share
        heavy_shard = assignments["heavy"]
        assert all(assignments[f"light{i}"] != heavy_shard for i in range(4))
        # registration order (hence event order) follows the sequence order
        assert [handle.order for handle in handles] == list(range(5))

    def test_register_queries_matches_single_engine_conformance(self):
        records = rmat_records(200)
        single = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        register_all(single, rmat_queries())
        reference = canonical(replay_batched(single, records))
        sharded = ShardedStreamEngine(
            config=ShardConfig(shard_count=2, engine=EngineConfig(collect_statistics=False))
        )
        sharded.register_queries(
            [(query, {"name": name, "window": window}) for name, query, window in rmat_queries()]
        )
        assert canonical(replay_batched(sharded, records)) == reference
