"""Columnar hot path vs. interpreted oracle: byte-for-byte conformance.

The compiled columnar path (``EngineConfig(columnar=True)``, the default)
must be a pure execution strategy: every event -- query name, portable
match identity, detection timestamp, sequence number -- byte-identical to
the interpreted per-record path (``columnar=False``), across workloads,
shard counts, schedulers, feature switches (bounded dedup memory and
count-min statistics, adaptive replanning), and crash-at-boundary resume
cuts.  The harness lives in
``tests/differential.py``; the meta-tests at the bottom prove the oracle
actually *catches* the bug classes this suite exists to prevent.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from differential import (
    BATCH,
    WORKLOADS,
    build_engine,
    canonical,
    chain_query,
    differential,
    drifting_records,
    rmat_queries,
    rmat_records,
    run,
    sabotage_recompile,
    skew_expiry,
)
from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.core.sharded import ShardedStreamEngine
from repro.query.predicates import AttrCompare, AttrRange
from repro.streaming.edge_stream import StreamEdge

SUPPRESS = [HealthCheck.too_slow]

#: The feature axis crossed with every workload and shard count.
FEATURES = {
    "baseline": {},
    "sketch": {"sketch": True},
    "replan": {"replan": True},
}


@pytest.mark.parametrize("feature", sorted(FEATURES))
@pytest.mark.parametrize("shard_count", [1, 2, 4])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
class TestColumnarConformanceMatrix:
    def test_columnar_equals_interpreted(self, workload, shard_count, feature):
        make_records, query_specs = WORKLOADS[workload]
        records = make_records()
        candidate, oracle = differential(
            records,
            query_specs,
            shard_count=shard_count,
            **FEATURES[feature],
        )
        assert oracle, f"{workload}: oracle produced no events -- vacuous differential"
        assert candidate == oracle, (
            f"{workload} x {shard_count} shards x {feature}: columnar diverged"
        )


@pytest.mark.skipif(
    not ShardedStreamEngine.fork_available(), reason="multiprocessing fork unavailable"
)
def test_columnar_equals_interpreted_under_pool_scheduler():
    make_records, query_specs = WORKLOADS["rmat"]
    records = make_records()
    candidate, oracle = differential(
        records, query_specs, shard_count=2, workers=2
    )
    assert oracle
    assert candidate == oracle


def test_columnar_dispatch_counters_identical_to_interpreted():
    """Not just events: the dispatch stats must replay byte-identically too."""
    make_records, query_specs = WORKLOADS["rmat"]
    records = make_records()
    _, on_metrics = run(records, query_specs, columnar=True)
    _, off_metrics = run(records, query_specs, columnar=False)
    assert on_metrics["dispatch"] == off_metrics["dispatch"]
    assert on_metrics["queries"] == off_metrics["queries"]
    assert on_metrics["columnar"]["batches_vectorized"] > 0
    assert on_metrics["columnar"]["dispatch_memo_hits"] > 0
    assert off_metrics["columnar"]["batches_vectorized"] == 0


@pytest.mark.parametrize("workload", ["rmat", "netflow", "disordered"])
@pytest.mark.parametrize("cuts", [(1,), (3,), (1, 4)], ids=["early", "mid", "double"])
def test_checkpoint_cut_resume_stays_conformant(workload, cuts, tmp_path):
    """A columnar engine crashed at batch boundaries and resumed must still
    equal the *uninterrupted interpreted* run -- resume exactness and
    execution-strategy equivalence composed."""
    make_records, query_specs = WORKLOADS[workload]
    records = make_records()
    candidate, _ = run(
        records,
        query_specs,
        columnar=True,
        checkpoint_cuts=cuts,
        snapshot_dir=tmp_path,
    )
    oracle, _ = run(records, query_specs, columnar=False)
    assert oracle
    assert candidate == oracle


def test_columnar_flag_round_trips_through_snapshots(tmp_path):
    """Both flag values survive restore (config persistence, not default)."""
    for columnar in (True, False):
        engine = StreamWorksEngine(config=EngineConfig(columnar=columnar))
        engine.register_query(chain_query("q", ["rel_a", "rel_b"]), window=0.5)
        engine.process_batch(rmat_records(60))
        path = str(tmp_path / f"flag-{columnar}.snap")
        engine.checkpoint(path)
        restored = StreamWorksEngine.restore(path)
        assert restored.config.columnar is columnar
        assert (restored.queries["q"].matcher.compiled is not None) is columnar


# ----------------------------------------------------------------------
# hypothesis: fuzzed workloads against fuzzed predicate-bearing queries
# ----------------------------------------------------------------------
_LABELS = ["rel_a", "rel_b", "rel_c", "noise_x", "noise_y"]


def _fuzz_records(seed, count):
    rng = random.Random(seed)
    clock = 0.0
    records = []
    for index in range(count):
        clock += rng.uniform(0.0, 0.05)
        records.append(
            StreamEdge(
                str(rng.randrange(24)),
                str(rng.randrange(24)),
                rng.choice(_LABELS),
                # mild disorder: enough to split runs, not enough to be
                # all dead-on-arrival
                max(0.0, clock + rng.uniform(-0.04, 0.0)),
                attrs={"bytes": rng.randrange(0, 2000), "proto": rng.choice(["tcp", "udp"])},
            )
        )
    return records


def _fuzz_queries(seed):
    rng = random.Random(seed)
    specs = []
    for index in range(3):
        length = rng.randint(1, 3)
        labels = [rng.choice(_LABELS[:3] + [None]) for _ in range(length)]
        query = chain_query(f"fz{index}", labels)
        # pin a predicate on a random edge: half range, half compare
        edge = rng.choice(list(query.edges()))
        if rng.random() < 0.5:
            edge.predicate = AttrRange("bytes", low=rng.randrange(0, 1500))
        else:
            edge.predicate = AttrCompare("bytes", rng.choice(["<", ">="]), 1000)
        specs.append((f"fz{index}", query, rng.choice([0.25, 0.5, None])))
    return lambda: specs


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shard_count=st.sampled_from([1, 2]),
)
@settings(max_examples=20, deadline=None, suppress_health_check=SUPPRESS)
def test_fuzzed_workloads_stay_conformant(seed, shard_count):
    records = _fuzz_records(seed, 180)
    query_specs = _fuzz_queries(seed + 1)
    candidate, oracle = differential(records, query_specs, shard_count=shard_count)
    assert candidate == oracle


# ----------------------------------------------------------------------
# meta-tests: the oracle must CATCH the bug classes it exists for
# ----------------------------------------------------------------------
def test_oracle_catches_off_by_one_expiry():
    """An expiry sweep skewed one tick into the future must diverge from
    the oracle -- otherwise this suite could not have caught the classic
    boundary bug in a real columnar expiry rewrite."""
    make_records, query_specs = WORKLOADS["rmat"]
    records = make_records()
    candidate, oracle = differential(
        records,
        query_specs,
        candidate_kwargs={"mutate": skew_expiry(delta=0.05)},
    )
    assert candidate != oracle, (
        "expiry skewed by +0.05 was not detected: the differential oracle "
        "is too weak to catch off-by-one expiry bugs"
    )


def test_oracle_catches_corrupted_recompile_on_replan():
    """A replan that installs a corrupted compiled predicate table must
    diverge from the oracle (recompile-on-replan bug class)."""
    records = drifting_records(300)
    candidate, oracle = differential(
        records,
        lambda: [
            ("ab", chain_query("ab", ["alpha", "beta"]), 0.5),
            ("ggg", chain_query("ggg", ["gamma", "gamma", "gamma"]), 0.5),
        ],
        replan=True,
        candidate_kwargs={"mutate": sabotage_recompile},
    )
    assert candidate != oracle, (
        "a corrupted compiled table installed at replan was not detected: "
        "the differential oracle cannot see recompile-on-replan bugs"
    )
