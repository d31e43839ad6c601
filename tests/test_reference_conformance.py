"""Routed engine vs. exhaustive reference: byte-for-byte conformance.

Routing (dispatch index, route plans, compiled leaf checks, interval
index) and the cold gate in front of the store must be pure optimisations:
every event -- query name, portable match identity, detection timestamp,
sequence number -- byte-identical to the
:class:`~differential.ExhaustiveReferenceEngine`, which stores every record
and searches every leaf of every matcher on every live one (the ``banded``
workload keeps most of its records cold), across workloads, shard
counts, adaptive replanning, unbounded windows (where completions pile up
with nothing expiring them), and crash-at-boundary resume cuts.  The
harness lives in ``tests/differential.py``; the meta-tests at the bottom
prove the differential actually *catches* the bug classes this suite
exists to prevent.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from differential import (
    WORKLOADS,
    chain_query,
    differential,
    drifting_records,
    drop_a_route_leaf,
    gate_last_survivor,
    memo_by_survivor_count,
    run,
    sabotage_recompile,
    skew_expiry,
)
from repro.query.predicates import AttrCompare, AttrRange
from repro.streaming.edge_stream import StreamEdge

SUPPRESS = [HealthCheck.too_slow]

#: The feature axis crossed with every workload and shard count.
FEATURES = {
    "baseline": {},
    "replan": {"replan": True},
    "unbounded": {"unbounded": True},
}


@pytest.mark.parametrize("feature", sorted(FEATURES))
@pytest.mark.parametrize("shard_count", [1, 2, 4])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
class TestReferenceConformanceMatrix:
    def test_engine_equals_reference(self, workload, shard_count, feature):
        make_records, query_specs = WORKLOADS[workload]
        records = make_records()
        candidate, oracle = differential(
            records,
            query_specs,
            shard_count=shard_count,
            **FEATURES[feature],
        )
        assert oracle, f"{workload}: reference produced no events -- vacuous differential"
        assert candidate == oracle, (
            f"{workload} x {shard_count} shards x {feature}: engine diverged"
        )


def test_engine_equals_reference_at_three_shards():
    # an odd shard count: queries and vertices split unevenly
    make_records, query_specs = WORKLOADS["rmat"]
    records = make_records()
    candidate, oracle = differential(records, query_specs, shard_count=3)
    assert oracle
    assert candidate == oracle


@pytest.mark.parametrize("workload", ["banded", "rmat", "netflow", "disordered"])
@pytest.mark.parametrize("cuts", [(1,), (3,), (1, 4)], ids=["early", "mid", "double"])
def test_checkpoint_cut_resume_stays_conformant(workload, cuts, tmp_path):
    """An engine crashed at batch boundaries and resumed must still equal
    the *uninterrupted reference* run -- resume exactness and routing
    equivalence composed."""
    make_records, query_specs = WORKLOADS[workload]
    candidate, oracle = differential(
        make_records(),
        query_specs,
        candidate_kwargs={"checkpoint_cuts": cuts, "snapshot_dir": tmp_path},
    )
    assert oracle
    assert candidate == oracle


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
    the reference -- otherwise this suite could not have caught the classic
    boundary bug in a real expiry rewrite."""
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


def test_oracle_catches_a_route_plan_missing_a_leaf():
    """A route plan that loses a candidate leaf must diverge from the
    reference -- the routing bug class it searches every leaf to catch."""
    make_records, query_specs = WORKLOADS["rmat"]
    candidate, oracle = differential(
        make_records(), query_specs, candidate_kwargs={"mutate": drop_a_route_leaf}
    )
    assert candidate != oracle, (
        "a route plan missing a leaf was not detected: the differential "
        "cannot see routing bugs"
    )


def test_oracle_catches_a_gate_that_drops_the_last_survivor():
    """A cold gate that also keeps a record out of the store when its only
    surviving leaf is the plan's last entry must diverge from the
    store-everything reference -- the gate bug class the banded workload
    exists to expose."""
    make_records, query_specs = WORKLOADS["banded"]
    candidate, oracle = differential(
        make_records(), query_specs, candidate_kwargs={"mutate": gate_last_survivor}
    )
    assert candidate != oracle, (
        "a gate that drops bindable records was not detected: the "
        "differential cannot see cold-gate bugs"
    )


def test_oracle_catches_a_route_memo_keyed_by_survivor_count():
    """A route plan that reuses a routed list for any record with as many
    surviving leaves -- not the same ones -- must diverge from the
    reference: the banded workload's records each survive one band's leaf."""
    make_records, query_specs = WORKLOADS["banded"]
    candidate, oracle = differential(
        make_records(), query_specs, candidate_kwargs={"mutate": memo_by_survivor_count}
    )
    assert candidate != oracle, (
        "a route memo keyed by the survivor count was not detected: the "
        "differential cannot see a memo that confuses survivor sets"
    )


def test_the_banded_workload_exercises_the_gate():
    """Most banded records are cold, yet the reference finds events: the
    conformance matrix cell is not vacuous for the gate."""
    make_records, query_specs = WORKLOADS["banded"]
    records = make_records()
    _, metrics = run(records, query_specs)
    assert metrics["ingest_paths"]["cold"] > len(records) // 2
    assert metrics["graph_edges"] + metrics["edges_evicted"] < len(records) // 2


def test_oracle_catches_corrupted_recompile_on_replan():
    """A replan that installs a corrupted compiled predicate table must
    diverge from the reference (recompile-on-replan bug class)."""
    records = drifting_records(300)
    candidate, oracle = differential(
        records,
        lambda: [
            ("ab", chain_query("ab", ["alpha", "beta"]), 0.5),
            ("ggg", chain_query("ggg", ["gamma", "gamma", "gamma"]), 0.5),
            # a replan that keeps the installed tree compiles nothing: this
            # query's tree is rebuilt as the drift sets in
            ("abg", chain_query("abg", ["alpha", "beta", "gamma"]), 0.5),
        ],
        replan=True,
        candidate_kwargs={"mutate": sabotage_recompile},
    )
    assert candidate != oracle, (
        "a corrupted compiled table installed at replan was not detected: "
        "the differential oracle cannot see recompile-on-replan bugs"
    )
