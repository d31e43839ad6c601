"""Regression pins for the genuine bugs repro-lint surfaced on its first run.

Running the new static-analysis suite over the real tree found four real
defect sites (alongside the deliberate-design suppressions).  Each fix
gets a behavioural pin here, so the bugs stay dead even if the lint rule
that caught them is ever loosened:

* ``GraphSummary.__init__`` used ``x or Default()`` on five Optional
  components that define ``__len__`` -- an *empty* component the caller
  passed (a census it is still folding into, say) was falsy and
  silently replaced by a fresh one.
* The sampled ``TriadCensus`` iterated ``set(edge.endpoints)``: the
  endpoint visit order fed the sampling RNG, so the census (and
  everything planned from it) depended on ``PYTHONHASHSEED``.  The
  sampler is gone -- the census is exact and computed from the window
  store on demand -- and the same subprocess check now pins the on-demand
  summary and the census's key order.
* ``DispatchIndex.unregister`` iterated a set of the dropped owner's
  labels while rewriting ``_by_label`` buckets.
* ``AsyncIngestFrontend`` bumped/read its admission counters outside
  any lock; a ``stats()`` racing ``submit``/admission could observe
  ``batches_admitted > batches_submitted`` (two counters read at
  different instants).
"""

import json
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

from repro.core import EngineConfig, StreamWorksEngine
from repro.core.dispatch import DispatchIndex
from repro.query.query_graph import QueryGraph
from repro.stats import GraphSummary, TriadCensus
from repro.stats.labels import LabelDistribution
from repro.streaming import AsyncIngestFrontend, StreamEdge

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# GraphSummary: empty-but-configured components must be kept
# ----------------------------------------------------------------------
def test_graph_summary_keeps_empty_components_passed_by_the_caller():
    census = TriadCensus()
    labels = LabelDistribution()
    summary = GraphSummary(vertex_labels=labels, triads=census)
    assert summary.triads is census
    assert summary.vertex_labels is labels


# ----------------------------------------------------------------------
# TriadCensus: the serialised census must not depend on PYTHONHASHSEED
# ----------------------------------------------------------------------
_TRIAD_SCRIPT = """
import json
from repro.core import EngineConfig, StreamWorksEngine
from repro.query.query_graph import QueryGraph
from repro.streaming import StreamEdge

hubs = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
records = []
clock = 0.0
for hub in hubs:                      # four leg types per hub, string vertex
    for spoke in range(4):            # ids throughout: any set/hash-ordered
        clock += 1.0                  # walk on the way to the counts shows up
        records.append(StreamEdge(hub, f"{hub}-s{spoke}", f"spoke{spoke}", clock,
                                  source_label="Hub", target_label=f"Leaf{spoke}"))
for left, right in zip(hubs, hubs[1:]):   # hub-hub edges: a sweep at BOTH ends
    clock += 1.0
    records.append(StreamEdge(left, right, "link", clock,
                              source_label="Hub", target_label="Hub"))
engine = StreamWorksEngine(config=EngineConfig(default_window=12.0))
query = QueryGraph("any")             # a wildcard edge binds every record, so
query.add_vertex("a")                 # every record is stored and counted
query.add_vertex("b")
query.add_edge("a", "b")
engine.register_query(query)
engine.process_batch(records[:10])    # one batched run, then one-record runs,
for record in records[10:]:           # with the window evicting under both
    engine.process_record(record)
assert engine.graph.edges_evicted > 0
summary = engine.statistics_summary()
print(json.dumps({"summary": summary.to_dict(), "census": list(summary.triads.to_dict().items())}))
"""


def _run_triad_script(hash_seed):
    result = subprocess.run(
        [sys.executable, "-c", _TRIAD_SCRIPT],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": "src",
            "PYTHONHASHSEED": str(hash_seed),
            "PATH": "/usr/bin:/bin",
        },
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_exact_triad_census_is_hash_seed_invariant():
    baseline = _run_triad_script(0)
    assert baseline["summary"]["triad_patterns"] > 1 and baseline["census"]
    for hash_seed in (1, 2, 3, 4242):
        assert _run_triad_script(hash_seed) == baseline


# ----------------------------------------------------------------------
# DispatchIndex: unregister keeps deterministic bucket/key layout
# ----------------------------------------------------------------------
def _leaf(leaf_id, label):
    query = QueryGraph(f"q-{leaf_id}")
    query.add_vertex("a", "A")
    query.add_vertex("b", "B")
    query.add_edge("a", "b", label)
    return SimpleNamespace(id=leaf_id, subgraph=query)


def test_unregister_preserves_registration_ordered_label_layout():
    index = DispatchIndex()
    index.register("q1", [_leaf(0, "x"), _leaf(1, "y")])
    index.register("q2", [_leaf(0, "y"), _leaf(1, "z")])
    index.unregister("q1")
    # label x (only q1's) is gone; y and z keep registration order and
    # exactly q2's entries -- the label visit order during the rewrite
    # must never leak into the surviving layout
    assert list(index._by_label) == ["y", "z"]
    assert [entry.owner for entry in index._by_label["y"]] == ["q2"]
    assert index.registered_owners() == ["q2"]


# ----------------------------------------------------------------------
# AsyncIngestFrontend: counters read under the lock are mutually consistent
# ----------------------------------------------------------------------
def test_async_stats_never_report_more_admitted_than_submitted():
    engine = StreamWorksEngine(config=EngineConfig(allowed_lateness=1.0))
    query = QueryGraph("q")
    query.add_vertex("a", "Host")
    query.add_vertex("b", "Host")
    query.add_edge("a", "b", "flow")
    engine.register_query(query, window=50.0)

    frontend = AsyncIngestFrontend(engine, max_queue_batches=8)
    batches = 120
    violations = []

    def produce():
        for index in range(batches):
            edge = StreamEdge(
                f"h{index}", f"h{index + 1}", "flow", float(index),
                source_label="Host", target_label="Host",
            )
            frontend.submit([edge])

    producer = threading.Thread(target=produce)
    producer.start()
    try:
        while producer.is_alive():
            stats = frontend.stats()
            if stats["batches_admitted"] > stats["batches_submitted"]:
                violations.append(stats)
    finally:
        producer.join()
        frontend.close()

    assert violations == []
    final = frontend.stats()
    assert final["batches_submitted"] == batches
    assert final["batches_admitted"] == batches
    assert final["records_submitted"] == batches
