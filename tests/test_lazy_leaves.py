"""Lazy SJ-tree leaves: exact against a baseline that shares none of their code.

A leaf routed many times the partials its sibling stores is marked lazy
(``repro.core.matcher``): it is searched only where the sibling holds a
partner, stores nothing, and the sibling's partials run a directed search
for it instead.  The events must not move.  The oracle here is the
repeated-search baseline (``tests/differential.py::repeated_search``),
which re-searches the whole window after every record with the generic
backtracking matcher: no SJ-tree, no probe, no local search.  The
meta-tests hold the differential to the faults it exists for, and the work
pin to the saving that is the point of the mechanism.
"""

import glob
import json
import os
import random
from collections import Counter
from functools import lru_cache

import pytest

from differential import (
    EXFIL_WINDOW,
    banded_queries,
    banded_records,
    chain_query,
    directed_past_newest,
    drifting_queries,
    drifting_records,
    eviction_heavy_records,
    exfil_query,
    exfil_records,
    flippy_marking,
    heavily_disordered_records,
    lazy_keeps_bucket,
    lazy_run,
    netflow_queries,
    netflow_records,
    repeated_search,
    rmat_queries,
    skip_directed_search,
)
from repro.core import EngineConfig, ShardConfig, ShardedStreamEngine, StreamWorksEngine
from repro.core.local_search import LocalSearcher
from repro.core.matcher import LAZY_ENTER, ContinuousQueryMatcher
from repro.core.probe import cut_keys
from repro.core.sjtree import SlotLayout
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.window import TimeWindow
from repro.isomorphism.vf2 import SubgraphMatcher
from repro.persistence import read_manifest, read_snapshot, write_snapshot
from repro.persistence.state import ENGINE_KIND, load_engine_sections
from repro.persistence.upgrade import upgrade
from repro.query.builder import QueryBuilder
from repro.query.compile import CompiledQuery
from repro.query.predicates import AttrCompare, AttrEquals
from repro.streaming.edge_stream import StreamEdge

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "persistence")


def exfil_on_grid():
    return [("exfil", exfil_query(), 1.0)]


def exfil_off_grid():
    return [("exfil", exfil_query(), EXFIL_WINDOW)]


def netflow_with_joins():
    """The netflow catalogue plus a chain long enough to join two leaves."""
    return netflow_queries() + [
        ("login_relay", chain_query("login_relay", ["loginTo", "connectsTo", "connectsTo"]), 0.6)
    ]


def rmat_with_joins():
    """The R-MAT catalogue plus a wildcard chain: its lazy side takes the generic searches."""
    return rmat_queries() + [("wild_ab", chain_query("wild_ab", [None, "rel_a", "rel_b"]), 0.4)]


#: name -> (records, query specs, whether the marking is made to flip on it).
#: The exfil stream goes lazy, comes back and goes lazy again under the
#: module's own constants; on the others only :func:`flippy_marking` makes
#: leaves flip, so there they flip back and forth every epoch or so.
STREAMS = {
    "netflow": (lambda: netflow_records(300), netflow_with_joins, True),
    "drifting": (lambda: drifting_records(400), drifting_queries, True),
    "disordered": (lambda: heavily_disordered_records(300), rmat_with_joins, True),
    "eviction_heavy": (lambda: eviction_heavy_records(300), rmat_with_joins, True),
    "exfil_off_grid": (lambda: exfil_records(1200, calm=(600, 900)), exfil_off_grid, False),
    "exfil_on_grid": (lambda: exfil_records(1200, calm=(600, 900)), exfil_on_grid, False),
}


@lru_cache(maxsize=None)
def stream(name):
    return STREAMS[name][0]()


@lru_cache(maxsize=None)
def oracle(name, dedupe_structural):
    _, specs, _ = STREAMS[name]
    return repeated_search(stream(name), specs, dedupe_structural=dedupe_structural)


def leaf_work(engine):
    """``metrics()["leaves"]``, gathered from the shards on the sharded engine."""
    metrics = engine.metrics()
    shards = metrics["shards"].values() if "shards" in metrics else [metrics]
    return {name: work for shard in shards for name, work in shard["leaves"].items()}


def flips(engine):
    return sum(leaf["mode_flips"] for leaves in leaf_work(engine).values() for leaf in leaves)


@pytest.mark.parametrize("dedupe_structural", [False, True], ids=["all", "dedupe"])
@pytest.mark.parametrize("batch_size", [1, 50])
@pytest.mark.parametrize("name", sorted(STREAMS))
def test_lazy_engine_equals_repeated_search(name, batch_size, dedupe_structural, monkeypatch):
    _, specs, flippy = STREAMS[name]
    if flippy:
        flippy_marking(monkeypatch)
    found, engine = lazy_run(
        stream(name), specs, batch_size=batch_size, dedupe_structural=dedupe_structural
    )
    assert found == oracle(name, dedupe_structural)
    assert sum(found.values()) > 0
    # the leg is about lazy leaves: they must really have switched
    assert flips(engine) > 0


def test_the_exfil_leaf_goes_lazy_comes_back_and_goes_lazy_again():
    _, engine = lazy_run(stream("exfil_off_grid"), exfil_off_grid, batch_size=50)
    busy, upload = leaf_work(engine)["exfil"]
    assert (busy["mode_flips"], busy["lazy"]) == (3, True)
    assert (upload["mode_flips"], upload["lazy"]) == (0, False)
    assert busy["lazy_misses"] > 0 and busy["directed_searches"] > 0


@pytest.mark.parametrize(
    "fault, batch_size",
    [(skip_directed_search, 1), (skip_directed_search, 50), (directed_past_newest, 50),
     (lazy_keeps_bucket, 1), (lazy_keeps_bucket, 50)],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_the_lazy_differential_rejects(fault, batch_size):
    # a directed search past the newest edge can only bind an edge that is
    # already stored, i.e. one of the same run: batch size 1 cannot show it
    found, _ = lazy_run(
        stream("exfil_off_grid"), exfil_off_grid, batch_size=batch_size, mutate=fault
    )
    assert found != oracle("exfil_off_grid", False)


def force_eager(engine):
    for registration in engine.queries.values():
        registration.matcher.epoch_end = float("inf")


def test_the_lazy_leaf_searches_and_stores_a_tenth_of_what_eager_does(monkeypatch):
    """On a busy background with rare uploads the login / connection leaf does 10x less."""
    calls = Counter()
    original = LocalSearcher.find

    def counting(self, primitive, edge):
        calls[id(primitive)] += 1
        return original(self, primitive, edge)

    monkeypatch.setattr(LocalSearcher, "find", counting)
    records = exfil_records(3000, hosts=40, strays=0.005)
    work = {}
    for mode, mutate in (("lazy", None), ("eager", force_eager)):
        calls.clear()
        found, engine = lazy_run(records, exfil_off_grid, batch_size=50, mutate=mutate)
        busy = engine.queries["exfil"].matcher.tree.leaves()[0]
        work[mode] = (calls[id(busy.subgraph)], busy.total_inserted, found)
    (lazy_finds, lazy_stored, lazy_events), (eager_finds, eager_stored, eager_events) = (
        work["lazy"], work["eager"]
    )
    assert lazy_events == eager_events and sum(lazy_events.values()) > 0
    assert eager_finds >= 10 * lazy_finds
    assert eager_stored >= 10 * lazy_stored


def clearance_query():
    """``exfil`` with a vertex predicate on the busy leaf: the user must hold low clearance."""
    return (
        QueryBuilder("exfil")
        .vertex("user", "User", attrs={"clearance": "low"})
        .vertex("staging", "IP")
        .vertex("internal", "IP")
        .vertex("external", "IP")
        .edge("user", "staging", "loginTo", attrs={"success": True})
        .edge("staging", "internal", "connectsTo")
        .edge(
            "staging",
            "external",
            "connectsTo",
            predicate=AttrEquals("external", True) & AttrCompare("bytes", ">=", 1_000_000),
        )
        .build()
    )


def clearance_records():
    """The exfil stream whose every login rewrites its user's clearance at random."""
    rng = random.Random(5)
    return [
        StreamEdge(
            record.source, record.target, record.label, record.timestamp, record.attrs,
            record.source_label, record.target_label,
            source_attrs={"clearance": rng.choice(["low", "high"])}
            if record.label == "loginTo" else None,
        )
        for record in exfil_records(1200, calm=(600, 900))
    ]


@pytest.mark.parametrize("batch_size", [1, 50])
def test_a_vertex_predicate_keeps_its_leaves_eager(batch_size, monkeypatch):
    """A lazy leaf would check its user's clearance when the upload arrives, not at the login."""
    specs = lambda: [("exfil", clearance_query(), EXFIL_WINDOW)]  # noqa: E731
    records = clearance_records()
    eager, _ = lazy_run(records, specs, batch_size=batch_size, mutate=force_eager)
    found, engine = lazy_run(records, specs, batch_size=batch_size)
    assert found == eager and sum(found.values()) > 0
    assert flips(engine) == 0
    # the exclusion is what keeps them equal: marked anyway, the leaf goes
    # lazy and the events move
    monkeypatch.setattr(ContinuousQueryMatcher, "_checks_vertices", lambda self, node: False)
    found, engine = lazy_run(records, specs, batch_size=batch_size)
    assert flips(engine) > 0
    assert found != eager


SPARSE_WINDOW = 1.0 + 0.005


def sparse_sibling_specs():
    return [("chain", chain_query("chain", ["a", "b", "c", "d"]), SPARSE_WINDOW)]


def sparse_sibling_records(count, seed=7):
    """The ``a``/``b`` leaf is routed about three records for each ``c``/``d`` one,
    but the ``c``/``d`` records rarely meet: its leaf stores a partial for
    some fifty ``a``/``b`` records.  Records are 0.01 apart."""
    rng = random.Random(seed)
    records = []
    for position in range(count):
        if rng.random() < 0.75:
            label = rng.choice("ab")
            source, target = f"h{rng.randrange(12)}", f"h{rng.randrange(12)}"
        elif rng.random() < 0.5:
            label, source, target = "c", f"h{rng.randrange(12)}", f"w{rng.randrange(150)}"
        else:
            label, source, target = "d", f"w{rng.randrange(150)}", f"x{rng.randrange(50)}"
        records.append(StreamEdge(source, target, label, (position + 1) * 0.01,
                                  source_label="N", target_label="N"))
    return records


@pytest.mark.parametrize("batch_size", [1, 50])
def test_a_leaf_goes_lazy_on_its_siblings_stored_partials_not_its_routed_records(batch_size):
    records = sparse_sibling_records(1200)
    found, engine = lazy_run(records, sparse_sibling_specs, batch_size=batch_size)
    assert found == repeated_search(records, sparse_sibling_specs)
    assert sum(found.values()) > 0
    busy, sparse = engine.queries["chain"].matcher.tree.leaves()
    # over the run the routed ratio stays under half LAZY_ENTER; the stored one passes it
    assert busy.work.records_routed < LAZY_ENTER * sparse.work.records_routed / 2
    assert busy.work.records_routed >= LAZY_ENTER * sparse.total_inserted
    assert (busy.work.mode_flips, busy.work.lazy) == (1, True)
    assert (sparse.work.mode_flips, sparse.work.lazy) == (0, False)
    assert busy.work.lazy_misses > 0


def sparse_sibling_engine(layout="single"):
    if layout == "single":
        engine = StreamWorksEngine()
    else:
        engine = ShardedStreamEngine(config=ShardConfig(shard_count=2, engine=EngineConfig()))
    ((name, query, window),) = sparse_sibling_specs()
    engine.register_query(query, name=name, window=window)
    return engine


@pytest.mark.parametrize("layout", ["single", "sharded"])
def test_checkpoint_while_lazy_on_stored_partials_resumes_as_uninterrupted(layout, tmp_path):
    records = sparse_sibling_records(1200)
    uninterrupted = sparse_sibling_engine(layout)
    whole = _canonical(_feed(uninterrupted, records))
    engine = sparse_sibling_engine(layout)
    _feed(engine, records[:550])
    assert leaf_work(engine)["chain"][0]["lazy"]
    path = str(tmp_path / f"{layout}.snap")
    engine.checkpoint(path)
    restored = type(engine).restore(path)
    assert leaf_work(restored) == leaf_work(engine)
    _feed(restored, records[550:])
    assert _canonical(restored.collector.events) == whole
    assert leaf_work(restored) == leaf_work(uninterrupted)


def test_a_format_2_snapshot_restores_through_the_upgrade_with_a_fresh_epoch(tmp_path):
    """Format 2 kept no stored-partials mark: the open epoch restarts at the restore."""
    records = sparse_sibling_records(1200)
    whole = _canonical(_feed(sparse_sibling_engine(), records))
    engine = sparse_sibling_engine()
    _feed(engine, records[:550])
    path = str(tmp_path / "format2.snap")
    engine.checkpoint(path)
    manifest, sections = read_snapshot(path)
    for _, node in sections["queries"][0]["matcher"]["tree"]["nodes"]:
        node.pop("stored_mark", None)
    write_snapshot(path, manifest["kind"], manifest["epoch"], sections)
    with open(path, "rb") as handle:
        data = handle.read()
    newline = data.find(b"\n")
    stamped = json.loads(data[:newline])
    stamped["format_version"] = 2
    with open(path, "wb") as handle:
        handle.write(json.dumps(stamped, separators=(",", ":")).encode() + data[newline:])
    assert read_manifest(path)["format_version"] == 2
    restored = StreamWorksEngine.restore(path)
    matcher = restored.queries["chain"].matcher
    assert matcher.epoch_end == float("-inf")  # the next record opens an epoch
    busy, sparse = matcher.tree.leaves()
    assert busy.work.lazy and (busy.stored_mark, sparse.stored_mark) == (
        busy.total_inserted, sparse.total_inserted
    )
    _feed(restored, records[550:])
    assert _canonical(restored.collector.events) == whole


def test_banded_leaves_see_the_same_traffic_and_never_flip():
    found, engine = lazy_run(banded_records(3000, 4), banded_queries, batch_size=64)
    assert sum(found.values()) > 0
    assert flips(engine) == 0


# ----------------------------------------------------------------------
# the pieces: partner probe keys and the directed search
# ----------------------------------------------------------------------
def test_cut_keys_pick_the_cut_vertex_each_role_binds():
    query = exfil_query()
    engine = StreamWorksEngine()
    engine.register_query(query, name="exfil", window=1.0)
    leaf = engine.queries["exfil"].matcher.tree.leaves()[0]
    assert leaf.key_vertices == ("staging",)
    table = cut_keys(leaf.subgraph, leaf.key_vertices)
    (login,), (connect,) = table["loginTo"], table["connectsTo"]
    assert login(("alice", "s1")) == "s1"
    assert connect(("s1", "hub")) == "s1"
    # a role that leaves a key vertex unbound searches first
    path = QueryBuilder("path").edge("a", "b", "x").edge("b", "c", "y").build()
    assert cut_keys(path, ("a", "c")) == {"x": None, "y": None}
    # an unlabelled edge may be played by any record: no table at all
    wild = QueryBuilder("wild").edge("a", "b", None).edge("b", "c", "y").build()
    assert cut_keys(wild, ("b",)) is None
    assert cut_keys(path, ()) is None


def _random_graph(seed, count=400):
    rng = random.Random(seed)
    graph = DynamicGraph(window=TimeWindow(None))
    for index in range(count):
        source, target = f"v{rng.randrange(12)}", f"v{rng.randrange(12)}"
        if source == target:
            continue
        graph.ingest(source, target, rng.choice(["x", "y"]), index * 0.01,
                     {"w": rng.randrange(4)}, source_label="V", target_label="V")
    return graph


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "shape",
    ["chain", "fan_out", "fan_in", "single", "between", "three"],
)
def test_directed_search_lists_every_older_embedding_at_the_anchor_once(shape, seed):
    """Lowered and generic directed searches against a static search filtered by hand."""
    builder = QueryBuilder(shape)
    edges = {
        "chain": [("a", "b", "x"), ("b", "c", "y")],
        "fan_out": [("a", "b", "x"), ("a", "c", "x")],
        "fan_in": [("b", "a", "y"), ("c", "a", "x")],
        "single": [("a", "b", "x")],
        "between": [("a", "b", "x"), ("a", "b", "y")],
        "three": [("a", "b", "x"), ("b", "c", "y"), ("c", "d", "x")],
    }[shape]
    for source, target, label in edges:
        builder.edge(source, target, label)
    primitive = builder.build()
    graph = _random_graph(seed)
    window = TimeWindow(0.6)
    searcher = LocalSearcher(graph, window, CompiledQuery(primitive), primitives=[primitive])
    layout = SlotLayout.of(primitive)
    everything = SubgraphMatcher(graph, window).find_all(primitive)
    rng = random.Random(seed)
    for _ in range(25):
        anchor = f"v{rng.randrange(12)}"
        bound = rng.randrange(50, 420)
        expected = sorted(
            (
                layout.from_maps(match.vertex_map, match.edge_map)
                for match in everything
                if match.vertex_map["a"] == anchor
                and all(edge.id < bound for edge in match.edge_map.values())
            ),
            key=repr,
        )
        got = searcher.find_directed(primitive, ("a",), anchor, bound, -1.0, 10.0)
        assert sorted(got, key=repr) == expected
        assert len(set(got)) == len(got)


# ----------------------------------------------------------------------
# persistence and replanning
# ----------------------------------------------------------------------
def _canonical(events):
    return [(e.query_name, e.match.portable_identity(), e.detected_at, e.sequence) for e in events]


def _build(layout):
    if layout == "single":
        engine = StreamWorksEngine()
    else:
        engine = ShardedStreamEngine(config=ShardConfig(shard_count=2, engine=EngineConfig()))
    engine.register_query(exfil_query(), name="exfil", window=EXFIL_WINDOW)
    engine.register_query(
        QueryBuilder("relay").edge("a", "b", "loginTo").edge("b", "c", "loginTo").build(),
        name="relay", window=0.5,
    )
    return engine


def _feed(engine, records, batch=50):
    events = []
    for start in range(0, len(records), batch):
        events.extend(engine.process_batch(records[start : start + batch]))
    return events


@pytest.mark.parametrize("layout", ["single", "sharded"])
def test_checkpoint_while_a_leaf_is_lazy_resumes_with_the_same_events(layout, tmp_path):
    records = exfil_records(1200, calm=(600, 900))
    uninterrupted = _build(layout)
    whole = _canonical(_feed(uninterrupted, records))
    for cut in (300, 750):  # lazy, then eager again inside the calm stretch
        engine = _build(layout)
        _feed(engine, records[:cut])
        lazy = leaf_work(engine)["exfil"][0]["lazy"]
        assert lazy == (cut == 300)
        path = str(tmp_path / f"{layout}-{cut}.snap")
        engine.checkpoint(path)
        restored = type(engine).restore(path)
        assert leaf_work(restored) == leaf_work(engine)
        _feed(restored, records[cut:])
        assert _canonical(restored.collector.events) == whole
        # the marking resumed where it stopped: same flips at the same records
        assert leaf_work(restored) == leaf_work(uninterrupted)


def test_a_snapshot_without_leaf_modes_restores_eager_and_matches(tmp_path):
    records = exfil_records(1200, calm=(600, 900))
    whole = _canonical(_feed(_build("single"), records))
    engine = _build("single")
    _feed(engine, records[:750])
    assert not leaf_work(engine)["exfil"][0]["lazy"]  # eager again, in the calm
    path = str(tmp_path / "old.snap")
    engine.checkpoint(path)
    # rewrite it as a format-1 writer before lazy leaves left it: no modes,
    # no epoch
    _, sections = read_snapshot(path)
    for payload in sections["queries"]:
        payload["matcher"].pop("epoch_end")
        for _, node in payload["matcher"]["tree"]["nodes"]:
            node.pop("work", None)
            node.pop("routed_mark", None)
            node.pop("stored_mark", None)
    restored = load_engine_sections(upgrade(ENGINE_KIND, sections, 1))
    assert not any(leaf["lazy"] for leaf in leaf_work(restored)["exfil"])
    _feed(restored, records[750:])
    # the marking starts afresh and still reaches the busy stretch that follows
    assert leaf_work(restored)["exfil"][0]["lazy"]
    assert _canonical(restored.collector.events) == whole


@pytest.mark.parametrize(
    "fixture", sorted(os.path.basename(path) for path in glob.glob(f"{FIXTURES}/*.snap"))
)
def test_every_persistence_fixture_restores_with_every_leaf_eager(fixture):
    path = os.path.join(FIXTURES, fixture)
    cls = ShardedStreamEngine if fixture.startswith("sharded") else StreamWorksEngine
    engine = cls.restore(path)
    leaves = leaf_work(engine)
    assert leaves and all(not leaf["lazy"] and leaf["mode_flips"] == 0
                          for work in leaves.values() for leaf in work)
