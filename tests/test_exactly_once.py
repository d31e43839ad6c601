"""Exactly-once discovery: the newest-edge rule and what it made unnecessary.

Local search seeded at data edge ``e`` binds partner edges only when their
ingest id is below ``e.id``, so each embedding is found once, at its newest
edge, and nothing needs to remember what was reported.  The engine stores a
whole run before searching it, so without the rule a two-edge leaf whose
edges both fall in the run would be found from each edge.  This suite pins
the rule from outside the matcher:

* **Mutation meta-tests** -- restore the old partner test in the compiled
  probe (``candidate.id == new_id``: partners of any id), or drop the id
  bound of the generic search that leaves not lowered to a probe use, and
  the engine emits a duplicate event that a from-scratch oracle rejects.
  The oracle is ``SubgraphMatcher`` without compiled tables over the whole
  stream: it shares no code with ``core/probe.py``.
* **Differential** (hypothesis) over leaves that are not lowered to probes:
  an undirected query edge, and three-edge primitives.
* **FO+MOD work pin** -- the leaf matches found per run equal the distinct
  embeddings, counted by brute force over the records, whose newest edge
  is in the run.
* **No identity hashing** on the streaming path: ``Match.identity()`` is
  never called.
* **Boundary regressions** -- an on-grid window gives one answer for every
  strategy and batch size (partial expiry uses the span test joins use),
  and ``dedupe_structural`` keeps the same variant under every strategy,
  batch size and replan.
"""

from __future__ import annotations

import inspect
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EngineConfig, StreamWorksEngine, local_search, probe
from repro.core.decomposition import Decomposition, Strategy
from repro.core.matcher import ContinuousQueryMatcher, canonical_match_key
from repro.graph import DynamicGraph, TimeWindow
from repro.isomorphism import SubgraphMatcher
from repro.isomorphism.match import Match
from repro.query.query_graph import QueryGraph
from repro.streaming import StreamEdge

STRATEGIES = (
    Strategy.SELECTIVITY,
    Strategy.ANTI_SELECTIVE,
    Strategy.BALANCED_PAIRS,
    Strategy.EDGE_BY_EDGE,
)


# ----------------------------------------------------------------------
# streams, queries and the from-scratch oracle
# ----------------------------------------------------------------------
def random_records(count, seed, vertices, labels, step=None):
    """In-order records; ``step`` fixes the clock grid, else random gaps."""
    rng = random.Random(seed)
    records, clock = [], 0.0
    for index in range(count):
        clock = index * step if step is not None else clock + rng.choice((0.05, 0.1, 0.2))
        source = rng.randrange(vertices)
        target = rng.randrange(vertices - 1)
        target += target >= source  # no self loops
        records.append(StreamEdge(f"v{source}", f"v{target}", rng.choice(labels), clock))
    return records


def query(name, edges):
    """``edges``: ``(source, target, label[, directed])`` tuples, unlabelled vertices."""
    graph = QueryGraph(name)
    for spec in edges:
        for vertex in spec[:2]:
            if not graph.has_vertex(vertex):
                graph.add_vertex(vertex)
    for source, target, label, *directed in edges:
        graph.add_edge(source, target, label, directed=directed[0] if directed else True)
    return graph


def chain(name, labels):
    return query(name, [(f"v{i}", f"v{i + 1}", label) for i, label in enumerate(labels)])


UNDIRECTED = [("x", "y", "a", False), ("y", "z", "b"), ("z", "w", "c")]
CHAIN4 = ["a", "b", "c", "a"]


def generic_shape(shape):
    """A query whose leaves the probes do not lower, and its decomposition.

    ``undirected`` has an undirected query edge; ``triple`` is a four-edge
    chain split into a three-edge and a one-edge primitive.
    """
    if shape == "undirected":
        return query("u", UNDIRECTED), None
    pattern = chain("t", CHAIN4)
    ids = sorted(pattern.edge_ids())
    primitives = [pattern.edge_subgraph(ids[:3], name="p0"), pattern.edge_subgraph(ids[3:], name="p1")]
    return pattern, Decomposition(pattern, primitives)


def run_engine(specs, records, batch, decomposition=None, **config):
    engine = StreamWorksEngine(config=EngineConfig(**config))
    for name, graph, window in specs:
        engine.register_query(graph, name=name, window=window, decomposition=decomposition)
    for start in range(0, len(records), batch):
        engine.process_batch(records[start : start + batch])
    return engine


def identities(engine):
    return Counter((event.query_name, event.match.portable_identity()) for event in engine.events())


def oracle_identities(specs, records):
    """Every in-window embedding over the whole stream, searched from scratch."""
    graph = DynamicGraph(TimeWindow(None))
    for record in records:
        graph.ingest(record.source, record.target, record.label, record.timestamp)
    found = Counter()
    for name, pattern, window in specs:
        for match in SubgraphMatcher(graph, TimeWindow(window)).find_all(pattern):
            found[name, match.portable_identity()] += 1
    return found


def mutant_run_role():
    """``run_role`` with the partner test of old: any id but the seed's own."""
    source = inspect.getsource(probe.run_role)
    assert source.count("if candidate.id >= new_id:") == 1
    namespace = dict(vars(probe))
    exec(compile(source.replace("if candidate.id >= new_id:", "if candidate.id == new_id:"),
                 probe.__file__, "exec"), namespace)
    return namespace["run_role"]


def unbounded_generic_search(monkeypatch):
    """Drop the generic search's id bound: seeded VF2 binds partners of any id."""
    original = SubgraphMatcher.find_matches

    def find_matches(self, pattern, seed=None, limit=None, id_bound=None):
        return original(self, pattern, seed=seed, limit=limit)

    monkeypatch.setattr(SubgraphMatcher, "find_matches", find_matches)


# ----------------------------------------------------------------------
# mutation meta-tests: the rule is what keeps events unique
# ----------------------------------------------------------------------
def test_partners_of_any_id_in_the_probe_emit_a_duplicate_event(monkeypatch):
    specs = [("xy", chain("xy", ["x", "y"]), 1.0), ("xyx", chain("xyx", ["x", "y", "x"]), 1.0)]
    records = random_records(300, seed=4, vertices=6, labels=("x", "y"))
    expected = oracle_identities(specs, records)
    assert expected and max(expected.values()) == 1
    assert identities(run_engine(specs, records, 64)) == expected

    monkeypatch.setattr(local_search, "run_role", mutant_run_role())
    mutant = identities(run_engine(specs, records, 64))
    assert mutant != expected
    assert max(mutant.values()) > 1, "the mutant diverged without a duplicate"


@pytest.mark.parametrize("shape", ["undirected", "triple"])
def test_an_unbounded_generic_search_emits_a_duplicate_event(monkeypatch, shape):
    pattern, decomposition = generic_shape(shape)
    specs = [(shape, pattern, 1.0)]
    records = random_records(300, seed=9, vertices=6, labels=("a", "b", "c"))
    expected = oracle_identities(specs, records)
    assert expected
    engine = run_engine(specs, records, 64, decomposition)
    assert identities(engine) == expected
    leaves = engine.queries[shape].matcher.tree.leaves()
    searcher = engine.queries[shape].matcher.local_searcher
    # the leaves this test is about really run the generic search
    assert any(leaf.subgraph not in searcher._probes for leaf in leaves)

    unbounded_generic_search(monkeypatch)
    mutant = identities(run_engine(specs, records, 64, decomposition))
    assert max(mutant.values()) > 1, "the mutant diverged without a duplicate"


# ----------------------------------------------------------------------
# differential over leaves the probes do not cover
# ----------------------------------------------------------------------
@settings(max_examples=16, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    batch=st.sampled_from([1, 7, 64]),
    shape=st.sampled_from(["undirected", "triple"]),
)
def test_generic_search_leaves_match_the_from_scratch_oracle(seed, batch, shape):
    pattern, decomposition = generic_shape(shape)
    specs = [(shape, pattern, 0.8)]
    records = random_records(120, seed, vertices=5, labels=("a", "b", "c"))
    engine = run_engine(specs, records, batch, decomposition)
    assert identities(engine) == oracle_identities(specs, records)


# ----------------------------------------------------------------------
# FO+MOD work pin: one leaf match per embedding, at its newest edge
# ----------------------------------------------------------------------
def brute_force_embeddings(leaf, records, window, newest):
    """Embeddings of ``leaf`` whose newest record index is in ``newest``.

    Itertools over record indices, no graph and no search: each injective
    assignment of records to the leaf's (directed) query edges that agrees
    on labels and shared vertices, keeps distinct query vertices on
    distinct data vertices, and spans less than ``window``.
    """
    query_edges = list(leaf.edges())
    count = 0
    for chosen in itertools.permutations(range(max(newest) + 1), len(query_edges)):
        if max(chosen) not in newest:
            continue
        binding = {}
        ok = True
        for query_edge, index in zip(query_edges, chosen):
            record = records[index]
            if record.label != query_edge.label:
                ok = False
                break
            for var, vertex in ((query_edge.source, record.source), (query_edge.target, record.target)):
                if binding.setdefault(var, vertex) != vertex:
                    ok = False
            if not ok:
                break
        if not ok or len(set(binding.values())) != len(binding):
            continue
        stamps = [records[index].timestamp for index in chosen]
        if max(stamps) - min(stamps) < window:
            count += 1
    return count


def test_leaf_matches_per_run_equal_the_brute_force_embeddings():
    window = 0.6
    pattern = chain("pin", CHAIN4)
    records = random_records(96, seed=21, vertices=5, labels=("a", "b", "c"))
    engine = StreamWorksEngine(config=EngineConfig())
    engine.register_query(pattern, name="pin", window=window)
    matcher = engine.queries["pin"].matcher
    leaves = matcher.tree.leaves()
    assert all(len(list(leaf.subgraph.edges())) == 2 for leaf in leaves)
    batch = 16
    total = inside = 0
    for start in range(0, len(records), batch):
        before = matcher.stats.leaf_matches_found
        run = records[start : start + batch]
        engine.process_batch(run)
        newest = range(start, start + len(run))
        expected = sum(
            brute_force_embeddings(leaf.subgraph, records, window, newest) for leaf in leaves
        )
        assert matcher.stats.leaf_matches_found - before == expected
        total += expected
        # the embeddings both of whose edges the run itself holds: these were
        # found once from each edge before the newest-edge rule
        inside += sum(
            brute_force_embeddings(leaf.subgraph, run, window, range(len(run))) for leaf in leaves
        )
    assert total >= 20 and inside > 0, "too few leaf matches to pin anything"
    assert engine.events()
    assert matcher.stats.duplicate_matches_suppressed == 0


# ----------------------------------------------------------------------
# nothing hashes match identities on the streaming path
# ----------------------------------------------------------------------
def test_streaming_path_never_calls_match_identity(monkeypatch):
    calls = []
    original = Match.identity

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Match, "identity", counted)
    specs = [
        ("xy", chain("xy", ["x", "y"]), 1.0),
        ("u", query("u", [("p", "q", "x", False), ("q", "r", "y")]), 1.0),
    ]
    records = random_records(400, seed=2, vertices=6, labels=("x", "y"))
    engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
    for name, pattern, window in specs:
        engine.register_query(pattern, name=name, window=window)
    for start in range(0, len(records), 50):
        if start == 200:
            engine.replan_all(strategy=Strategy.ANTI_SELECTIVE)
        engine.process_batch(records[start : start + 50])
        engine.process_record(records[start])  # a late duplicate, one-record run
    assert engine.events()
    assert not calls


# ----------------------------------------------------------------------
# boundary regressions
# ----------------------------------------------------------------------
def on_grid_specs():
    pattern = query("grid", [("c", "x", "l"), ("c", "y", "l"), ("c", "z", "m"), ("x", "w", "k")])
    return [("grid", pattern, 0.05)]


def on_grid_records():
    # a 1 ms clock: partial ages land exactly on the 0.05 window
    return random_records(600, seed=1, vertices=25, labels=("l", "m", "k"), step=0.001)


def events_of(engine):
    return [(e.query_name, e.match.portable_identity(), e.trigger_index) for e in engine.events()]


@pytest.fixture(scope="module")
def unswept_on_grid_events():
    """The on-grid run with partial expiry switched off: sweeping is only pruning."""
    patch = pytest.MonkeyPatch()
    patch.setattr(ContinuousQueryMatcher, "expire_partials", lambda self, now: 0)
    try:
        events = events_of(run_engine(on_grid_specs(), on_grid_records(), 64))
    finally:
        patch.undo()
    return events


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_on_grid_window_expiry_agrees_with_the_span_test(strategy, batch, unswept_on_grid_events):
    engine = run_engine(on_grid_specs(), on_grid_records(), batch, plan_strategy=strategy)
    assert unswept_on_grid_events
    assert events_of(engine) == unswept_on_grid_events
    assert engine.queries["grid"].matcher.stats.partial_matches_expired > 0


def automorphic_specs():
    pattern = query("auto", [("c", "x", "l"), ("c", "y", "l"), ("x", "w", "k"), ("y", "u", "k")])
    return [("auto", pattern, 0.0505)]


def automorphic_records():
    return random_records(600, seed=1, vertices=25, labels=("l", "m", "k"), step=0.001)


@pytest.fixture(scope="module")
def least_variant_per_edge_set():
    """Per edge set, the variant with the least canonical key, from scratch."""
    (_, pattern, window), = automorphic_specs()
    graph = DynamicGraph(TimeWindow(None))
    for record in automorphic_records():
        graph.ingest(record.source, record.target, record.label, record.timestamp)
    best = {}
    for match in SubgraphMatcher(graph, TimeWindow(window)).find_all(pattern):
        edge_set = match.structural_identity()
        if edge_set not in best or canonical_match_key(match) < canonical_match_key(best[edge_set]):
            best[edge_set] = match
    return Counter(match.portable_identity() for match in best.values())


@pytest.mark.parametrize(
    "strategy, batch, replan_at",
    [(strategy, batch, None) for strategy in STRATEGIES for batch in (1, 64)]
    + [(Strategy.SELECTIVITY, 64, 320)],
)
def test_dedupe_structural_keeps_the_least_variant(strategy, batch, replan_at, least_variant_per_edge_set):
    records = automorphic_records()
    engine = StreamWorksEngine(config=EngineConfig(plan_strategy=strategy, dedupe_structural=True))
    for name, pattern, window in automorphic_specs():
        engine.register_query(pattern, name=name, window=window)
    for start in range(0, len(records), batch):
        if start == replan_at:
            engine.replan_query("auto", strategy=Strategy.ANTI_SELECTIVE)
        engine.process_batch(records[start : start + batch])
    if replan_at is not None:
        assert engine.queries["auto"].plan_version == 1
    reported = Counter(event.match.portable_identity() for event in engine.events())
    assert reported == least_variant_per_edge_set != Counter()
    assert engine.queries["auto"].matcher.stats.duplicate_matches_suppressed > 0
