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
* **The retired duplicate memory** -- its metrics read zero on both engines,
  and a snapshot that still carries it loads with it ignored.
* **Emit order** -- :func:`canonical_match_key` (the engine's same-trigger
  key before partials became slot tuples) is kept here as the oracle: the
  matcher's ``completion_key`` must sort any two completions of one query
  exactly as it does (hypothesis, with a mutation meta-test that sorts raw
  values instead of reprs); emitted bindings list in the query's
  declaration order under every plan and feed; and the registration order
  that ranks queries on one trigger survives unregister, replan and
  restore.
"""

from __future__ import annotations

import inspect
import itertools
import json
import random
import sys
import textwrap
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EngineConfig,
    ShardConfig,
    ShardedStreamEngine,
    StreamWorksEngine,
    local_search,
    probe,
)
from repro.core.decomposition import Decomposition, Strategy, decompose
from repro.core.engine import RETIRED_DEDUP_METRICS
from repro.core.matcher import ContinuousQueryMatcher
from repro.graph import DynamicGraph, TimeWindow
from repro.graph.types import Edge
from repro.isomorphism import SubgraphMatcher
from repro.isomorphism.match import Match
from repro.persistence.state import ENGINE_KIND, engine_sections, load_engine_sections
from repro.persistence.upgrade import upgrade
from repro.query.query_graph import QueryGraph
from repro.streaming import StreamEdge

from test_sharded_conformance import rmat_queries, rmat_records

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


def run_engine(specs, records, batch, decomposition=None, strategy=None, **config):
    engine = StreamWorksEngine(config=EngineConfig(**config))
    for name, graph, window in specs:
        engine.register_query(
            graph, name=name, window=window, strategy=strategy, decomposition=decomposition
        )
    for start in range(0, len(records), batch):
        engine.process_batch(records[start : start + batch])
    return engine


def identities(engine):
    return Counter((event.query_name, event.match.portable_identity()) for event in engine.events())


def canonical_match_key(match):
    """The emit-order oracle: a match's bindings, ``repr``-sorted, as one string.

    This is the key the engine ordered same-trigger completions by (and
    ``dedupe_structural`` picked its variant by) while completions were
    :class:`Match` objects.  ``ContinuousQueryMatcher.completion_key`` must
    order the completions of one query exactly as it does.
    """
    vertices = sorted(match.vertex_map.items(), key=repr)
    edges = sorted(
        (
            (query_edge, edge.source, edge.target, edge.label, edge.timestamp)
            for query_edge, edge in match.edge_map.items()
        ),
        key=repr,
    )
    return repr((vertices, edges))


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
    engine = run_engine(on_grid_specs(), on_grid_records(), batch, strategy=strategy)
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
    engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=True))
    for name, pattern, window in automorphic_specs():
        engine.register_query(pattern, name=name, window=window, strategy=strategy)
    for start in range(0, len(records), batch):
        if start == replan_at:
            engine.replan_query("auto", strategy=Strategy.ANTI_SELECTIVE)
        engine.process_batch(records[start : start + batch])
    if replan_at is not None:
        assert engine.queries["auto"].plan_version == 1
    reported = Counter(event.match.portable_identity() for event in engine.events())
    assert reported == least_variant_per_edge_set != Counter()
    assert engine.queries["auto"].matcher.stats.duplicate_matches_suppressed > 0


# ----------------------------------------------------------------------
# the retired duplicate memory: zero metrics, ignored snapshot state
# ----------------------------------------------------------------------
def retired_memory_specs():
    return [("xy", chain("xy", ["x", "y"]), 8.0), ("yy", chain("yy", ["y", "y"]), 8.0)]


def test_retired_duplicate_memory_reads_zero_on_both_engines():
    records = random_records(200, seed=5, vertices=6, labels=["x", "y"])
    single = run_engine(retired_memory_specs(), records, batch=16)
    sharded = ShardedStreamEngine(config=ShardConfig(shard_count=2))
    for name, graph, window in retired_memory_specs():
        sharded.register_query(graph, name=name, window=window)
    for start in range(0, len(records), 16):
        sharded.process_batch(records[start : start + 16])
    assert single.events() and identities(sharded) == identities(single)
    for engine in (single, sharded):
        assert engine.metrics()["sketch"] == {"dedup_memory": RETIRED_DEDUP_METRICS}


def _with_retired_duplicate_memory(engine, prefix_events):
    """Render an engine's sections with the duplicate memory older snapshots carried."""
    sections = engine_sections(engine)
    sections["config"]["dedup_memory_budget"] = 4096
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


def test_snapshot_with_duplicate_memory_loads_with_it_ignored():
    records = random_records(200, seed=3, vertices=6, labels=["x", "y"])
    cut = 120
    uninterrupted = run_engine(retired_memory_specs(), records, batch=1)
    interrupted = run_engine(retired_memory_specs(), records[:cut], batch=1)
    prefix_events = interrupted.events()
    assert prefix_events, "no events before the cut -- vacuous"

    resumed = load_engine_sections(
        upgrade(ENGINE_KIND, _with_retired_duplicate_memory(interrupted, prefix_events), 1)
    )
    assert "dedup_memory_budget" not in vars(resumed.config)
    for name, registration in resumed.queries.items():
        assert registration.matcher.state_dict() == interrupted.queries[name].matcher.state_dict()
    for record in records[cut:]:
        resumed.process_record(record)
    assert identities(resumed) == identities(uninterrupted)
    assert [event.sequence for event in resumed.events()] == list(range(len(uninterrupted.events())))
    assert all(
        registration.matcher.stats.duplicate_matches_suppressed == 0
        for registration in resumed.queries.values()
    )


# ----------------------------------------------------------------------
# emit order: the completion key against its oracle, declaration order
# ----------------------------------------------------------------------
#: Query vertex names and edge labels, quotes and repr-prefixes included.
KEY_QUERIES = [
    [("b", "a", "x"), ("a", "c", "y"), ("c", "ab", "it's")],
    [("v10", "v9", 'say "hi"'), ("v9", "v1", "x"), ("v1", "v10", "x")],
    [("a'", 'q"', "l"), ('q"', "z", "l")],
    [("hub", "s1", "p"), ("hub", "s2", "p"), ("hub", "s10", None)],
    [("x", "y", "p", False), ("y", "z", "q"), ("z", "x", "p", False)],
    [("a", "a", "l"), ("a", "b", "l")],
]
#: Vertex ids: ints whose reprs sort unlike their values, strings with
#: quotes, floats whose reprs are prefixes of each other.  No two are equal,
#: so any sample of them is an injective binding.
KEY_VALUES = {
    "int": [0, 2, 9, 11, 12, 100, 1000],
    "str": ["v1", "v10", "v9", "a'b", 'q"t', "it's \"x\"", ""],
    "float": [1.0, 1.05, 10.0, 1.5, 0.1, 2.25, 1e20],
}
KEY_VALUES["mixed"] = [value for pool in KEY_VALUES.values() for value in pool]
TIMESTAMPS = [1.0, 1.05, 10.0, 10.5, 2.0, 0.5]
EDGE_LABELS = ["x", "it's", 'say "hi"', "l"]


def key_query(index):
    return query(f"key{index}", KEY_QUERIES[index])


def random_completion(rng, pattern, pool):
    """Maps binding every variable of ``pattern``: injective vertices, edges in between."""
    names = [vertex.name for vertex in pattern.vertices()]
    vertex_map = dict(zip(names, rng.sample(pool, len(names))))
    edge_map = {}
    for edge in pattern.edges():
        ends = (vertex_map[edge.source], vertex_map[edge.target])
        if not edge.directed and rng.random() < 0.5:
            ends = ends[::-1]  # an undirected query edge binds either way round
        label = edge.label if edge.label is not None else rng.choice(EDGE_LABELS)
        edge_map[edge.id] = Edge(rng.randrange(1000), *ends, label, rng.choice(TIMESTAMPS))
    return vertex_map, edge_map


def perturbed(rng, pattern, pool, vertex_map, edge_map):
    """A second completion equal to the first but for one vertex or timestamp."""
    vertex_map, edge_map = dict(vertex_map), dict(edge_map)
    if rng.random() < 0.5:
        name = rng.choice(list(vertex_map))
        renamed = {vertex_map[name]: rng.choice([v for v in pool if v not in vertex_map.values()])}
        vertex_map[name] = renamed[next(iter(renamed))]
        for query_edge, old in list(edge_map.items()):
            edge_map[query_edge] = Edge(
                old.id,
                renamed.get(old.source, old.source),
                renamed.get(old.target, old.target),
                old.label,
                old.timestamp,
            )
    elif rng.random() < 0.3:
        query_edge = rng.choice(list(edge_map))
        old = edge_map[query_edge]
        if not pattern.edge(query_edge).directed:
            edge_map[query_edge] = Edge(old.id, old.target, old.source, old.label, old.timestamp)
    else:
        query_edge = rng.choice(list(edge_map))
        old = edge_map[query_edge]
        edge_map[query_edge] = Edge(old.id, old.source, old.target, old.label, rng.choice(TIMESTAMPS))
    return vertex_map, edge_map


def key_disagreement(rng):
    """Draw two completions of one query; describe it if the keys order them unlike the oracle."""
    pattern = key_query(rng.randrange(len(KEY_QUERIES)))
    pool = KEY_VALUES[rng.choice(sorted(KEY_VALUES))]
    matcher = ContinuousQueryMatcher(pattern, decompose(pattern), DynamicGraph(), TimeWindow(None))
    root = matcher.tree.root.layout
    first = random_completion(rng, pattern, pool)
    if rng.random() < 0.7:
        second = perturbed(rng, pattern, pool, *first)
    else:
        second = random_completion(rng, pattern, pool)
    left, right = root.from_maps(*first), root.from_maps(*second)

    def compare(a, b):
        return (a > b) - (a < b)

    expected = compare(
        canonical_match_key(matcher.to_match(left)), canonical_match_key(matcher.to_match(right))
    )
    try:
        found = compare(matcher.completion_key(left), matcher.completion_key(right))
    except TypeError as error:
        return f"{first} vs {second}: {error}"
    if found != expected:
        return f"{first} vs {second}: key says {found}, oracle says {expected}"
    return None


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_completion_key_orders_as_the_oracle(rng):
    assert key_disagreement(rng) is None


def test_the_key_property_fails_on_raw_values(monkeypatch):
    """Mutation: a key of raw values instead of their reprs fails the property."""
    source = textwrap.dedent(inspect.getsource(ContinuousQueryMatcher.completion_key))
    assert source.count("repr(") == 6
    namespace = {}
    exec(source.replace("repr(", "("), vars(sys.modules[ContinuousQueryMatcher.__module__]), namespace)
    rngs = [random.Random(seed) for seed in range(300)]
    assert all(key_disagreement(rng) is None for rng in rngs)
    monkeypatch.setattr(ContinuousQueryMatcher, "completion_key", namespace["completion_key"])
    rngs = [random.Random(seed) for seed in range(300)]
    assert any(key_disagreement(rng) is not None for rng in rngs)


PLANS = (
    Strategy.SELECTIVITY,
    Strategy.EDGE_BY_EDGE,
    Strategy.ANTI_SELECTIVE,
    Strategy.BALANCED_PAIRS,
)


def declaration_order_events(strategy, whole_batch):
    records = rmat_records(400)
    engine = StreamWorksEngine()
    for name, pattern, window in rmat_queries():
        engine.register_query(pattern, name=name, window=window, strategy=strategy)
    if whole_batch:
        engine.process_batch(records)
    else:
        for record in records:
            engine.process_record(record)
    return engine


@pytest.mark.parametrize("whole_batch", [False, True], ids=["record-by-record", "whole-batch"])
def test_emitted_bindings_list_in_declaration_order(whole_batch):
    dumps = {}
    for strategy in PLANS:
        engine = declaration_order_events(strategy, whole_batch)
        events = engine.events()
        assert len({event.query_name for event in events}) > 1
        for event in events:
            pattern = engine.queries[event.query_name].query
            assert list(event.match.vertex_map) == [vertex.name for vertex in pattern.vertices()]
            assert list(event.match.edge_map) == [edge.id for edge in pattern.edges()]
        dumps[strategy] = [json.dumps(event.to_dict()) for event in events]
    assert all(dump == dumps[Strategy.SELECTIVITY] for dump in dumps.values())


def test_registration_order_survives_unregister_replan_and_restore(tmp_path):
    """Same-trigger events rank by registration order, however the engine got its queries."""
    labels = ("x", "y")
    shapes = {name: chain(name, ["x", "y"]) for name in ("p", "q", "r", "s")}
    records = random_records(300, seed=9, vertices=5, labels=labels)
    engine = StreamWorksEngine(config=EngineConfig())
    for name in ("p", "q", "r"):
        engine.register_query(shapes[name], name=name, window=1.0)
    engine.process_batch(records[:100])
    engine.unregister_query("q")
    engine.register_query(shapes["s"], name="s", window=1.0)
    engine.replan_query("p", strategy=Strategy.ANTI_SELECTIVE)
    path = str(tmp_path / "order.snap")
    engine.checkpoint(path)
    restored = StreamWorksEngine.restore(path)
    for candidate in (engine, restored):
        ranks = [candidate.queries[name].order for name in ("p", "r", "s")]
        assert ranks == sorted(ranks) and len(set(ranks)) == 3
        candidate.process_batch(records[100:])
    resumed = [(e.query_name, e.trigger_index) for e in restored.events()]
    assert resumed == [(e.query_name, e.trigger_index) for e in engine.events()]
    # p, r and s are one pattern: every completion ties three ways on its trigger
    late = [e for e in engine.events() if e.trigger_index >= 100]
    assert len({e.query_name for e in late}) == 3
    rank = {name: engine.queries[name].order for name in ("p", "r", "s")}
    for first, second in zip(late, late[1:]):
        if first.trigger_index == second.trigger_index:
            assert rank[first.query_name] <= rank[second.query_name]
