"""The planner's store-backed statistics view against the materialised census.

``StoreStatistics`` (``repro.stats.store_stats``) answers the estimator's
questions -- signature, label and wedge counts -- straight from the store's
typed edge slots.  Every answer must equal what a materialised
``GraphSummary`` holds, with the wedge counts held to the quadratic
``TriadCensus.observe_graph``, and a planner over the view must choose the
same plans with bit-equal estimates.  The meta-tests break the two
corrections the wedge count rests on and check that the oracle notices.
"""

import itertools
import random

import pytest

from repro.core import EngineConfig, Strategy, StreamWorksEngine
from repro.core.planner import PlannerConfig, QueryPlanner
from repro.graph import DynamicGraph, TimeWindow
from repro.query import QueryBuilder
from repro.query.query_graph import QueryGraph
from repro.stats import StreamSummarizer, TriadCensus, wedge_key_for_query
from repro.stats import store_stats
from repro.stats.store_stats import StoreStatistics

VERTEX_LABELS = ("A", "B", "C")
EDGE_LABELS = ("x", "y", "z")
ORIENTATIONS = ("out", "in")


def random_store(seed, window=None):
    """A stream over a few vertices: self loops, parallel edges, evictions."""
    rng = random.Random(seed)
    vertices = rng.randint(1, 9)
    label_of = {v: rng.choice(VERTEX_LABELS) for v in range(vertices)}
    graph = DynamicGraph(TimeWindow(window))
    for step in range(rng.randint(0, 70)):
        source = rng.randrange(vertices)
        # one record in five is a self loop; repeats make parallel edges
        target = source if rng.random() < 0.2 else rng.randrange(vertices)
        graph.ingest(f"v{source}", f"v{target}", rng.choice(EDGE_LABELS), step * 0.5,
                     source_label=label_of[source], target_label=label_of[target])
    return graph


def legs():
    labels = EDGE_LABELS + (None,)
    leaves = VERTEX_LABELS + (None,)
    return list(itertools.product(labels, ORIENTATIONS, leaves))


ALL_KEYS = [
    wedge_key_for_query(center, first, second)
    for center in VERTEX_LABELS + (None,)
    for first, second in itertools.combinations_with_replacement(legs(), 2)
]
ALL_SIGNATURES = list(
    itertools.product(VERTEX_LABELS + (None,), EDGE_LABELS + (None,), VERTEX_LABELS + (None,))
)


def assert_view_equals_census(graph, track_triads=True):
    view = StoreStatistics(graph, track_triads)
    summary = StreamSummarizer(graph, track_triads).summary()
    census = TriadCensus()
    if track_triads:
        census.observe_graph(graph)
    assert view.edge_count == summary.edge_count
    for label in VERTEX_LABELS + (None,):
        assert view.vertex_label_count(label) == summary.vertex_label_count(label)
    for label in EDGE_LABELS + (None,):
        assert view.edge_label_count(label) == summary.edge_label_count(label)
    for signature in ALL_SIGNATURES:
        assert view.signature_count(signature) == summary.signature_count(signature), signature
    assert view.total_wedges() == census.total_wedges() == summary.total_wedges()
    for key in ALL_KEYS:
        assert view.wedge_count_wildcard(key) == census.count_wildcard(key), key
        assert view.wedge_count(key) == census.count(key), key
        center, (first, second) = key
        flipped = (center, (second, first))
        assert view.wedge_count(flipped) == census.count(flipped), flipped


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_count_equals_the_materialised_census(seed):
    assert_view_equals_census(random_store(seed))


@pytest.mark.parametrize("seed", range(10))
def test_a_bounded_window_is_counted_after_eviction(seed):
    # the store's slots carry consumed heads and tombstones after eviction
    graph = random_store(seed, window=4.0)
    assert_view_equals_census(graph)


@pytest.mark.parametrize("seed", range(5))
def test_without_the_census_every_wedge_count_is_zero(seed):
    graph = random_store(seed)
    assert_view_equals_census(graph, track_triads=False)
    view = StoreStatistics(graph, track_triads=False)
    assert view.total_wedges() == 0
    assert all(view.wedge_count_wildcard(key) == 0 for key in ALL_KEYS)


def test_an_empty_store_counts_nothing_and_walks_nothing(monkeypatch):
    graph = DynamicGraph(TimeWindow(None))
    assert_view_equals_census(graph)
    monkeypatch.setattr(type(graph.graph), "edges", None)
    monkeypatch.setattr(type(graph.graph), "vertices", None)
    assert StoreStatistics(graph).edge_count == 0


def test_a_vertex_without_a_live_edge_is_not_counted():
    graph = DynamicGraph(TimeWindow(None))
    graph.ingest("a", "b", "x", 0.0, source_label="A", target_label="B")
    graph.graph.add_vertex("lonely", "A")
    view = StoreStatistics(graph)
    assert view.vertex_label_count("A") == 1
    assert view.vertex_label_count(None) == 2


# ----------------------------------------------------------------------
# plans over the view
# ----------------------------------------------------------------------
def random_query(rng, index):
    """A connected query: typed and unlabelled vertices, now and then an undirected edge."""
    size = rng.randint(2, 4)
    graph = QueryGraph(f"q{index}")
    names = [f"n{i}" for i in range(size + 1)]
    for name in names:
        graph.add_vertex(name, rng.choice(VERTEX_LABELS + (None, None)))
    for position in range(size):
        # each new edge touches a vertex already placed
        source = names[rng.randrange(position + 1)]
        target = names[position + 1]
        if rng.random() < 0.5:
            source, target = target, source
        graph.add_edge(source, target, rng.choice(EDGE_LABELS + (None,)),
                       directed=rng.random() > 0.2)
    return graph


def plans(statistics, queries):
    return [
        QueryPlanner(
            statistics,
            PlannerConfig(strategy=strategy, conditional_ordering=conditional,
                          primitive_size=size, use_triads=use_triads),
        ).plan(query)
        for query in queries
        for strategy in (Strategy.SELECTIVITY, Strategy.ANTI_SELECTIVE)
        for conditional in (False, True)
        for size in (1, 2)
        for use_triads in (True, False)
    ]


@pytest.mark.parametrize("seed", range(20))
def test_plans_over_the_view_equal_plans_over_the_summary(seed):
    rng = random.Random(1000 + seed)
    graph = random_store(seed, window=rng.choice([None, 6.0]))
    queries = [random_query(rng, index) for index in range(3)]
    for track_triads in (True, False):
        ours = plans(StoreStatistics(graph, track_triads), queries)
        theirs = plans(StreamSummarizer(graph, track_triads).summary(), queries)
        for mine, reference in zip(ours, theirs):
            assert mine.decomposition.same_tree(reference.decomposition)
            assert mine.estimates == reference.estimates  # bit-equal floats
            assert mine.summary_edge_count == reference.summary_edge_count


def test_the_engine_plans_from_the_view():
    engine = StreamWorksEngine(config=EngineConfig(replan_threshold=0.5))
    query = QueryBuilder("ab").edge("a", "b", "x").edge("b", "c", "y").build()
    engine.register_query(query, name="ab")
    for step in range(20):
        engine.process_edge(f"v{step % 4}", f"v{(step + 1) % 4}", EDGE_LABELS[step % 2],
                            float(step), source_label="A", target_label="A")
    planner = engine._make_planner(None)
    assert isinstance(planner.summary, StoreStatistics)
    reference = QueryPlanner(engine.statistics_summary(), planner.config).plan(query)
    assert planner.plan(query).estimates == reference.estimates


# ----------------------------------------------------------------------
# the oracle has teeth
# ----------------------------------------------------------------------
def self_loop_as_two_legs(monkeypatch):
    """Fault: a self loop counts as an ``"out"`` and an ``"in"`` leg."""
    monkeypatch.setattr(StoreStatistics, "_self_loops", lambda self: {})


def no_pair_correction(monkeypatch):
    """Fault: the wedge count is ``S_A * S_B``, without ``- S_AB - C(S_AB, 2)``."""
    monkeypatch.setattr(store_stats, "_meet", lambda first, second: None)


@pytest.mark.parametrize("fault", [self_loop_as_two_legs, no_pair_correction])
def test_the_oracle_rejects(fault, monkeypatch):
    fault(monkeypatch)
    caught = 0
    for seed in SEEDS:
        try:
            assert_view_equals_census(random_store(seed))
        except AssertionError:
            caught += 1
    assert caught > 0
