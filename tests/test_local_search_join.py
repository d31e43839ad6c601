"""Tests for local search around new edges and for the windowed match join."""

import inspect
import random
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import local_search as local_search_module
from repro.core import probe as probe_module
from repro.core.join import joined_span, try_join
from repro.core.local_search import LocalSearcher, find_primitive_matches
from repro.graph import DynamicGraph, TimeWindow
from repro.graph.types import Edge
from repro.isomorphism import Match
from repro.isomorphism.match import MatchConflictError
from repro.query import QueryBuilder, QueryGraph
from repro.query.compile import CompiledQuery
from repro.query.predicates import AttrCompare


@pytest.fixture
def article_pair_primitive(pair_query):
    """Primitive: a1 mentions k AND a1 locatedIn loc (one article, both facts)."""
    ids = [e.id for e in pair_query.edges() if e.source == "a1"]
    return pair_query.edge_subgraph(ids, name="a1_pair")


class TestLocalSearch:
    def test_finds_primitive_completed_by_new_edge(self, pair_query, article_pair_primitive):
        graph = DynamicGraph()
        graph.ingest("art1", "kw1", "mentions", 1.0, source_label="Article", target_label="Keyword")
        new_edge = graph.ingest("art1", "loc1", "locatedIn", 2.0,
                                source_label="Article", target_label="Location")
        matches = find_primitive_matches(graph, article_pair_primitive, new_edge)
        assert len(matches) == 1
        assert matches[0].vertex_binding("a1") == "art1"
        assert matches[0].uses_data_edge(new_edge.id)

    def test_no_match_when_other_edge_missing(self, article_pair_primitive):
        graph = DynamicGraph()
        new_edge = graph.ingest("art1", "loc1", "locatedIn", 2.0,
                                source_label="Article", target_label="Location")
        assert find_primitive_matches(graph, article_pair_primitive, new_edge) == []

    def test_only_matches_containing_new_edge_are_returned(self, article_pair_primitive):
        graph = DynamicGraph()
        # a complete old embedding (art0) plus a new edge for art1
        graph.ingest("art0", "kw1", "mentions", 0.1, source_label="Article", target_label="Keyword")
        graph.ingest("art0", "loc1", "locatedIn", 0.2, source_label="Article", target_label="Location")
        graph.ingest("art1", "kw1", "mentions", 1.0, source_label="Article", target_label="Keyword")
        new_edge = graph.ingest("art1", "loc1", "locatedIn", 2.0,
                                source_label="Article", target_label="Location")
        matches = find_primitive_matches(graph, article_pair_primitive, new_edge)
        assert len(matches) == 1
        assert all(match.uses_data_edge(new_edge.id) for match in matches)

    def test_window_restricts_local_search(self, article_pair_primitive):
        graph = DynamicGraph()
        graph.ingest("art1", "kw1", "mentions", 0.0, source_label="Article", target_label="Keyword")
        new_edge = graph.ingest("art1", "loc1", "locatedIn", 100.0,
                                source_label="Article", target_label="Location")
        assert find_primitive_matches(graph, article_pair_primitive, new_edge, TimeWindow(10.0)) == []
        assert len(find_primitive_matches(graph, article_pair_primitive, new_edge, TimeWindow(1000.0))) == 1

    def test_new_edge_not_matching_any_primitive_edge(self, article_pair_primitive):
        graph = DynamicGraph()
        new_edge = graph.ingest("u", "h", "loginTo", 1.0, source_label="User", target_label="IP")
        searcher = LocalSearcher(graph)
        assert searcher.find(article_pair_primitive, new_edge) == []
        assert searcher.searches_started == 0

    def test_duplicate_bindings_from_multiple_seeds_are_removed(self):
        # primitive with two identically-labelled parallel query edges: the new
        # edge can seed either query edge, but each complete binding must be
        # reported once
        query = (
            QueryBuilder("parallel")
            .vertex("x", "IP")
            .vertex("y", "IP")
            .edge("x", "y", "connectsTo")
            .edge("x", "y", "connectsTo")
            .build()
        )
        graph = DynamicGraph()
        graph.ingest("a", "b", "connectsTo", 1.0, source_label="IP", target_label="IP")
        new_edge = graph.ingest("a", "b", "connectsTo", 2.0, source_label="IP", target_label="IP")
        matches = find_primitive_matches(graph, query, new_edge)
        # the two bindings differ in which query edge the new data edge plays
        assert len(matches) == 2
        assert len({m.identity() for m in matches}) == 2

    def test_counters_track_work(self, article_pair_primitive):
        graph = DynamicGraph()
        graph.ingest("art1", "kw1", "mentions", 1.0, source_label="Article", target_label="Keyword")
        new_edge = graph.ingest("art1", "loc1", "locatedIn", 2.0,
                                source_label="Article", target_label="Location")
        searcher = LocalSearcher(graph)
        searcher.find(article_pair_primitive, new_edge)
        assert searcher.searches_started == 1
        assert searcher.matches_found == 1


class TestJoin:
    def edge(self, eid, timestamp):
        return Edge(eid, f"s{eid}", f"t{eid}", "r", timestamp)

    def test_joined_span(self):
        left = Match({"x": "s0", "y": "t0"}, {0: self.edge(0, 1.0)})
        right = Match({"z": "s1", "w": "t1"}, {1: self.edge(1, 6.0)})
        assert joined_span(left, right) == pytest.approx(5.0)
        assert joined_span(Match(), Match()) == 0.0

    def test_try_join_compatible(self):
        left = Match({"a1": "art1", "k": "kw"}, {0: Edge(0, "art1", "kw", "mentions", 1.0)})
        right = Match({"a2": "art2", "k": "kw"}, {1: Edge(1, "art2", "kw", "mentions", 2.0)})
        joined = try_join(left, right, TimeWindow(10.0))
        assert joined is not None
        assert joined.size == 2

    def test_try_join_window_violation(self):
        left = Match({"a1": "art1", "k": "kw"}, {0: Edge(0, "art1", "kw", "mentions", 1.0)})
        right = Match({"a2": "art2", "k": "kw"}, {1: Edge(1, "art2", "kw", "mentions", 50.0)})
        assert try_join(left, right, TimeWindow(10.0)) is None
        assert try_join(left, right, TimeWindow(100.0)) is not None
        assert try_join(left, right, None) is not None

    def test_try_join_incompatible_bindings(self):
        left = Match({"k": "kw1"}, {0: Edge(0, "a", "kw1", "mentions", 1.0)})
        right = Match({"k": "kw2"}, {1: Edge(1, "b", "kw2", "mentions", 1.0)})
        assert try_join(left, right, TimeWindow(10.0)) is None


# ----------------------------------------------------------------------
# compiled probe == generic seeded search
# ----------------------------------------------------------------------
#: (edge 0, edge 1) endpoint variables of every lowered two-edge shape, plus
#: the one-edge ones: path, shared source, shared target, 2-cycle, parallel,
#: loop + spoke (both ways round), two loops on one vertex.
SHAPES = [
    [("a", "b")],
    [("a", "a")],
    [("a", "b"), ("b", "c")],
    [("a", "b"), ("a", "c")],
    [("b", "a"), ("c", "a")],
    [("a", "b"), ("b", "a")],
    [("a", "b"), ("a", "b")],
    [("a", "a"), ("a", "b")],
    [("b", "a"), ("a", "a")],
    [("a", "a"), ("a", "a")],
]
WINDOWS = [
    TimeWindow(2.0),
    TimeWindow(3.0, strict=False),
    TimeWindow(0.0),
    TimeWindow(0.0, strict=False),
    TimeWindow(None),
]
WINDOW_WEIGHTS = [4, 4, 1, 1, 2]
VERTEX_LABELS = {0: "A", 1: "A", 2: "B", 3: "B"}


def draw_case(rng):
    """Draw ``(graph, primitive, window)``: a small messy multigraph and a lowered shape.

    Four vertices and two edge labels make parallel edges, data self loops,
    reciprocal pairs and a hub (vertex 0 draws a third of all endpoints)
    routine; integer timestamps make spans land exactly on the window
    length.  With disorder the edges are ingested as drawn, so adjacency
    slots go unsorted and range scans fall back to plain enumeration.
    """
    def endpoint():
        return 0 if rng.random() < 0.33 else rng.randrange(4)

    rows = [
        (endpoint(), endpoint(), rng.choice("pppq"), float(rng.randrange(7)), rng.randrange(3))
        for _ in range(rng.randrange(1, 21))
    ]
    if rng.random() < 0.7:  # else: disorder
        rows.sort(key=lambda row: row[3])
    graph = DynamicGraph()
    for source, target, label, timestamp, weight in rows:
        graph.ingest(
            source, target, label, timestamp, {"w": weight},
            source_label=VERTEX_LABELS[source], target_label=VERTEX_LABELS[target],
            source_attrs={"k": source % 2}, target_attrs={"k": target % 2},
        )

    builder = QueryBuilder("primitive")
    shape = rng.choice(SHAPES)
    # half the primitives are constrained by edge labels alone, so that
    # matches (and near-misses of the span and injectivity tests) are common
    loose = rng.random() < 0.5

    def maybe(value):
        return None if loose or rng.random() < 0.6 else value

    for name in sorted({name for pair in shape for name in pair}):
        builder.vertex(name, maybe(rng.choice("AB")), attrs=maybe({"k": 1}))
    for source, target in shape:
        builder.edge(
            source, target, rng.choice("pppq"),
            attrs=maybe({"w": 1}), predicate=maybe(AttrCompare("w", ">=", 1)),
        )
    return graph, builder.build(), rng.choices(WINDOWS, WINDOW_WEIGHTS)[0]


def signature(matches):
    """Everything observable about a result list, map orders included."""
    return [
        (
            tuple(match.vertex_map.items()),
            tuple((query_edge, edge.id) for query_edge, edge in match.edge_map.items()),
            match.earliest,
            match.latest,
        )
        for match in matches
    ]


def probe_disagreement(graph, primitive, window):
    """Run every edge through the probe and the generic search; describe the first difference."""
    compiled = CompiledQuery(primitive)
    generic = LocalSearcher(graph, window, compiled=compiled)
    lowered = LocalSearcher(graph, window, compiled=compiled)
    lowered._probes[primitive] = probe_module.compile_probe(lowered, primitive)
    assert lowered._probes[primitive] is not None and not generic._probes
    for edge in list(graph.edges()):
        scans = graph.range_scan_stats()
        expected = generic.find(primitive, edge)
        generic_scans = {key: value - scans[key] for key, value in graph.range_scan_stats().items()}
        scans = graph.range_scan_stats()
        found = lowered.find(primitive, edge)
        probe_scans = {key: value - scans[key] for key, value in graph.range_scan_stats().items()}
        if signature(found) != signature(expected):
            return f"edge {edge}: probe {signature(found)} != generic {signature(expected)}"
        if probe_scans != generic_scans:
            return f"edge {edge}: probe scans {probe_scans} != generic {generic_scans}"
        if len({match.identity() for match in found}) != len(found):
            return f"edge {edge}: duplicate identities in {signature(found)}"
    counters = lambda searcher: (searcher.searches_started, searcher.matches_found)  # noqa: E731
    if counters(lowered) != counters(generic):
        return f"counters: probe {counters(lowered)} != generic {counters(generic)}"
    return None


def mutated_probe_module(old, new):
    """Return :mod:`repro.core.probe` re-executed with one source line replaced."""
    source = inspect.getsource(probe_module)
    assert source.count(old) == 1
    module = types.ModuleType("repro.core.probe_mutant")
    module.__package__ = "repro.core"
    exec(compile(source.replace(old, new), "<probe mutant>", "exec"), module.__dict__)
    return module


class TestProbeEqualsGenericSearch:
    @given(rng=st.randoms(use_true_random=False))
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_lists_counters_and_scans(self, rng):
        assert probe_disagreement(*draw_case(rng)) is None

    def test_matcher_lowers_its_leaves_only_on_the_compiled_path(self, pair_query):
        from repro.core import ContinuousQueryMatcher, decompose

        for columnar in (True, False):
            matcher = ContinuousQueryMatcher(
                pair_query, decompose(pair_query), DynamicGraph(), TimeWindow(5.0), columnar=columnar
            )
            leaves = [leaf.subgraph for leaf in matcher.tree.leaves()]
            assert list(matcher.local_searcher._probes) == (leaves if columnar else [])

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "b", "p", True), ("b", "c", "p", True), ("c", "d", "p", True)],
            [("a", "b", "p", False)],
            [("a", "b", "p", True), ("b", "c", None, True)],
            [("a", "b", "p", True), ("c", "d", "p", True)],
        ],
        ids=["three-edges", "undirected", "unlabelled", "disconnected"],
    )
    def test_other_shapes_keep_the_generic_search(self, edges):
        primitive = QueryGraph("other")
        for source, target, label, directed in edges:
            primitive.add_edge(source, target, label, directed=directed)
        searcher = LocalSearcher(
            DynamicGraph(), TimeWindow(5.0), compiled=CompiledQuery(primitive), primitives=[primitive]
        )
        assert not searcher._probes
        # nor is anything lowered for the interpreted oracle, whatever the shape
        assert not LocalSearcher(DynamicGraph(), primitives=[draw_case(random.Random(0))[1]])._probes

    @pytest.mark.parametrize(
        "old, new",
        [
            ("if (span >= duration) if strict else (span > duration):", "if False:"),
            ("if far == other:", "if False:"),
        ],
        ids=["no-span-test", "no-injectivity-test"],
    )
    def test_differential_catches_a_probe_missing_a_test(self, old, new, monkeypatch):
        cases = [draw_case(random.Random(seed)) for seed in range(300)]
        assert all(probe_disagreement(*case) is None for case in cases)
        monkeypatch.setattr(local_search_module, "run_role", mutated_probe_module(old, new).run_role)
        assert any(probe_disagreement(*case) is not None for case in cases)


class TestProbeWorkIsBoundedByTheWindow:
    """Per-update work must not grow with the database (the FO+MOD criterion)."""

    @staticmethod
    def examined_by_one_find(degree, disorder=False):
        """Candidates one ``find`` looks at on a hub with ``degree`` retained in-edges."""
        graph = DynamicGraph()
        if disorder:
            # one late arrival unsorts the hub's slot for good: range scans
            # give up and the probe enumerates the whole slot
            graph.ingest("late", "hub", "in", 1.0)
            graph.ingest("later", "hub", "in", 0.5)
        for index in range(degree):
            graph.ingest(f"s{index}", "hub", "in", float(index + 2))
        new_edge = graph.ingest("hub", "sink", "out", float(degree + 2))
        primitive = QueryBuilder("through").edge("a", "h", "in").edge("h", "c", "out").build()
        searcher = LocalSearcher(
            graph, TimeWindow(5.0), compiled=CompiledQuery(primitive), primitives=[primitive]
        )
        matches = searcher.find(primitive, new_edge)
        assert len(matches) == 4  # in-edges at t > new - 5
        return searcher.candidates_examined

    def test_flat_while_the_hub_grows_hundredfold(self):
        # the four matches plus the one in-edge exactly a window away, which
        # the inclusive range scan hands over and the strict span test refuses
        assert self.examined_by_one_find(50) == self.examined_by_one_find(5000) == 5

    def test_the_pin_fails_on_the_plain_enumeration(self):
        assert self.examined_by_one_find(50, disorder=True) == 52
        assert self.examined_by_one_find(5000, disorder=True) == 5002


# ----------------------------------------------------------------------
# lean Match algebra == the implementations it replaced
# ----------------------------------------------------------------------
def reference_is_compatible(self, other):
    """``Match.is_compatible`` as it stood before the lean rewrite, verbatim."""
    # shared query vertices must agree
    for query_vertex, data_vertex in self.vertex_map.items():
        other_binding = other.vertex_map.get(query_vertex)
        if other_binding is not None and other_binding != data_vertex:
            return False
    # injectivity of the merged vertex map
    self_only = {
        qv: dv for qv, dv in self.vertex_map.items() if qv not in other.vertex_map
    }
    other_only = {
        qv: dv for qv, dv in other.vertex_map.items() if qv not in self.vertex_map
    }
    other_values = set(other.vertex_map.values())
    for data_vertex in self_only.values():
        if data_vertex in other_values:
            return False
    self_values = set(self.vertex_map.values())
    for data_vertex in other_only.values():
        if data_vertex in self_values:
            return False
    if len(set(self_only.values())) != len(self_only):
        return False
    if len(set(other_only.values())) != len(other_only):
        return False
    # shared query edges must agree; distinct query edges need distinct data edges
    for query_edge_id, data_edge in self.edge_map.items():
        other_edge = other.edge_map.get(query_edge_id)
        if other_edge is not None and other_edge.id != data_edge.id:
            return False
    self_edge_ids = {
        edge.id for qe, edge in self.edge_map.items() if qe not in other.edge_map
    }
    other_edge_ids = {
        edge.id for qe, edge in other.edge_map.items() if qe not in self.edge_map
    }
    if self_edge_ids & other_edge_ids:
        return False
    return True


def reference_merge(self, other):
    """``Match.merge`` as it stood before: re-check, copy, re-scan the timestamps."""
    if not reference_is_compatible(self, other):
        raise MatchConflictError("matches are not compatible")
    vertex_map = dict(self.vertex_map)
    vertex_map.update(other.vertex_map)
    edge_map = dict(self.edge_map)
    edge_map.update(other.edge_map)
    return Match(vertex_map, edge_map)


def reference_try_join(left, right, window=None):
    """``try_join`` as it stood before (compatibility checked twice)."""
    if window is not None and window.bounded:
        if not window.admits_span(joined_span(left, right)):
            return None
    if not reference_is_compatible(left, right):
        return None
    return reference_merge(left, right)


EDGE_POOL = [Edge(index, f"s{index}", f"t{index}", "r", float(index % 3)) for index in range(5)]
# maps need not be injective or mutually consistent: the five checks are
# compared on everything they can be handed, not only on what the engine builds
MATCHES = st.builds(
    Match,
    st.dictionaries(st.sampled_from("abcd"), st.integers(0, 4), max_size=4),
    st.dictionaries(st.integers(0, 3), st.sampled_from(EDGE_POOL), max_size=3),
)


class TestLeanAlgebraEqualsReference:
    @given(left=MATCHES, right=MATCHES, window=st.sampled_from(WINDOWS + [None]))
    @settings(max_examples=600, deadline=None)
    def test_compatibility_merge_and_join(self, left, right, window):
        compatible = reference_is_compatible(left, right)
        assert left.is_compatible(right) == compatible
        assert right.is_compatible(left) == reference_is_compatible(right, left)
        joined = try_join(left, right, window)
        expected = reference_try_join(left, right, window)
        assert signature([joined] if joined else []) == signature([expected] if expected else [])
        if compatible:
            assert signature([left.merge(right)]) == signature([reference_merge(left, right)])
            assert signature([left._merge_unchecked(right)]) == signature([reference_merge(left, right)])
        else:
            with pytest.raises(MatchConflictError):
                left.merge(right)

    @given(base=MATCHES, edge=st.sampled_from(EDGE_POOL))
    @settings(max_examples=200, deadline=None)
    def test_extending_keeps_the_extent_a_rescan_would_find(self, base, edge):
        try:
            extended = base.with_binding(9, edge, {})
        except MatchConflictError:
            return
        assert signature([extended]) == signature([Match(extended.vertex_map, extended.edge_map)])
