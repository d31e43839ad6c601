"""Tests for the backtracking subgraph-isomorphism matcher."""

import pytest

from repro.graph import PropertyGraph, TimeWindow
from repro.isomorphism import Match, SubgraphMatcher
from repro.query import QueryBuilder


class TestBasicMatching:
    def test_single_edge_query(self, triangle_graph):
        query = QueryBuilder("one").vertex("x", "Host").vertex("y", "Host").edge("x", "y", "link").build()
        matches = SubgraphMatcher(triangle_graph).find_all(query)
        assert len(matches) == 3

    def test_path_query_on_triangle(self, triangle_graph, path_query):
        matches = SubgraphMatcher(triangle_graph).find_all(path_query)
        # every vertex can be the middle of exactly one directed 2-path
        assert len(matches) == 3
        for match in matches:
            assert match.is_injective()
            assert match.size == 2

    def test_triangle_query_on_triangle(self, triangle_graph):
        query = (
            QueryBuilder("tri")
            .edge("x", "y", "link")
            .edge("y", "z", "link")
            .edge("z", "x", "link")
            .build()
        )
        matches = SubgraphMatcher(triangle_graph).find_all(query)
        # three rotations of the directed triangle
        assert len(matches) == 3

    def test_no_match_for_absent_label(self, triangle_graph):
        query = QueryBuilder("none").edge("x", "y", "nope").build()
        assert SubgraphMatcher(triangle_graph).find_all(query) == []
        assert not SubgraphMatcher(triangle_graph).exists(query)

    def test_vertex_label_constrains_candidates(self, news_graph):
        query = (
            QueryBuilder("q")
            .vertex("a", "Article")
            .vertex("k", "Keyword")
            .edge("a", "k", "mentions")
            .build()
        )
        matches = SubgraphMatcher(news_graph).find_all(query)
        assert len(matches) == 3

    def test_vertex_attribute_predicate(self, news_graph):
        query = (
            QueryBuilder("q")
            .vertex("a", "Article")
            .vertex("k", "Keyword", attrs={"label": "politics"})
            .edge("a", "k", "mentions")
            .build()
        )
        matches = SubgraphMatcher(news_graph).find_all(query)
        assert len(matches) == 2
        assert all(match.vertex_binding("k") == "kw:politics" for match in matches)

    def test_pair_query_automorphisms(self, news_graph, pair_query):
        matches = SubgraphMatcher(news_graph).find_all(pair_query)
        assert len(matches) == 2  # (art1,art2) and (art2,art1)
        structural = {match.structural_identity() for match in matches}
        assert len(structural) == 1

    def test_count_and_limit(self, news_graph, pair_query):
        matcher = SubgraphMatcher(news_graph)
        assert matcher.count_matches(pair_query) == 2
        assert len(matcher.find_all(pair_query, limit=1)) == 1


class TestMultigraphAndDirections:
    def test_parallel_edges_give_distinct_matches(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "IP")
        graph.add_vertex("b", "IP")
        graph.add_edge("a", "b", "connectsTo", 1.0)
        graph.add_edge("a", "b", "connectsTo", 2.0)
        query = QueryBuilder("q").vertex("x", "IP").vertex("y", "IP").edge("x", "y", "connectsTo").build()
        matches = SubgraphMatcher(graph).find_all(query)
        assert len(matches) == 2
        assert {match.edge_binding(0).timestamp for match in matches} == {1.0, 2.0}

    def test_two_parallel_query_edges_need_two_distinct_data_edges(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "IP")
        graph.add_vertex("b", "IP")
        graph.add_edge("a", "b", "connectsTo", 1.0)
        query = (
            QueryBuilder("q")
            .vertex("x", "IP")
            .vertex("y", "IP")
            .edge("x", "y", "connectsTo")
            .edge("x", "y", "connectsTo")
            .build()
        )
        assert SubgraphMatcher(graph).find_all(query) == []
        graph.add_edge("a", "b", "connectsTo", 2.0)
        assert len(SubgraphMatcher(graph).find_all(query)) == 2  # two orderings

    def test_direction_respected(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "H")
        graph.add_vertex("b", "H")
        graph.add_edge("a", "b", "link", 1.0)
        forward = QueryBuilder("f").vertex("x", "H").vertex("y", "H").edge("x", "y", "link").build()
        backward = QueryBuilder("b").vertex("x", "H").vertex("y", "H").edge("y", "x", "link").build()
        assert len(SubgraphMatcher(graph).find_all(forward)) == 1
        matches = SubgraphMatcher(graph).find_all(backward)
        assert len(matches) == 1
        assert matches[0].vertex_binding("y") == "a"

    def test_undirected_query_edge_matches_either_orientation(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "H")
        graph.add_vertex("b", "H")
        graph.add_edge("a", "b", "link", 1.0)
        query = QueryBuilder("u").vertex("x", "H").vertex("y", "H").undirected_edge("x", "y", "link").build()
        matches = SubgraphMatcher(graph).find_all(query)
        assert len(matches) == 2

    def test_self_loop_query_requires_self_loop_data(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "H")
        graph.add_vertex("b", "H")
        graph.add_edge("a", "b", "link", 1.0)
        loop_query = QueryBuilder("loop").vertex("x", "H").edge("x", "x", "link").build()
        assert SubgraphMatcher(graph).find_all(loop_query) == []
        graph.add_edge("a", "a", "link", 2.0)
        matches = SubgraphMatcher(graph).find_all(loop_query)
        assert len(matches) == 1
        assert matches[0].vertex_binding("x") == "a"


class TestSelfLoopCandidatesListedOnce:
    """A data self loop is filed under its vertex's OUT and IN slots alike."""

    def loop_graph(self):
        graph = PropertyGraph()
        graph.add_vertex("x", "H")
        graph.add_vertex("y", "H")
        graph.add_edge("x", "x", "l", 1.0)
        graph.add_edge("x", "y", "m", 2.0)
        return graph

    def test_undirected_loop_bound_from_anchored_vertex_matches_once(self):
        # a is bound through a -m- b first, then a -l- a is completed
        # between (x, x): the loop used to come back from both directions
        query = (
            QueryBuilder("q")
            .undirected_edge("a", "b", "m")
            .undirected_edge("a", "a", "l")
            .build()
        )
        matches = SubgraphMatcher(self.loop_graph()).find_all(query)
        assert len(matches) == 1
        assert matches[0].vertex_map == {"a": "x", "b": "y"}
        assert sorted(edge.id for edge in matches[0].edge_map.values()) == [0, 1]

    @pytest.mark.parametrize("with_table", [False, True])
    def test_anchor_enumeration_lists_a_loop_once(self, with_table):
        from repro.query.compile import CompiledQuery

        graph = self.loop_graph()
        graph.add_edge("y", "x", "l", 3.0)
        query = QueryBuilder("q").undirected_edge("a", "b", "m").undirected_edge("a", "c", "l").build()
        compiled = CompiledQuery(query) if with_table else None
        matcher = SubgraphMatcher(graph, TimeWindow(10.0), compiled=compiled)
        seed = Match().with_binding(0, graph.edge(1), {"a": "x", "b": "y"})
        before = graph.range_scan_stats()["range_scans"]
        listed = list(matcher._edges_from_anchor("x", query.edge(1), True, seed))
        # with a compiled table the matcher answers from the sorted-array
        # scan, without one (the interpreted reference) from the plain
        # enumeration: same list either way
        assert graph.range_scan_stats()["range_scans"] - before == int(with_table)
        assert [edge.id for edge in listed] == [0, 2]


class TestWindowAndSeeds:
    def test_window_prunes_wide_spans(self, news_graph, pair_query):
        # edges of the matching pair are at t=1..4 -> span 3
        tight = SubgraphMatcher(news_graph, TimeWindow(2.0)).find_all(pair_query)
        loose = SubgraphMatcher(news_graph, TimeWindow(10.0)).find_all(pair_query)
        assert tight == []
        assert len(loose) == 2

    def test_seeded_search_restricts_to_extensions(self, news_graph, pair_query):
        matcher = SubgraphMatcher(news_graph)
        # seed a1 -> art1 via its mentions edge
        mentions_edge = next(
            e for e in news_graph.edges("mentions") if e.source == "art1"
        )
        seed = Match().with_binding(0, mentions_edge, {"a1": "art1", "k": "kw:politics"})
        matches = matcher.find_all(pair_query, seed=seed)
        assert len(matches) == 1
        assert matches[0].vertex_binding("a1") == "art1"
        assert matches[0].vertex_binding("a2") == "art2"

    def test_seed_violating_window_yields_nothing(self, news_graph, pair_query):
        matcher = SubgraphMatcher(news_graph, TimeWindow(0.5))
        edges = {e.source: e for e in news_graph.edges("mentions")}
        seed = (
            Match()
            .with_binding(0, edges["art1"], {"a1": "art1", "k": "kw:politics"})
            .with_binding(2, edges["art2"], {"a2": "art2"})
        )
        # seed span is 2.0 > 0.5 so nothing can complete
        assert matcher.find_all(pair_query, seed=seed) == []

    def test_matcher_works_on_dynamic_graph(self, windowed_dynamic_graph, path_query):
        graph = windowed_dynamic_graph
        graph.ingest("a", "b", "link", 1.0, source_label="Host", target_label="Host")
        graph.ingest("b", "c", "link", 2.0, source_label="Host", target_label="Host")
        matches = SubgraphMatcher(graph).find_all(path_query)
        assert len(matches) == 1
