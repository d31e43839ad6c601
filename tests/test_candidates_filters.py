"""Tests for candidate enumeration helpers."""

from repro.graph.types import Edge
from repro.isomorphism.candidates import (
    count_label_candidates,
    edge_orientations,
    edge_satisfies,
    vertex_candidates,
    vertex_satisfies,
)
from repro.query import QueryBuilder
from repro.query.predicates import AttrEquals
from repro.query.query_graph import QueryEdge, QueryVertex


class TestCandidates:
    def test_vertex_satisfies_label_and_predicate(self, news_graph):
        keyword = QueryVertex("k", "Keyword", AttrEquals("label", "politics"))
        assert vertex_satisfies(news_graph, "kw:politics", keyword)
        assert not vertex_satisfies(news_graph, "kw:sports", keyword)
        assert not vertex_satisfies(news_graph, "art1", keyword)
        assert not vertex_satisfies(news_graph, "missing", keyword)

    def test_edge_satisfies(self):
        query_edge = QueryEdge(0, "x", "y", "connectsTo", AttrEquals("port", 53))
        assert edge_satisfies(Edge(0, "a", "b", "connectsTo", 0.0, {"port": 53}), query_edge)
        assert not edge_satisfies(Edge(0, "a", "b", "connectsTo", 0.0, {"port": 80}), query_edge)
        assert not edge_satisfies(Edge(0, "a", "b", "ping", 0.0, {"port": 53}), query_edge)

    def test_edge_orientations_directed(self):
        directed = QueryEdge(0, "x", "y", "r", directed=True)
        orientations = list(edge_orientations(Edge(0, "a", "b", "r"), directed))
        assert orientations == [("a", "b")]

    def test_edge_orientations_undirected(self):
        undirected = QueryEdge(0, "x", "y", "r", directed=False)
        orientations = list(edge_orientations(Edge(0, "a", "b", "r"), undirected))
        assert ("a", "b") in orientations and ("b", "a") in orientations

    def test_edge_orientations_self_loop_not_duplicated(self):
        undirected = QueryEdge(0, "x", "y", "r", directed=False)
        orientations = list(edge_orientations(Edge(0, "a", "a", "r"), undirected))
        assert orientations == [("a", "a")]

    def test_vertex_candidates_uses_label_index(self, news_graph):
        article = QueryVertex("a", "Article")
        assert set(vertex_candidates(news_graph, article)) == {"art1", "art2", "art3"}
        anything = QueryVertex("v")
        assert len(list(vertex_candidates(news_graph, anything))) == news_graph.vertex_count()

    def test_count_label_candidates(self, news_graph):
        query = QueryBuilder("q").vertex("a", "Article").vertex("k", "Keyword").edge("a", "k", "mentions").build()
        edge = next(iter(query.edges()))
        assert count_label_candidates(news_graph, query, edge) == 3
        wildcard_query = QueryBuilder("w").edge("a", "k").build()
        wildcard_edge = next(iter(wildcard_query.edges()))
        assert count_label_candidates(news_graph, wildcard_query, wildcard_edge) == news_graph.edge_count()

