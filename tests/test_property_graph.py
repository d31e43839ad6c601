"""Tests for the in-memory property graph store."""

import pytest

from repro.graph import (
    Direction,
    DuplicateEdgeError,
    DuplicateVertexError,
    EdgeNotFoundError,
    PropertyGraph,
    VertexNotFoundError,
)


class TestVertices:
    def test_add_and_lookup(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "Host", {"os": "linux"})
        assert graph.has_vertex("a")
        assert graph.vertex("a").label == "Host"
        assert graph.vertex_count() == 1

    def test_re_add_same_label_merges_attrs(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "Host", {"os": "linux"})
        graph.add_vertex("a", "Host", {"dc": "eu"})
        assert graph.vertex("a").attrs == {"os": "linux", "dc": "eu"}
        assert graph.vertex_count() == 1

    def test_re_add_with_different_label_raises(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "Host")
        with pytest.raises(DuplicateVertexError):
            graph.add_vertex("a", "Server")

    def test_missing_vertex_raises(self):
        graph = PropertyGraph()
        with pytest.raises(VertexNotFoundError):
            graph.vertex("ghost")

    def test_vertices_by_label(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "Host")
        graph.add_vertex("b", "Host")
        graph.add_vertex("u", "User")
        assert {v.id for v in graph.vertices("Host")} == {"a", "b"}
        assert graph.vertex_count("Host") == 2
        assert graph.vertex_count("User") == 1
        assert graph.vertex_labels() == {"Host", "User"}

    def test_remove_vertex_removes_incident_edges(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "Host")
        graph.add_vertex("b", "Host")
        graph.add_edge("a", "b", "link", 1.0)
        graph.remove_vertex("a")
        assert not graph.has_vertex("a")
        assert graph.edge_count() == 0
        assert graph.degree("b") == 0

    def test_remove_isolated_vertex_only_removes_edgeless_stored_vertices(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "Host")
        graph.add_vertex("b", "Host")
        graph.add_vertex("u", "User")
        edge = graph.add_edge("a", "b", "link", 1.0)
        assert not graph.remove_isolated_vertex("a")  # still has an edge
        assert not graph.remove_isolated_vertex("ghost")  # never stored
        assert graph.remove_isolated_vertex("u")
        assert not graph.has_vertex("u")
        assert graph.vertex_labels() == {"Host"}  # the emptied label bucket went too
        graph.remove_edge(edge.id)
        assert graph.remove_isolated_vertex("a") and graph.remove_isolated_vertex("b")
        assert not graph.remove_isolated_vertex("a")  # a self loop names its vertex twice
        assert graph.vertex_count() == 0 and graph.vertex_labels() == set()
        # the vertex can come back with a different label afterwards
        graph.add_vertex("a", "User")
        assert graph.vertex("a").label == "User" and graph.degree("a") == 0


class TestEdges:
    def test_add_edge_requires_existing_endpoints(self):
        graph = PropertyGraph()
        with pytest.raises(VertexNotFoundError):
            graph.add_edge("a", "b", "link")

    def test_add_edge_creates_endpoints_when_labels_supplied(self):
        graph = PropertyGraph()
        edge = graph.add_edge("a", "b", "link", 1.0, source_label="Host", target_label="Host")
        assert graph.has_vertex("a") and graph.has_vertex("b")
        assert graph.edge(edge.id).label == "link"

    def test_edge_ids_are_monotone(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "H")
        graph.add_vertex("b", "H")
        first = graph.add_edge("a", "b", "link")
        second = graph.add_edge("a", "b", "link")
        assert second.id == first.id + 1

    def test_explicit_edge_id_collision_raises(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "H")
        graph.add_vertex("b", "H")
        graph.add_edge("a", "b", "link", edge_id=5)
        with pytest.raises(DuplicateEdgeError):
            graph.add_edge("a", "b", "link", edge_id=5)

    def test_parallel_edges_are_allowed(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "H")
        graph.add_vertex("b", "H")
        graph.add_edge("a", "b", "flow", 1.0)
        graph.add_edge("a", "b", "flow", 2.0)
        assert graph.edge_count() == 2
        assert len(graph.edges_between("a", "b", "flow")) == 2

    def test_edges_by_label(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "H")
        graph.add_vertex("b", "H")
        graph.add_edge("a", "b", "link")
        graph.add_edge("b", "a", "flow")
        assert graph.edge_count("link") == 1
        assert graph.edge_labels() == {"link", "flow"}
        assert {e.label for e in graph.edges("flow")} == {"flow"}

    def test_remove_edge(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "H")
        graph.add_vertex("b", "H")
        edge = graph.add_edge("a", "b", "link")
        graph.remove_edge(edge.id)
        assert graph.edge_count() == 0
        with pytest.raises(EdgeNotFoundError):
            graph.edge(edge.id)
        assert graph.degree("a") == 0

    def test_edges_between_undirected_option(self):
        graph = PropertyGraph()
        graph.add_vertex("a", "H")
        graph.add_vertex("b", "H")
        graph.add_edge("b", "a", "link")
        assert graph.edges_between("a", "b", "link") == []
        assert len(graph.edges_between("a", "b", "link", directed=False)) == 1


class TestAdjacencyQueries:
    def test_incident_edges_direction_and_label(self, triangle_graph):
        out_edges = list(triangle_graph.incident_edges("a", Direction.OUT))
        in_edges = list(triangle_graph.incident_edges("a", Direction.IN))
        assert len(out_edges) == 1 and out_edges[0].target == "b"
        assert len(in_edges) == 1 and in_edges[0].source == "c"
        assert len(list(triangle_graph.incident_edges("a", Direction.BOTH, "link"))) == 2

    def test_neighbors(self, triangle_graph):
        assert triangle_graph.neighbors("a") == {"b", "c"}
        assert triangle_graph.neighbors("a", Direction.OUT) == {"b"}

    def test_degrees(self, triangle_graph):
        assert triangle_graph.degree("a") == 2
        assert triangle_graph.out_degree("a") == 1
        assert triangle_graph.in_degree("a") == 1


class TestWholeGraphOperations:
    def test_subgraph_extraction(self, triangle_graph):
        edge_ids = [edge.id for edge in triangle_graph.edges()][:2]
        sub = triangle_graph.subgraph(edge_ids)
        assert sub.edge_count() == 2
        assert sub.vertex_count() <= 3
        for edge_id in edge_ids:
            assert sub.has_edge(edge_id)

    def test_copy_is_deep_for_structure(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.add_vertex("z", "Host")
        clone.add_edge("z", "a", "link")
        assert not triangle_graph.has_vertex("z")
        assert triangle_graph.edge_count() == 3
        assert clone.edge_count() == 4

    def test_clear(self, triangle_graph):
        triangle_graph.clear()
        assert triangle_graph.vertex_count() == 0
        assert triangle_graph.edge_count() == 0

    def test_len_and_contains(self, triangle_graph):
        assert len(triangle_graph) == 3
        assert "a" in triangle_graph
        assert "zzz" not in triangle_graph

    def test_to_networkx_round_trip_counts(self, triangle_graph):
        nx_graph = triangle_graph.to_networkx()
        assert nx_graph.number_of_nodes() == 3
        assert nx_graph.number_of_edges() == 3
