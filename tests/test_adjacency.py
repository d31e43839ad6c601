"""Tests for the label-aware adjacency of the property graph store."""

import pytest

from repro.graph import Direction, EdgeNotFoundError, PropertyGraph


def ids(edges):
    return [edge.id for edge in edges]


@pytest.fixture
def index_with_edges():
    graph = PropertyGraph()
    for source, target, label, timestamp in [
        ("a", "b", "link", 1.0),
        ("a", "c", "link", 2.0),
        ("a", "b", "flow", 3.0),
        ("b", "a", "link", 4.0),
    ]:
        graph.add_edge(source, target, label, timestamp, source_label="node", target_label="node")
    return graph, list(graph.edges())


class TestAddAndQuery:
    def test_out_edges_by_label(self, index_with_edges):
        graph, _ = index_with_edges
        assert ids(graph.incident_edges("a", Direction.OUT, "link")) == [0, 1]
        assert ids(graph.incident_edges("a", Direction.OUT, "flow")) == [2]

    def test_in_edges(self, index_with_edges):
        graph, _ = index_with_edges
        # label slots in first-use order: link (edge 0), then flow (edge 2)
        assert ids(graph.incident_edges("b", Direction.IN)) == [0, 2]
        assert ids(graph.incident_edges("a", Direction.IN)) == [3]

    def test_both_directions(self, index_with_edges):
        graph, _ = index_with_edges
        assert ids(graph.incident_edges("a", Direction.BOTH)) == [0, 1, 2, 3]

    def test_label_filter_with_no_hits(self, index_with_edges):
        graph, _ = index_with_edges
        assert list(graph.incident_edges("a", Direction.OUT, "nope")) == []

    def test_unknown_vertex_yields_nothing(self, index_with_edges):
        graph, _ = index_with_edges
        assert list(graph.incident_edges("zzz", Direction.BOTH)) == []

    def test_degrees(self, index_with_edges):
        graph, _ = index_with_edges
        assert graph.degree("a") == 4
        assert graph.out_degree("a") == 3
        assert graph.in_degree("a") == 1
        assert graph.degree("c") == 1
        assert graph.degree("unknown") == 0

    def test_labels_at(self, index_with_edges):
        graph, _ = index_with_edges
        assert {e.label for e in graph.incident_edges("a", Direction.OUT)} == {"link", "flow"}
        assert {e.label for e in graph.incident_edges("c")} == {"link"}

    def test_contains_and_len(self, index_with_edges):
        graph, _ = index_with_edges
        assert "a" in graph and "b" in graph and "c" in graph
        assert len(graph) == 3
        assert set(graph.vertex_ids()) == {"a", "b", "c"}


class TestRemoval:
    def test_remove_edge_updates_degree_and_lookup(self, index_with_edges):
        graph, edges = index_with_edges
        graph.remove_edge(edges[0].id)
        assert ids(graph.incident_edges("a", Direction.OUT, "link")) == [1]
        assert graph.degree("a") == 3
        assert graph.degree("b") == 2

    def test_remove_all_edges_of_vertex_removes_vertex(self, index_with_edges):
        graph, edges = index_with_edges
        graph.remove_edge(edges[1].id)
        assert graph.degree("c") == 0
        assert graph.remove_isolated_vertex("c")
        assert "c" not in graph

    def test_remove_edge_twice_is_harmless(self, index_with_edges):
        graph, edges = index_with_edges
        graph.remove_edge(edges[0].id)
        before = graph.state_dict()
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(edges[0].id)
        assert not graph.discard_edge(edges[0])
        assert graph.state_dict() == before
        assert graph.degree("b") == 2

    def test_remove_vertex_drops_its_slots(self, index_with_edges):
        graph, _ = index_with_edges
        graph.remove_vertex("a")
        assert "a" not in graph
        assert list(graph.incident_edges("a", Direction.BOTH)) == []
        assert list(graph.incident_edges("b", Direction.BOTH)) == []
        assert graph.edge_count() == 0

    def test_clear(self, index_with_edges):
        graph, _ = index_with_edges
        graph.clear()
        assert len(graph) == 0
        assert graph.degree("a") == 0


class TestSelfLoops:
    def test_self_loop_counts_twice_in_degree(self):
        graph = PropertyGraph()
        graph.add_edge("x", "x", "self", 1.0, edge_id=7, source_label="node")
        assert graph.degree("x") == 2
        assert ids(graph.incident_edges("x", Direction.OUT)) == [7]
        assert ids(graph.incident_edges("x", Direction.IN)) == [7]

    def test_self_loop_removal(self):
        graph = PropertyGraph()
        graph.add_edge("x", "x", "self", 1.0, edge_id=7, source_label="node")
        graph.remove_edge(7)
        assert graph.degree("x") == 0
