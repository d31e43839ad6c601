"""Tests for the sliding-window dynamic graph store."""

import pytest

from repro.graph import DynamicGraph, TimeWindow


class TestIngestion:
    def test_ingest_creates_vertices_and_edges(self):
        graph = DynamicGraph()
        edge = graph.ingest("a", "b", "link", 1.0, source_label="Host", target_label="Host")
        assert graph.has_vertex("a")
        assert graph.vertex("a").label == "Host"
        assert graph.has_edge(edge.id)
        assert graph.edge_count() == 1
        assert graph.edges_ingested == 1

    def test_current_time_tracks_max_timestamp(self):
        graph = DynamicGraph()
        graph.ingest("a", "b", "link", 5.0)
        graph.ingest("b", "c", "link", 3.0)
        assert graph.current_time == 5.0

    def test_vertex_attrs_merged_on_ingest(self):
        graph = DynamicGraph()
        graph.ingest("art", "kw", "mentions", 1.0, source_label="Article",
                     target_label="Keyword", target_attrs={"label": "politics"})
        assert graph.vertex("kw").attrs == {"label": "politics"}

    def test_out_of_order_tolerance_rejects_stale_edges(self):
        graph = DynamicGraph(out_of_order_tolerance=1.0)
        graph.ingest("a", "b", "link", 10.0)
        with pytest.raises(ValueError):
            graph.ingest("b", "c", "link", 5.0)
        # within tolerance is fine
        graph.ingest("b", "c", "link", 9.5)

    def test_ingest_many(self):
        from repro.graph.types import Edge

        graph = DynamicGraph()
        stored = graph.ingest_many([Edge(0, "a", "b", "link", 1.0), Edge(1, "b", "c", "link", 2.0)])
        assert len(stored) == 2
        assert graph.edge_count() == 2


class TestEviction:
    def test_edges_outside_window_are_evicted(self):
        graph = DynamicGraph(window=TimeWindow(10.0))
        graph.ingest("a", "b", "link", 0.0)
        graph.ingest("b", "c", "link", 5.0)
        assert graph.edge_count() == 2
        graph.ingest("c", "d", "link", 10.0)  # strict window: the t=0 edge expires
        assert graph.edge_count() == 2
        assert graph.edges_evicted == 1

    def test_isolated_vertices_are_evicted_with_their_last_edge(self):
        graph = DynamicGraph(window=TimeWindow(5.0))
        graph.ingest("a", "b", "link", 0.0)
        graph.ingest("c", "d", "link", 100.0)
        assert not graph.has_vertex("a")
        assert not graph.has_vertex("b")
        assert graph.vertex_count() == 2

    def test_eviction_leaves_the_store_as_vertex_removal_would(self):
        """The eviction path removes isolated endpoints directly; the result
        (vertices, label buckets, adjacency, snapshot) must be what the
        cascading ``remove_vertex`` leaves behind."""
        def stream(graph):
            graph.ingest("a", "a", "loop", 0.0, source_label="Host", target_label="Host")
            graph.ingest("a", "b", "link", 0.5, source_label="Host", target_label="User")
            graph.ingest("b", "c", "link", 3.0, source_label="User", target_label="Host")
            graph.ingest("c", "d", "link", 7.0, source_label="Host", target_label="Host")

        fast = DynamicGraph(window=TimeWindow(5.0))
        stream(fast)
        slow = DynamicGraph(window=TimeWindow(5.0), evict_isolated_vertices=False)
        stream(slow)
        for vertex in [v.id for v in slow.vertices() if slow.degree(v.id) == 0]:
            slow.graph.remove_vertex(vertex)
        assert fast.edges_evicted == slow.edges_evicted == 2
        assert {v.id for v in fast.vertices()} == {"b", "c", "d"}
        assert fast.graph.state_dict() == slow.graph.state_dict()
        assert fast.graph.vertex_labels() == {"User", "Host"}

    def test_isolated_vertex_retention_can_be_disabled(self):
        graph = DynamicGraph(window=TimeWindow(5.0), evict_isolated_vertices=False)
        graph.ingest("a", "b", "link", 0.0)
        graph.ingest("c", "d", "link", 100.0)
        assert graph.has_vertex("a")
        assert graph.edge_count() == 1

    def test_unbounded_window_never_evicts(self):
        graph = DynamicGraph()
        graph.ingest("a", "b", "link", 0.0)
        graph.ingest("c", "d", "link", 1e9)
        assert graph.edge_count() == 2
        assert graph.edges_evicted == 0

    def test_ingest_evicts_the_expired_edge_and_its_endpoints(self):
        graph = DynamicGraph(window=TimeWindow(5.0))
        graph.ingest("a", "b", "link", 0.0)
        graph.ingest("c", "d", "link", 50.0)
        assert graph.edges_evicted == 1
        assert [edge.source for edge in graph.edges()] == ["c"]
        assert not graph.has_vertex("a") and not graph.has_vertex("b")

    def test_vertex_shared_by_live_edge_survives_eviction(self):
        graph = DynamicGraph(window=TimeWindow(10.0))
        graph.ingest("a", "b", "link", 0.0)
        graph.ingest("a", "c", "link", 8.0)
        graph.ingest("d", "e", "link", 12.0)  # evicts the t=0 edge only
        assert graph.has_vertex("a")  # still incident to the t=8 edge
        assert not graph.has_vertex("b")


class TestReadApi:
    def test_snapshot_is_independent(self):
        graph = DynamicGraph()
        graph.ingest("a", "b", "link", 1.0)
        snapshot = graph.snapshot()
        graph.ingest("b", "c", "link", 2.0)
        assert snapshot.edge_count() == 1
        assert graph.edge_count() == 2

    def test_delegated_queries(self, windowed_dynamic_graph):
        graph = windowed_dynamic_graph
        graph.ingest("a", "b", "link", 1.0, source_label="Host", target_label="Host")
        assert graph.vertex_count() == 2
        assert graph.degree("a") == 1
        assert len(list(graph.incident_edges("a"))) == 1
        assert len(list(graph.edges("link"))) == 1
        assert len(list(graph.vertices("Host"))) == 2
