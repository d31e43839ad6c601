"""Tests for degree distributions, label distributions and signature counts."""

import pytest

from repro.graph import DynamicGraph, TimeWindow
from repro.graph.types import Edge
from repro.stats import StreamSummarizer
from repro.stats.degree import DegreeDistribution
from repro.stats.labels import LabelDistribution, SignatureDistribution


class TestDegreeDistribution:
    def test_empty_distribution(self):
        dist = DegreeDistribution()
        assert dist.mean() == 0.0
        assert dist.max() == 0
        assert dist.percentile(0.5) == 0
        assert dist.vertex_count == 0

    def test_basic_statistics(self):
        dist = DegreeDistribution([1, 1, 2, 4])
        assert dist.vertex_count == 4
        assert dist.mean() == pytest.approx(2.0)
        assert dist.max() == 4
        assert dist.min() == 1
        assert dist.total_degree == 8
        assert dist.histogram() == {1: 2, 2: 1, 4: 1}

    def test_percentiles(self):
        dist = DegreeDistribution([1, 2, 3, 4, 100])
        assert dist.percentile(0.0) == 1
        assert dist.percentile(0.5) == 3
        assert dist.percentile(1.0) == 100
        with pytest.raises(ValueError):
            dist.percentile(1.5)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            DegreeDistribution([-1])

    def test_variance_and_skew(self):
        uniform = DegreeDistribution([2, 2, 2, 2])
        assert uniform.variance() == pytest.approx(0.0)
        assert uniform.skew_ratio() == pytest.approx(1.0)
        skewed = DegreeDistribution([1] * 99 + [1000])
        assert skewed.skew_ratio() > 50

    def test_power_law_exponent_needs_data(self):
        assert DegreeDistribution([1, 2, 3]).power_law_exponent() is None
        heavy = DegreeDistribution([1] * 80 + [2] * 15 + [10] * 4 + [100])
        exponent = heavy.power_law_exponent()
        assert exponent is not None and exponent > 1.0

    def test_from_graph(self, triangle_graph):
        dist = DegreeDistribution.from_graph(triangle_graph)
        assert dist.vertex_count == 3
        assert dist.mean() == pytest.approx(2.0)

    def test_to_dict_keys(self):
        payload = DegreeDistribution([1, 2]).to_dict()
        assert {"vertex_count", "mean", "max", "p50", "p90", "p99", "skew_ratio"} <= set(payload)


class TestWindowDegrees:
    """The summarizer's degrees are the window store's live vertex degrees."""

    @staticmethod
    def summarize(window, edges):
        graph = DynamicGraph(TimeWindow(window))
        for source, target, timestamp in edges:
            graph.ingest(source, target, "link", timestamp)
        return graph, StreamSummarizer(graph).summary().degrees

    def test_degrees_follow_eviction(self):
        graph, degrees = self.summarize(5.0, [("a", "b", 0.0), ("a", "c", 1.0), ("c", "d", 9.0)])
        # a-b aged out, and so did a-c: only c-d is live
        assert graph.edge_count() == 1
        assert degrees.histogram() == {1: 2}

    def test_a_self_loop_counts_twice(self):
        _, degrees = self.summarize(None, [("a", "a", 0.0), ("a", "b", 1.0)])
        assert degrees.histogram() == {3: 1, 1: 1}
        assert degrees.total_degree == 4

    def test_distribution_equals_the_one_read_from_the_graph(self):
        graph, degrees = self.summarize(None, [("hub", f"leaf{i}", float(i)) for i in range(5)])
        assert degrees.histogram() == DegreeDistribution.from_graph(graph).histogram() == {5: 1, 1: 5}


class TestLabelDistribution:
    def test_observe_count_frequency(self):
        dist = LabelDistribution()
        dist.observe("connectsTo", 3)
        dist.observe("loginTo")
        assert dist.count("connectsTo") == 3
        assert dist.total() == 4
        assert dist.frequency("connectsTo") == pytest.approx(0.75)
        assert dist.frequency("missing") == 0.0

    def test_retract_floors_at_zero(self):
        dist = LabelDistribution({"x": 1})
        dist.retract("x")
        dist.retract("x")
        assert dist.count("x") == 0
        assert len(dist) == 0

    def test_most_common_and_rarest(self):
        dist = LabelDistribution({"a": 5, "b": 1, "c": 3})
        assert dist.most_common(1) == [("a", 5)]
        assert dist.rarest(1) == [("b", 1)]

    def test_empty_frequency(self):
        assert LabelDistribution().frequency("x") == 0.0


class TestSignatureDistribution:
    def test_exact_and_wildcard_counts(self):
        dist = SignatureDistribution()
        dist.observe("IP", "connectsTo", "IP", 4)
        dist.observe("User", "loginTo", "IP", 2)
        dist.observe("IP", "resolvesTo", "Domain", 1)
        assert dist.count(("IP", "connectsTo", "IP")) == 4
        assert dist.count((None, "connectsTo", None)) == 4
        assert dist.count((None, None, "IP")) == 6
        assert dist.count((None, None, None)) == 7
        assert dist.total() == 7

    def test_observe_edge_helper(self):
        dist = SignatureDistribution()
        dist.observe_edge(Edge(0, "a", "kw", "mentions", 0.0), "Article", "Keyword")
        assert dist.count(("Article", "mentions", "Keyword")) == 1

    def test_retract(self):
        dist = SignatureDistribution()
        dist.observe("A", "r", "B", 2)
        dist.retract("A", "r", "B")
        assert dist.count(("A", "r", "B")) == 1
        dist.retract("A", "r", "B", 5)
        assert dist.count(("A", "r", "B")) == 0

    def test_frequency_and_serialisation(self):
        dist = SignatureDistribution()
        dist.observe("A", "r", "B", 3)
        dist.observe("A", "s", "B", 1)
        assert dist.frequency(("A", "r", "B")) == pytest.approx(0.75)
        assert dist.to_dict() == {"A|r|B": 3, "A|s|B": 1}
