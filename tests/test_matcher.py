"""Tests for the incremental continuous-query matcher (paper section 4.2)."""

import pytest

from repro.core.decomposition import Strategy, decompose
from repro.core.matcher import ContinuousQueryMatcher
from repro.graph import DynamicGraph, TimeWindow
from repro.isomorphism import SubgraphMatcher
from repro.query import QueryBuilder
from repro.queries.news import common_topic_location_query


def build_matcher(query, window=None, strategy=Strategy.EDGE_BY_EDGE, dedupe=False,
                  graph=None):
    graph = graph if graph is not None else DynamicGraph(
        TimeWindow(window) if window else TimeWindow(None)
    )
    decomposition = decompose(query, strategy)
    matcher = ContinuousQueryMatcher(
        query, decomposition, graph,
        TimeWindow(window) if window else TimeWindow(None),
        dedupe_structural=dedupe,
    )
    return graph, matcher


def ingest(graph, source, target, label, timestamp, src_label="node", dst_label="node"):
    return graph.ingest(source, target, label, timestamp,
                        source_label=src_label, target_label=dst_label)


def random_article_edges(graph, count, seed=3):
    """Ingest and yield a random alternating mentions / locatedIn stream."""
    import random

    rng = random.Random(seed)
    timestamp = 0.0
    for index in range(count):
        timestamp += rng.random()
        article = f"art{rng.randrange(6)}"
        if index % 2 == 0:
            yield ingest(graph, article, f"kw{rng.randrange(2)}", "mentions", timestamp, "Article", "Keyword")
        else:
            yield ingest(graph, article, f"loc{rng.randrange(2)}", "locatedIn", timestamp, "Article", "Location")


class TestBasicIncrementalMatching:
    def test_match_reported_exactly_when_last_edge_arrives(self, pair_query):
        graph, matcher = build_matcher(pair_query)
        results = []
        results.append(matcher.process_edge(ingest(graph, "art1", "kw", "mentions", 1.0, "Article", "Keyword")))
        results.append(matcher.process_edge(ingest(graph, "art1", "loc", "locatedIn", 2.0, "Article", "Location")))
        results.append(matcher.process_edge(ingest(graph, "art2", "kw", "mentions", 3.0, "Article", "Keyword")))
        assert all(not r for r in results)
        final = matcher.process_edge(ingest(graph, "art2", "loc", "locatedIn", 4.0, "Article", "Location"))
        # two automorphic bindings (a1/a2 swapped)
        assert len(final) == 2
        assert matcher.stats.complete_matches == 2

    def test_no_duplicate_reports_for_same_isomorphism(self, pair_query):
        graph, matcher = build_matcher(pair_query)
        edges = [
            ("art1", "kw", "mentions", 1.0, "Article", "Keyword"),
            ("art1", "loc", "locatedIn", 2.0, "Article", "Location"),
            ("art2", "kw", "mentions", 3.0, "Article", "Keyword"),
            ("art2", "loc", "locatedIn", 4.0, "Article", "Location"),
        ]
        all_matches = []
        for record in edges:
            all_matches.extend(matcher.process_edge(ingest(graph, *record)))
        identities = [match.identity() for match in all_matches]
        assert len(identities) == len(set(identities))

    def test_structural_dedupe_collapses_automorphisms(self, pair_query):
        graph, matcher = build_matcher(pair_query, dedupe=True)
        for record in [
            ("art1", "kw", "mentions", 1.0, "Article", "Keyword"),
            ("art1", "loc", "locatedIn", 2.0, "Article", "Location"),
            ("art2", "kw", "mentions", 3.0, "Article", "Keyword"),
        ]:
            matcher.process_edge(ingest(graph, *record))
        final = matcher.process_edge(ingest(graph, "art2", "loc", "locatedIn", 4.0, "Article", "Location"))
        assert len(final) == 1
        assert matcher.stats.duplicate_matches_suppressed >= 1

    def test_single_edge_query(self):
        query = QueryBuilder("q").vertex("x", "IP").vertex("y", "IP").edge("x", "y", "connectsTo").build()
        graph, matcher = build_matcher(query)
        out = matcher.process_edge(ingest(graph, "a", "b", "connectsTo", 1.0, "IP", "IP"))
        assert len(out) == 1
        out2 = matcher.process_edge(ingest(graph, "a", "b", "connectsTo", 2.0, "IP", "IP"))
        assert len(out2) == 1  # parallel edge is a distinct match

    def test_irrelevant_edges_do_no_harm(self, pair_query):
        graph, matcher = build_matcher(pair_query)
        out = matcher.process_edge(ingest(graph, "u", "h", "loginTo", 1.0, "User", "IP"))
        assert out == []
        assert matcher.stats.leaf_matches_found == 0


class TestWindowSemantics:
    def test_window_blocks_slow_patterns(self, pair_query):
        graph, matcher = build_matcher(pair_query, window=10.0)
        for record in [
            ("art1", "kw", "mentions", 0.0, "Article", "Keyword"),
            ("art1", "loc", "locatedIn", 1.0, "Article", "Location"),
            ("art2", "kw", "mentions", 2.0, "Article", "Keyword"),
        ]:
            matcher.process_edge(ingest(graph, *record))
        # final edge arrives 50s later: span would be 50 > 10
        final = matcher.process_edge(ingest(graph, "art2", "loc", "locatedIn", 50.0, "Article", "Location"))
        assert final == []

    def test_partial_matches_expire(self, pair_query):
        graph, matcher = build_matcher(pair_query, window=10.0)
        matcher.process_edge(ingest(graph, "art1", "kw", "mentions", 0.0, "Article", "Keyword"))
        matcher.process_edge(ingest(graph, "art1", "loc", "locatedIn", 1.0, "Article", "Location"))
        assert matcher.stored_partial_matches() > 0
        # far-future edge forces expiry of everything old
        matcher.process_edge(ingest(graph, "x", "y", "connectsTo", 1000.0, "IP", "IP"))
        assert matcher.stats.partial_matches_expired > 0

    def test_reported_spans_always_below_window(self, pair_query):
        window = 5.0
        graph, matcher = build_matcher(pair_query, window=window)
        reported = []
        for edge in random_article_edges(graph, 120):
            reported.extend(matcher.process_edge(edge))
        assert reported, "expected at least one match in the random stream"
        assert all(match.span < window for match in reported)


class TestEquivalenceWithOracle:
    @pytest.mark.parametrize("strategy", [Strategy.EDGE_BY_EDGE, Strategy.SELECTIVITY, Strategy.BALANCED_PAIRS])
    def test_incremental_equals_static_search_unbounded_window(self, strategy):
        import random

        query = common_topic_location_query(2)
        graph = DynamicGraph(TimeWindow(None))
        decomposition = decompose(query, strategy)
        matcher = ContinuousQueryMatcher(query, decomposition, graph, TimeWindow(None))
        rng = random.Random(11)
        incremental = []
        timestamp = 0.0
        for index in range(80):
            timestamp += 1.0
            article = f"art{index}"
            keyword = f"kw{rng.randrange(3)}"
            location = f"loc{rng.randrange(2)}"
            incremental.extend(matcher.process_edge(
                ingest(graph, article, keyword, "mentions", timestamp, "Article", "Keyword")))
            incremental.extend(matcher.process_edge(
                ingest(graph, article, location, "locatedIn", timestamp + 0.1, "Article", "Location")))
        oracle = SubgraphMatcher(graph).find_all(query)
        assert {m.identity() for m in incremental} == {m.identity() for m in oracle}

    def test_all_strategies_report_identical_match_sets(self):
        import random

        query = common_topic_location_query(2)
        rng = random.Random(7)
        records = []
        timestamp = 0.0
        for index in range(60):
            timestamp += 1.0
            article = f"art{index}"
            records.append((article, f"kw{rng.randrange(3)}", "mentions", timestamp, "Article", "Keyword"))
            records.append((article, f"loc{rng.randrange(2)}", "locatedIn", timestamp + 0.1, "Article", "Location"))

        results = {}
        for strategy in (Strategy.EDGE_BY_EDGE, Strategy.SELECTIVITY, Strategy.ANTI_SELECTIVE, Strategy.BALANCED_PAIRS):
            graph, matcher = build_matcher(query, window=30.0, strategy=strategy)
            found = []
            for record in records:
                found.extend(matcher.process_edge(ingest(graph, *record)))
            results[strategy] = {match.identity() for match in found}
        reference = results[Strategy.EDGE_BY_EDGE]
        assert all(result == reference for result in results.values())


class TestIntrospection:
    def test_matched_edge_fraction_progresses(self, pair_query):
        graph, matcher = build_matcher(pair_query, strategy=Strategy.SELECTIVITY)
        assert matcher.matched_edge_fraction() == 0.0
        matcher.process_edge(ingest(graph, "art1", "kw", "mentions", 1.0, "Article", "Keyword"))
        matcher.process_edge(ingest(graph, "art1", "loc", "locatedIn", 2.0, "Article", "Location"))
        halfway = matcher.matched_edge_fraction()
        assert 0.0 < halfway < 1.0
        matcher.process_edge(ingest(graph, "art2", "kw", "mentions", 3.0, "Article", "Keyword"))
        matcher.process_edge(ingest(graph, "art2", "loc", "locatedIn", 4.0, "Article", "Location"))
        assert matcher.matched_edge_fraction() == 1.0

    def test_node_progress_shape(self, pair_query):
        graph, matcher = build_matcher(pair_query, strategy=Strategy.SELECTIVITY)
        progress = matcher.node_progress()
        assert set(progress.keys()) == set(matcher.tree.nodes.keys())
        for entry in progress.values():
            assert 0.0 < entry["edge_fraction"] <= 1.0

    def test_reset_clears_state(self, pair_query):
        graph, matcher = build_matcher(pair_query)
        matcher.process_edge(ingest(graph, "art1", "kw", "mentions", 1.0, "Article", "Keyword"))
        assert matcher.stored_partial_matches() > 0
        matcher.reset()
        assert matcher.stored_partial_matches() == 0
        assert matcher.stats.edges_processed == 0

    def test_peak_follows_a_running_count_equal_to_the_recount(self, pair_query):
        graph, matcher = build_matcher(pair_query, window=5.0)
        peak = 0
        for edge in random_article_edges(graph, 120):
            found_before = matcher.stats.leaf_matches_found
            if matcher.process_edge(edge):
                # a re-planned matcher adopts the old root's history
                _, replanned = build_matcher(pair_query, window=5.0, graph=graph)
                replanned.adopt_complete_matches(matcher.tree.root.all_matches())
                assert replanned._tree_stored == matcher.tree.root.match_count() > 0
            assert matcher._tree_stored == matcher.tree.total_stored_matches()
            if matcher.stats.leaf_matches_found > found_before:
                peak = max(peak, matcher.tree.total_stored_matches())
        assert matcher.stats.partial_matches_expired > 0
        assert matcher.stats.peak_stored_matches == peak > 0

        # a restored matcher recounts
        _, restored = build_matcher(pair_query, window=5.0, graph=graph)
        restored.load_state(matcher.state_dict())
        assert restored._tree_stored == matcher._tree_stored > 0
        matcher.reset()
        assert matcher._tree_stored == 0

    def test_stats_to_dict_keys(self, pair_query):
        graph, matcher = build_matcher(pair_query)
        payload = matcher.stats.to_dict()
        assert "complete_matches" in payload and "peak_stored_matches" in payload
