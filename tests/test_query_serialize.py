"""Tests for query graph (de)serialisation."""

import pytest

from repro.isomorphism import SubgraphMatcher
from repro.queries.cyber import CYBER_QUERIES, data_exfiltration_query
from repro.queries.news import NEWS_QUERIES
from repro.query import QueryBuilder
from repro.query.predicates import (
    And,
    AttrCompare,
    AttrEquals,
    AttrExists,
    AttrIn,
    AttrRange,
    CustomPredicate,
    Not,
    Or,
    TruePredicate,
    always_true,
)
from repro.query.serialize import (
    QuerySerializationError,
    predicate_from_dict,
    predicate_to_dict,
    query_from_dict,
    query_from_json,
    query_to_dict,
    query_to_json,
)


SAMPLE_ATTRS = [
    {"port": 445, "bytes": 2_000_000, "external": True, "proto": "tcp"},
    {"port": 80, "bytes": 10, "external": False, "proto": "udp"},
    {"bytes": 5_000_000},
    {},
]


class TestPredicateRoundTrip:
    @pytest.mark.parametrize("predicate", [
        AttrEquals("port", 445),
        AttrIn("proto", ["tcp", "udp"]),
        AttrRange("bytes", low=100, high=1_000_000, high_exclusive=True),
        AttrExists("external"),
        AttrCompare("bytes", ">=", 1_000_000),
        AttrEquals("external", True) & AttrCompare("bytes", ">", 100),
        Or([AttrEquals("proto", "tcp"), AttrEquals("proto", "udp")]),
        Not(AttrEquals("port", 80)),
    ])
    def test_round_trip_preserves_semantics(self, predicate):
        rebuilt = predicate_from_dict(predicate_to_dict(predicate))
        for attrs in SAMPLE_ATTRS:
            assert rebuilt(attrs) == predicate(attrs)

    def test_custom_predicate_rejected(self):
        with pytest.raises(QuerySerializationError):
            predicate_to_dict(CustomPredicate(lambda attrs: True))

    def test_unknown_type_rejected(self):
        with pytest.raises(QuerySerializationError):
            predicate_from_dict({"type": "martian"})


#: One instance of EVERY predicate type constructible through QueryBuilder
#: (explicit ``predicate=`` argument, the ``attrs=`` shorthand, and operator
#: composition), exercising each type's edge cases.  Persistence relies on
#: queries round-tripping, so every one of these must survive
#: ``predicate_from_dict(predicate_to_dict(p))`` semantically intact.
BUILDER_CONSTRUCTIBLE_PREDICATES = [
    pytest.param(always_true, id="true-shared-instance"),
    pytest.param(TruePredicate(), id="true-fresh-instance"),
    pytest.param(AttrEquals("proto", "tcp"), id="equals-str"),
    pytest.param(AttrEquals("port", 445), id="equals-int"),
    pytest.param(AttrEquals("external", False), id="equals-bool"),
    pytest.param(AttrEquals("ratio", 0.25), id="equals-float"),
    pytest.param(AttrEquals("maybe", None), id="equals-none"),
    pytest.param(AttrIn("proto", ["tcp"]), id="in-single"),
    pytest.param(AttrIn("port", [80, 443, 445]), id="in-ints"),
    pytest.param(AttrIn("port", [80, "8080", None]), id="in-mixed-types"),
    pytest.param(AttrRange("bytes", low=100), id="range-low-only"),
    pytest.param(AttrRange("bytes", high=1_000_000), id="range-high-only"),
    pytest.param(AttrRange("bytes", low=100, high=100), id="range-degenerate"),
    pytest.param(
        AttrRange("bytes", low=10, high=2_000_000, low_exclusive=True), id="range-low-exclusive"
    ),
    pytest.param(
        AttrRange("bytes", low=10, high=2_000_000, high_exclusive=True), id="range-high-exclusive"
    ),
    pytest.param(
        AttrRange("ratio", low=0.1, high=0.9, low_exclusive=True, high_exclusive=True),
        id="range-both-exclusive",
    ),
    pytest.param(AttrExists("external"), id="exists"),
    pytest.param(AttrCompare("bytes", "==", 10), id="compare-eq"),
    pytest.param(AttrCompare("bytes", "!=", 10), id="compare-ne"),
    pytest.param(AttrCompare("bytes", "<", 100), id="compare-lt"),
    pytest.param(AttrCompare("bytes", "<=", 100), id="compare-le"),
    pytest.param(AttrCompare("bytes", ">", 100), id="compare-gt"),
    pytest.param(AttrCompare("bytes", ">=", 100), id="compare-ge"),
    pytest.param(And([]), id="and-empty"),
    pytest.param(And([AttrExists("port")]), id="and-single"),
    pytest.param(
        AttrEquals("proto", "tcp") & AttrCompare("bytes", ">", 100) & AttrExists("port"),
        id="and-operator-nested",
    ),
    pytest.param(Or([]), id="or-empty"),
    pytest.param(AttrEquals("proto", "tcp") | AttrEquals("proto", "udp"), id="or-operator"),
    pytest.param(~AttrEquals("port", 80), id="not-operator"),
    pytest.param(~(~AttrExists("port")), id="not-double"),
    pytest.param(
        Not(And([AttrIn("proto", ["tcp", "udp"]), Or([AttrRange("port", low=1024), AttrExists("external")])])),
        id="deep-composition",
    ),
]

EDGE_CASE_ATTRS = SAMPLE_ATTRS + [
    {"port": "8080"},
    {"maybe": None},
    {"ratio": 0.25, "bytes": 100, "port": 1024, "proto": "tcp"},
    {"bytes": "not-a-number"},
    # unhashable values: a malformed record must fail AttrIn, not raise
    {"proto": ["tcp"], "port": [80]},
    {"proto": {"name": "tcp"}, "port": {443}},
]


class TestBuilderPredicateCatalogueRoundTrip:
    @pytest.mark.parametrize("predicate", BUILDER_CONSTRUCTIBLE_PREDICATES)
    def test_every_builder_predicate_round_trips(self, predicate):
        payload = predicate_to_dict(predicate)
        rebuilt = predicate_from_dict(payload)
        for attrs in EDGE_CASE_ATTRS:
            assert rebuilt(attrs) == predicate(attrs), (
                f"{predicate.describe()} diverged after round-trip on {attrs!r}"
            )
        # the rebuilt predicate serialises to the same payload (stable form)
        assert predicate_to_dict(rebuilt) == payload
        # equality constraints drive planner selectivity: they must survive
        assert dict(rebuilt.equality_constraints()) == dict(predicate.equality_constraints())

    @pytest.mark.parametrize("predicate", BUILDER_CONSTRUCTIBLE_PREDICATES)
    def test_predicates_round_trip_inside_built_queries(self, predicate):
        """The same catalogue, carried on a builder-built query's vertex AND
        edge, through the full query (de)serialisation path."""
        query = (
            QueryBuilder("catalogue")
            .vertex("a", "Host", predicate=predicate)
            .vertex("b", "Host")
            .edge("a", "b", "link", predicate=predicate)
            .build()
        )
        rebuilt = query_from_dict(query_to_dict(query))
        for attrs in EDGE_CASE_ATTRS:
            assert rebuilt.vertex("a").predicate(attrs) == predicate(attrs)
            edge = next(iter(rebuilt.edges()))
            assert edge.predicate(attrs) == predicate(attrs)

    def test_builder_attrs_shorthand_round_trips(self):
        """``attrs=`` shorthand (AttrEquals conjunction) plus explicit predicate."""
        query = (
            QueryBuilder("shorthand")
            .vertex("a", "IP", attrs={"country": "US", "asn": 64512})
            .vertex("b", "IP")
            .edge(
                "a",
                "b",
                "connectsTo",
                attrs={"proto": "tcp"},
                predicate=AttrCompare("bytes", ">=", 1_000),
            )
            .build()
        )
        rebuilt = query_from_dict(query_to_dict(query))
        vertex_predicate = rebuilt.vertex("a").predicate
        assert vertex_predicate({"country": "US", "asn": 64512})
        assert not vertex_predicate({"country": "US", "asn": 1})
        edge_predicate = next(iter(rebuilt.edges())).predicate
        assert edge_predicate({"proto": "tcp", "bytes": 1_000})
        assert not edge_predicate({"proto": "tcp", "bytes": 999})
        assert not edge_predicate({"proto": "udp", "bytes": 5_000})
        assert dict(edge_predicate.equality_constraints()) == {"proto": "tcp"}

    def test_undirected_edge_predicate_round_trips(self):
        query = (
            QueryBuilder("undirected")
            .vertex("a", "Host")
            .vertex("b", "Host")
            .undirected_edge("a", "b", "peers", predicate=AttrExists("weight"))
            .build()
        )
        rebuilt = query_from_dict(query_to_dict(query))
        edge = next(iter(rebuilt.edges()))
        assert edge.directed is False
        assert edge.predicate({"weight": 3}) and not edge.predicate({})


class TestQueryRoundTrip:
    @pytest.mark.parametrize("constructor", list(CYBER_QUERIES.values()) + list(NEWS_QUERIES.values()))
    def test_catalogue_queries_round_trip_structurally(self, constructor):
        query = constructor()
        rebuilt = query_from_dict(query_to_dict(query))
        assert rebuilt.name == query.name
        assert rebuilt.vertex_names() == query.vertex_names()
        assert rebuilt.edge_ids() == query.edge_ids()
        for edge in query.edges():
            clone = rebuilt.edge(edge.id)
            assert (clone.source, clone.target, clone.label, clone.directed) == (
                edge.source, edge.target, edge.label, edge.directed,
            )

    def test_round_trip_preserves_matching_behaviour(self, news_graph):
        query = (
            QueryBuilder("politics_pair")
            .vertex("k", "Keyword", attrs={"label": "politics"})
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .edge("a1", "k", "mentions")
            .edge("a2", "k", "mentions")
            .build()
        )
        rebuilt = query_from_json(query_to_json(query))
        original = {m.identity() for m in SubgraphMatcher(news_graph).find_all(query)}
        reloaded = {m.identity() for m in SubgraphMatcher(news_graph).find_all(rebuilt)}
        assert original == reloaded and original

    def test_round_trip_preserves_edge_predicates(self, windowed_dynamic_graph):
        query = data_exfiltration_query(min_upload_bytes=1000)
        rebuilt = query_from_dict(query_to_dict(query))
        graph = windowed_dynamic_graph
        graph.ingest("u", "h1", "loginTo", 1.0, {"success": True}, "User", "IP")
        graph.ingest("h1", "srv", "connectsTo", 2.0, {}, "IP", "IP")
        graph.ingest("h1", "ext", "connectsTo", 3.0, {"external": True, "bytes": 999},
                     "IP", "IP")
        assert SubgraphMatcher(graph).find_all(rebuilt) == []
        graph.ingest("h1", "ext", "connectsTo", 4.0, {"external": True, "bytes": 1000},
                     "IP", "IP")
        assert len(SubgraphMatcher(graph).find_all(rebuilt)) >= 1

    def test_malformed_payloads_rejected(self):
        with pytest.raises(QuerySerializationError):
            query_from_dict({"vertices": [{"no_name": True}], "edges": []})
        with pytest.raises(QuerySerializationError):
            query_from_json("{not json")
