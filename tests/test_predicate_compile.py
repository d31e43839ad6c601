"""Compiled predicate closures vs. the interpreted predicate tree.

``compile_predicate`` is only correct if every closure it emits agrees
with ``Predicate.__call__`` on every attribute map -- including missing
keys, ``None`` values, and the mixed-type comparisons where the
interpreted path swallows ``TypeError`` into ``False``.  This suite
checks that equivalence over the full builder-constructible catalogue
(shared with ``tests/test_query_serialize.py``) and over hypothesis-
generated attribute maps, plus the ``CompiledQuery`` table semantics the
columnar matcher relies on.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_query_serialize import BUILDER_CONSTRUCTIBLE_PREDICATES, EDGE_CASE_ATTRS

from repro.query.compile import (
    CompiledQuery,
    _never,
    compile_predicate,
    referenced_attr_names,
)
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
from repro.query.query_graph import QueryGraph

SUPPRESS = [HealthCheck.too_slow]


def evaluate_compiled(predicate, attrs):
    """Evaluate via the compiled form, honouring the ``None`` = true contract."""
    compiled = compile_predicate(predicate)
    return True if compiled is None else bool(compiled(attrs))


class TestCatalogueEquivalence:
    @pytest.mark.parametrize("predicate", BUILDER_CONSTRUCTIBLE_PREDICATES)
    def test_compiled_agrees_on_edge_case_attrs(self, predicate):
        for attrs in EDGE_CASE_ATTRS:
            assert evaluate_compiled(predicate, attrs) == bool(predicate(attrs)), (
                f"{predicate.describe()} compiled/interpreted diverged on {attrs!r}"
            )

    def test_true_predicate_compiles_to_none(self):
        assert compile_predicate(always_true) is None
        assert compile_predicate(TruePredicate()) is None
        # compositions that reduce to always-true also vanish
        assert compile_predicate(And([])) is None
        assert compile_predicate(And([TruePredicate(), always_true])) is None
        assert compile_predicate(Or([AttrExists("x"), TruePredicate()])) is None

    def test_constant_false_compositions_compile_to_never(self):
        assert compile_predicate(Or([])) is _never
        assert compile_predicate(Not(TruePredicate())) is _never
        assert not _never({"anything": 1})

    def test_custom_predicate_is_opaque_fallback(self):
        custom = CustomPredicate(lambda attrs: attrs.get("port") == 445)
        assert compile_predicate(custom) is custom

    def test_unknown_subclass_is_opaque_fallback(self):
        class Weird(AttrEquals):
            """Overrides __call__: structural compilation would miscompile it."""

            def __call__(self, attrs):
                return True

        weird = Weird("port", 445)
        assert compile_predicate(weird) is weird
        assert evaluate_compiled(weird, {}) is True


# ----------------------------------------------------------------------
# hypothesis: random attribute maps against the whole catalogue
# ----------------------------------------------------------------------
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)

_ATTR_MAPS = st.dictionaries(
    # bias towards the keys the catalogue actually references so both
    # branches (present/missing) get real coverage, but admit noise keys
    st.one_of(
        st.sampled_from(["port", "bytes", "proto", "external", "ratio", "maybe"]),
        st.text(min_size=1, max_size=6),
    ),
    _VALUES,
    max_size=8,
)

_CATALOGUE = [param.values[0] for param in BUILDER_CONSTRUCTIBLE_PREDICATES]


@given(attrs=_ATTR_MAPS)
@settings(max_examples=120, deadline=None, suppress_health_check=SUPPRESS)
def test_fuzzed_attr_maps_cannot_split_compiled_from_interpreted(attrs):
    for predicate in _CATALOGUE:
        assert evaluate_compiled(predicate, attrs) == bool(predicate(attrs)), (
            f"{predicate.describe()} diverged on {attrs!r}"
        )


@given(
    attrs=_ATTR_MAPS,
    key=st.sampled_from(["port", "bytes", "ratio"]),
    bound=st.one_of(st.integers(-1000, 1000), st.floats(-1e3, 1e3, allow_nan=False)),
    op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
)
@settings(max_examples=120, deadline=None, suppress_health_check=SUPPRESS)
def test_fuzzed_comparisons_match_typeerror_semantics(attrs, key, bound, op):
    """Mixed-type values hit the TypeError->False path; both sides must agree."""
    compare = AttrCompare(key, op, bound)
    range_pred = AttrRange(key, low=bound)
    assert evaluate_compiled(compare, attrs) == bool(compare(attrs))
    assert evaluate_compiled(range_pred, attrs) == bool(range_pred(attrs))


@given(
    value=st.recursive(
        st.one_of(st.sampled_from(["tcp", "udp", 80, None]), st.integers(0, 3)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.sampled_from(["tcp", "k"]), inner, max_size=2),
        ),
        max_leaves=6,
    )
)
@settings(max_examples=80, deadline=None, suppress_health_check=SUPPRESS)
def test_attr_in_unhashable_values_fail_in_both_forms(value):
    """Lists and dicts (at any depth) are members of no frozenset: both the
    interpreted and the compiled ``AttrIn`` answer False instead of raising."""
    for predicate in (AttrIn("proto", ["tcp", "udp"]), AttrIn("proto", [80, "8080", None])):
        interpreted = predicate({"proto": value})
        assert evaluate_compiled(predicate, {"proto": value}) is interpreted
        if isinstance(value, (list, dict)):
            assert interpreted is False


# ----------------------------------------------------------------------
# referenced_attr_names: the interning contract
# ----------------------------------------------------------------------
class TestReferencedAttrNames:
    def test_first_mention_order_with_dedup(self):
        predicate = And(
            [
                AttrRange("bytes", low=1),
                Or([AttrEquals("proto", "tcp"), AttrExists("bytes")]),
                Not(AttrCompare("port", ">", 1024)),
            ]
        )
        assert referenced_attr_names(predicate) == ["bytes", "proto", "port"]

    def test_true_and_opaque_contribute_nothing(self):
        assert referenced_attr_names(always_true) == []
        assert referenced_attr_names(CustomPredicate(lambda attrs: "k" in attrs)) == []

    @pytest.mark.parametrize("predicate", BUILDER_CONSTRUCTIBLE_PREDICATES)
    def test_catalogue_names_are_unique_and_stable(self, predicate):
        names = referenced_attr_names(predicate)
        assert len(names) == len(set(names))
        assert names == referenced_attr_names(predicate)


# ----------------------------------------------------------------------
# CompiledQuery: table semantics must mirror matches_vertex/matches_edge_label
# ----------------------------------------------------------------------
def _one_edge_query(vertex_predicate, edge_predicate):
    query = QueryGraph("cq")
    query.add_vertex("a", "Host", predicate=vertex_predicate)
    query.add_vertex("b", None)
    query.add_edge("a", "b", "link", predicate=edge_predicate)
    return query


@pytest.mark.parametrize("predicate", BUILDER_CONSTRUCTIBLE_PREDICATES)
def test_compiled_query_tables_mirror_interpreted_matches(predicate):
    query = _one_edge_query(predicate, predicate)
    compiled = CompiledQuery(query)
    vertex = query.vertex("a")
    edge = next(iter(query.edges()))
    for attrs in EDGE_CASE_ATTRS:
        for label in ("Host", "Other", "link"):
            assert compiled.vertex_ok(vertex, label, attrs) == vertex.matches_vertex(
                label, attrs
            )
            assert compiled.edge_ok(edge, label, attrs) == edge.matches_edge_label(
                label, attrs
            )


def test_compiled_query_counts_only_nontrivial_checks():
    trivial = _one_edge_query(always_true, TruePredicate())
    assert CompiledQuery(trivial).compiled_checks == 0
    real = _one_edge_query(AttrExists("port"), AttrRange("bytes", low=1))
    compiled = CompiledQuery(real)
    assert compiled.compiled_checks == 2
    assert compiled.marker() == {"vertices": 2, "edges": 1, "compiled_checks": 2}


def test_compiled_query_covers_shared_subgraph_objects():
    """SJ-tree subgraphs share QueryVertex/QueryEdge objects, so the parent
    query's table must resolve them without re-keying."""
    query = _one_edge_query(AttrExists("port"), AttrCompare("bytes", ">", 10))
    compiled = CompiledQuery(query)
    edge = next(iter(query.edges()))
    subgraph = query.edge_subgraph([edge.id])
    sub_edge = next(iter(subgraph.edges()))
    assert sub_edge.id in compiled.edge_checks
    assert compiled.edge_ok(sub_edge, "link", {"bytes": 11})
    assert not compiled.edge_ok(sub_edge, "link", {"bytes": 5})
