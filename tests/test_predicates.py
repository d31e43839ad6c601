"""Tests for the attribute predicate algebra."""

import pytest

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


class TestBasicPredicates:
    def test_true_predicate(self):
        assert always_true({}) and always_true({"x": 1})
        assert TruePredicate().describe() == "*"

    def test_attr_equals(self):
        predicate = AttrEquals("port", 53)
        assert predicate({"port": 53})
        assert not predicate({"port": 80})
        assert not predicate({})
        assert predicate.equality_constraints() == {"port": 53}

    def test_attr_in(self):
        predicate = AttrIn("proto", ["tcp", "udp"])
        assert predicate({"proto": "tcp"})
        assert not predicate({"proto": "icmp"})
        assert not predicate({})

    def test_attr_in_treats_an_unhashable_value_as_not_in(self):
        """Regression: a list/dict/set attribute raised ``TypeError: unhashable
        type`` out of the frozenset probe (AttrRange / AttrCompare already map
        a TypeError to False), tearing whatever batch carried the record."""
        predicate = AttrIn("proto", ["tcp", "udp"])
        for value in (["tcp"], {"tcp": 1}, {"tcp"}, [["tcp"]]):
            assert predicate({"proto": value}) is False
        assert (~predicate)({"proto": ["tcp"]})

    def test_attr_exists(self):
        predicate = AttrExists("flag")
        assert predicate({"flag": None})
        assert not predicate({})

    def test_attr_range_inclusive(self):
        predicate = AttrRange("bytes", low=10, high=100)
        assert predicate({"bytes": 10}) and predicate({"bytes": 100})
        assert not predicate({"bytes": 9}) and not predicate({"bytes": 101})

    def test_attr_range_exclusive_bounds(self):
        predicate = AttrRange("x", low=0, high=1, low_exclusive=True, high_exclusive=True)
        assert predicate({"x": 0.5})
        assert not predicate({"x": 0}) and not predicate({"x": 1})

    def test_attr_range_one_sided(self):
        assert AttrRange("x", low=5)({"x": 1e9})
        assert AttrRange("x", high=5)({"x": -1e9})

    def test_attr_range_requires_a_bound(self):
        with pytest.raises(ValueError):
            AttrRange("x")

    def test_attr_range_non_numeric_value_fails_closed(self):
        assert not AttrRange("x", low=0)({"x": "not a number"})

    def test_attr_compare_operators(self):
        assert AttrCompare("x", "==", 3)({"x": 3})
        assert AttrCompare("x", "!=", 3)({"x": 4})
        assert AttrCompare("x", "<", 3)({"x": 2})
        assert AttrCompare("x", "<=", 3)({"x": 3})
        assert AttrCompare("x", ">", 3)({"x": 4})
        assert AttrCompare("x", ">=", 3)({"x": 3})

    def test_attr_compare_missing_key_fails(self):
        assert not AttrCompare("x", ">", 3)({})

    def test_attr_compare_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            AttrCompare("x", "~", 3)

    def test_attr_compare_equality_constraint_only_for_eq(self):
        assert AttrCompare("x", "==", 3).equality_constraints() == {"x": 3}
        assert AttrCompare("x", ">", 3).equality_constraints() == {}

    def test_custom_predicate(self):
        predicate = CustomPredicate(lambda attrs: attrs.get("x", 0) % 2 == 0, "even x")
        assert predicate({"x": 4})
        assert not predicate({"x": 3})
        assert predicate.describe() == "even x"


class TestCombinators:
    def test_and(self):
        predicate = And([AttrEquals("a", 1), AttrEquals("b", 2)])
        assert predicate({"a": 1, "b": 2})
        assert not predicate({"a": 1, "b": 3})
        assert And([])({})  # empty conjunction is true

    def test_and_merges_equality_constraints(self):
        predicate = And([AttrEquals("a", 1), AttrEquals("b", 2)])
        assert predicate.equality_constraints() == {"a": 1, "b": 2}

    def test_or(self):
        predicate = Or([AttrEquals("a", 1), AttrEquals("a", 2)])
        assert predicate({"a": 1}) and predicate({"a": 2})
        assert not predicate({"a": 3})
        assert not Or([])({})  # empty disjunction is false

    def test_not(self):
        predicate = Not(AttrEquals("a", 1))
        assert predicate({"a": 2})
        assert not predicate({"a": 1})

    def test_operator_overloads(self):
        combined = AttrEquals("a", 1) & AttrEquals("b", 2)
        assert isinstance(combined, And)
        either = AttrEquals("a", 1) | AttrEquals("a", 2)
        assert isinstance(either, Or)
        negated = ~AttrEquals("a", 1)
        assert isinstance(negated, Not)
        assert combined({"a": 1, "b": 2})
        assert either({"a": 2})
        assert negated({"a": 5})

    def test_describe_is_informative(self):
        predicate = And([AttrEquals("a", 1), Not(AttrEquals("b", 2))])
        text = predicate.describe()
        assert "a=1" in text and "NOT" in text
