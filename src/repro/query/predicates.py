"""Attribute predicates for query vertices and edges.

A StreamWorks query constrains vertices and edges by *type* (label) and by
*attribute predicates* -- e.g. "a Keyword vertex whose ``label`` attribute is
``politics``" (Fig. 5 of the paper) or "a flow edge whose destination port is
53".  Predicates are small composable objects so that query plans can inspect
them (the planner uses equality predicates to sharpen selectivity estimates)
and so that queries can be serialised.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

__all__ = [
    "Predicate",
    "TruePredicate",
    "AttrEquals",
    "AttrIn",
    "AttrRange",
    "AttrExists",
    "AttrCompare",
    "And",
    "Or",
    "Not",
    "CustomPredicate",
    "always_true",
]


class Predicate:
    """Base class: a boolean test over an attribute mapping."""

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    # -- composition ----------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])

    def __invert__(self) -> "Predicate":
        return Not(self)

    # -- introspection ---------------------------------------------------
    def equality_constraints(self) -> Mapping[str, Any]:
        """Return attribute equality constraints implied by this predicate.

        Used by the selectivity estimator: an equality constraint on an
        attribute typically restricts the candidate set far more than the
        label alone.  Predicates that imply no equality return ``{}``.
        """
        return {}

    def describe(self) -> str:
        """Return a short human-readable description."""
        return self.__class__.__name__


class TruePredicate(Predicate):
    """Predicate that accepts everything (the default for unconstrained items)."""

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        return True

    def describe(self) -> str:
        return "*"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TruePredicate()"


#: Shared instance used as the default predicate everywhere.
always_true = TruePredicate()


class AttrEquals(Predicate):
    """``attrs[key] == value``; missing keys fail."""

    def __init__(self, key: str, value: Any):
        self.key = key
        self.value = value

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        return key_present(attrs, self.key) and attrs[self.key] == self.value

    def equality_constraints(self) -> Mapping[str, Any]:
        return {self.key: self.value}

    def describe(self) -> str:
        return f"{self.key}={self.value!r}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"AttrEquals({self.key!r}, {self.value!r})"


class AttrIn(Predicate):
    """``attrs[key] in values``; missing keys and unhashable values fail."""

    def __init__(self, key: str, values: Iterable[Any]):
        self.key = key
        self.values = frozenset(values)

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        if not key_present(attrs, self.key):
            return False
        try:
            return attrs[self.key] in self.values
        except TypeError:  # unhashable value: a member of no frozenset
            return False

    def describe(self) -> str:
        return f"{self.key} in {sorted(map(repr, self.values))}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"AttrIn({self.key!r}, {sorted(map(repr, self.values))})"


class AttrRange(Predicate):
    """Closed/open numeric range test on ``attrs[key]``.

    ``low``/``high`` of ``None`` mean unbounded on that side; bounds are
    inclusive unless the corresponding ``*_exclusive`` flag is set.
    """

    def __init__(
        self,
        key: str,
        low: Optional[float] = None,
        high: Optional[float] = None,
        low_exclusive: bool = False,
        high_exclusive: bool = False,
    ):
        if low is None and high is None:
            raise ValueError("AttrRange requires at least one bound")
        self.key = key
        self.low = low
        self.high = high
        self.low_exclusive = low_exclusive
        self.high_exclusive = high_exclusive

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        if not key_present(attrs, self.key):
            return False
        value = attrs[self.key]
        try:
            if self.low is not None:
                if self.low_exclusive:
                    if not value > self.low:
                        return False
                elif not value >= self.low:
                    return False
            if self.high is not None:
                if self.high_exclusive:
                    if not value < self.high:
                        return False
                elif not value <= self.high:
                    return False
        except TypeError:
            return False
        return True

    def describe(self) -> str:
        lo = "(-inf" if self.low is None else ("(" if self.low_exclusive else "[") + str(self.low)
        hi = "inf)" if self.high is None else str(self.high) + (")" if self.high_exclusive else "]")
        return f"{self.key} in {lo}, {hi}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"AttrRange({self.key!r}, {self.low}, {self.high})"


class AttrExists(Predicate):
    """``key in attrs``."""

    def __init__(self, key: str):
        self.key = key

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        return key_present(attrs, self.key)

    def describe(self) -> str:
        return f"has {self.key}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"AttrExists({self.key!r})"


_COMPARATORS: Mapping[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class AttrCompare(Predicate):
    """Generic comparison ``attrs[key] <op> value`` with ``op`` in ``== != < <= > >=``."""

    def __init__(self, key: str, op: str, value: Any):
        if op not in _COMPARATORS:
            raise ValueError(f"unsupported comparator {op!r}")
        self.key = key
        self.op = op
        self.value = value

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        if not key_present(attrs, self.key):
            return False
        try:
            return _COMPARATORS[self.op](attrs[self.key], self.value)
        except TypeError:
            return False

    def equality_constraints(self) -> Mapping[str, Any]:
        if self.op == "==":
            return {self.key: self.value}
        return {}

    def describe(self) -> str:
        return f"{self.key} {self.op} {self.value!r}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"AttrCompare({self.key!r}, {self.op!r}, {self.value!r})"


class And(Predicate):
    """Conjunction of predicates; an empty conjunction is true."""

    def __init__(self, predicates: Sequence[Predicate]):
        self.predicates = list(predicates)

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        return all(p(attrs) for p in self.predicates)

    def equality_constraints(self) -> Mapping[str, Any]:
        merged: dict = {}
        for predicate in self.predicates:
            merged.update(predicate.equality_constraints())
        return merged

    def describe(self) -> str:
        return " AND ".join(p.describe() for p in self.predicates) or "*"

    def __repr__(self) -> str:  # pragma: no cover
        return f"And({self.predicates!r})"


class Or(Predicate):
    """Disjunction of predicates; an empty disjunction is false."""

    def __init__(self, predicates: Sequence[Predicate]):
        self.predicates = list(predicates)

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        return any(p(attrs) for p in self.predicates)

    def describe(self) -> str:
        return "(" + " OR ".join(p.describe() for p in self.predicates) + ")"

    def __repr__(self) -> str:  # pragma: no cover
        return f"Or({self.predicates!r})"


class Not(Predicate):
    """Negation of a predicate."""

    def __init__(self, predicate: Predicate):
        self.predicate = predicate

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        return not self.predicate(attrs)

    def describe(self) -> str:
        return f"NOT ({self.predicate.describe()})"

    def __repr__(self) -> str:  # pragma: no cover
        return f"Not({self.predicate!r})"


class CustomPredicate(Predicate):
    """Wrap an arbitrary callable; the planner treats it as opaque."""

    def __init__(self, fn: Callable[[Mapping[str, Any]], bool], description: str = "custom"):
        self.fn = fn
        self.description = description

    def __call__(self, attrs: Mapping[str, Any]) -> bool:
        return bool(self.fn(attrs))

    def describe(self) -> str:
        return self.description

    def __repr__(self) -> str:  # pragma: no cover
        return f"CustomPredicate({self.description!r})"


def key_present(attrs: Mapping[str, Any], key: str) -> bool:
    """Return ``True`` when ``key`` is present in ``attrs``."""
    return key in attrs
