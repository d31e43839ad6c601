"""One-time predicate compilation for the columnar hot path.

The interpreted matcher walks a :class:`~repro.query.predicates.Predicate`
tree per candidate edge/vertex: every test pays attribute lookups on the
predicate object (``self.key`` / ``self.low`` / ``self.op``), a dynamic
``__call__`` dispatch per tree node, and -- for compositions -- a generator
per evaluation.  None of that work depends on the candidate; it only
depends on the query, which is fixed at registration.

:func:`compile_predicate` does that query-dependent work exactly once,
producing a flat closure over pre-extracted constants.  The closure
replicates the interpreted semantics bit for bit:

* missing attribute keys fail (``AttrEquals`` / ``AttrIn`` / ``AttrRange``
  / ``AttrCompare``), ``AttrExists`` is pure key presence;
* ``AttrRange`` / ``AttrCompare`` treat a ``TypeError`` from the comparison
  (mixed-type attribute values) as ``False``, with the same bound and
  exclusivity logic; ``AttrIn`` does the same for an unhashable value;
* an empty ``And`` is true, an empty ``Or`` is false;
* :class:`~repro.query.predicates.CustomPredicate` (and any unknown
  ``Predicate`` subclass) is opaque and used as its own compiled form --
  it is already a callable of the right shape.

``None`` is the compiled form of "always true" (``TruePredicate`` and
compositions that reduce to it), so hot-path callers can skip the call
entirely.  The one observable difference is *evaluation count*, never
value: a disjunct after an always-true branch of an ``Or`` is provably
unreachable and is not evaluated.

:class:`CompiledQuery` maps a whole query's predicate trees into lookup
tables keyed by query-vertex name and query-edge id.  SJ-tree primitives
and node subgraphs share the originating query's ``QueryVertex`` /
``QueryEdge`` objects (``edge_subgraph`` / ``union`` / ``copy`` copy
references, not values), so one table per registered query covers every
subgraph the matcher touches.  Compiled tables are owned by the matcher
that built them -- never attached to the query objects themselves, which
may simultaneously drive a columnar and an interpreted engine.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .predicates import (
    _COMPARATORS,
    And,
    AttrCompare,
    AttrEquals,
    AttrExists,
    AttrIn,
    AttrRange,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from .query_graph import QueryEdge, QueryGraph, QueryVertex

__all__ = [
    "AttrCheck",
    "CompiledQuery",
    "Interval",
    "compile_predicate",
    "key_intervals",
    "referenced_attr_names",
    "union_intervals",
]

#: A compiled attribute test: same call shape as ``Predicate.__call__``.
AttrCheck = Callable[[Mapping[str, Any]], bool]


def _compile_equals(predicate: AttrEquals) -> AttrCheck:
    key, value = predicate.key, predicate.value

    def check(attrs: Mapping[str, Any]) -> bool:
        return key in attrs and bool(attrs[key] == value)

    return check


def _compile_in(predicate: AttrIn) -> AttrCheck:
    key, values = predicate.key, predicate.values

    def check(attrs: Mapping[str, Any]) -> bool:
        if key not in attrs:
            return False
        try:
            return attrs[key] in values
        except TypeError:  # unhashable value: a member of no frozenset
            return False

    return check


def _compile_exists(predicate: AttrExists) -> AttrCheck:
    key = predicate.key

    def check(attrs: Mapping[str, Any]) -> bool:
        return key in attrs

    return check


def _compile_range(predicate: AttrRange) -> AttrCheck:
    key = predicate.key
    low, high = predicate.low, predicate.high
    low_exclusive, high_exclusive = predicate.low_exclusive, predicate.high_exclusive

    def check(attrs: Mapping[str, Any]) -> bool:
        if key not in attrs:
            return False
        value = attrs[key]
        try:
            if low is not None:
                if low_exclusive:
                    if not value > low:
                        return False
                elif not value >= low:
                    return False
            if high is not None:
                if high_exclusive:
                    if not value < high:
                        return False
                elif not value <= high:
                    return False
        except TypeError:
            return False
        return True

    return check


def _compile_compare(predicate: AttrCompare) -> AttrCheck:
    key, value = predicate.key, predicate.value
    comparator = _COMPARATORS[predicate.op]

    def check(attrs: Mapping[str, Any]) -> bool:
        if key not in attrs:
            return False
        try:
            return bool(comparator(attrs[key], value))
        except TypeError:
            return False

    return check


def _compile_and(predicate: And) -> Optional[AttrCheck]:
    # always-true conjuncts contribute nothing; dropping them preserves the
    # short-circuit order of the rest
    parts = [compile_predicate(p) for p in predicate.predicates]
    checks: List[AttrCheck] = [part for part in parts if part is not None]
    if not checks:
        return None
    if len(checks) == 1:
        return checks[0]

    def check(attrs: Mapping[str, Any]) -> bool:
        for fn in checks:
            if not fn(attrs):
                return False
        return True

    return check


def _never(attrs: Mapping[str, Any]) -> bool:
    """Compiled form of a constantly-false predicate."""
    return False


def _compile_or(predicate: Or) -> Optional[AttrCheck]:
    parts = [compile_predicate(p) for p in predicate.predicates]
    if any(part is None for part in parts):
        # an always-true disjunct makes the whole disjunction true
        return None
    checks = [part for part in parts if part is not None]
    if not checks:
        return _never  # empty disjunction is false
    if len(checks) == 1:
        return checks[0]

    def check(attrs: Mapping[str, Any]) -> bool:
        for fn in checks:
            if fn(attrs):
                return True
        return False

    return check


def _compile_not(predicate: Not) -> AttrCheck:
    inner = compile_predicate(predicate.predicate)
    if inner is None:
        return _never

    def check(attrs: Mapping[str, Any]) -> bool:
        return not inner(attrs)

    return check


def compile_predicate(predicate: Predicate) -> Optional[AttrCheck]:
    """Compile a predicate tree into a flat closure; ``None`` = always true.

    Exact-type dispatch, deliberately: a user-defined ``Predicate``
    subclass may override ``__call__`` with semantics the structural
    compilers would silently miscompile, so anything but the known builder
    types falls back to the predicate object itself (already a correct,
    if slower, callable).
    """
    kind = type(predicate)
    if kind is TruePredicate:
        return None
    if kind is AttrEquals:
        return _compile_equals(predicate)  # type: ignore[arg-type]
    if kind is AttrIn:
        return _compile_in(predicate)  # type: ignore[arg-type]
    if kind is AttrExists:
        return _compile_exists(predicate)  # type: ignore[arg-type]
    if kind is AttrRange:
        return _compile_range(predicate)  # type: ignore[arg-type]
    if kind is AttrCompare:
        return _compile_compare(predicate)  # type: ignore[arg-type]
    if kind is And:
        return _compile_and(predicate)  # type: ignore[arg-type]
    if kind is Or:
        return _compile_or(predicate)  # type: ignore[arg-type]
    if kind is Not:
        return _compile_not(predicate)  # type: ignore[arg-type]
    # CustomPredicate and unknown subclasses: opaque but callable
    return predicate


def referenced_attr_names(predicate: Predicate) -> List[str]:
    """Return the attribute names a builder-constructed predicate tree reads.

    First-mention order, duplicates removed -- the deterministic order the
    engine interns attribute names in.  Opaque predicates (CustomPredicate
    and unknown subclasses) contribute nothing: their attribute access is
    invisible to static inspection.
    """
    names: List[str] = []
    seen: set = set()

    def walk(node: Predicate) -> None:
        kind = type(node)
        if kind in (AttrEquals, AttrIn, AttrExists, AttrRange, AttrCompare):
            key = node.key  # type: ignore[attr-defined]
            if key not in seen:
                seen.add(key)
                names.append(key)
        elif kind is And or kind is Or:
            for child in node.predicates:  # type: ignore[attr-defined]
                walk(child)
        elif kind is Not:
            walk(node.predicate)  # type: ignore[attr-defined]

    walk(predicate)
    return names


#: Necessary numeric interval ``(low, low_exclusive, high, high_exclusive)``
#: for one attribute key; a ``None`` bound is unbounded on that side.
Interval = Tuple[Optional[float], bool, Optional[float], bool]


def _numeric_bound(value: Any) -> Optional[float]:
    """``value`` when it is a plain, non-NaN ``int`` / ``float``, else ``None``."""
    kind = type(value)
    if (kind is int or kind is float) and value == value:
        return value  # type: ignore[no-any-return]
    return None


def _intersect(first: Interval, second: Interval) -> Interval:
    low, low_exclusive, high, high_exclusive = first
    other_low, other_low_exclusive, other_high, other_high_exclusive = second
    if other_low is not None:
        if low is None or other_low > low:
            low, low_exclusive = other_low, other_low_exclusive
        elif other_low == low:
            low_exclusive = low_exclusive or other_low_exclusive
    if other_high is not None:
        if high is None or other_high < high:
            high, high_exclusive = other_high, other_high_exclusive
        elif other_high == high:
            high_exclusive = high_exclusive or other_high_exclusive
    return low, low_exclusive, high, high_exclusive


def _hull(first: Interval, second: Interval) -> Interval:
    low, low_exclusive, high, high_exclusive = first
    other_low, other_low_exclusive, other_high, other_high_exclusive = second
    if low is not None:
        if other_low is None or other_low < low:
            low, low_exclusive = other_low, other_low_exclusive
        elif other_low == low:
            low_exclusive = low_exclusive and other_low_exclusive
    if high is not None:
        if other_high is None or other_high > high:
            high, high_exclusive = other_high, other_high_exclusive
        elif other_high == high:
            high_exclusive = high_exclusive and other_high_exclusive
    return low, low_exclusive, high, high_exclusive


def union_intervals(alternatives: Iterable[Mapping[str, Interval]]) -> Dict[str, Interval]:
    """Intervals necessary for *any one* of ``alternatives`` to hold.

    A key stays constrained only when every alternative constrains it (the
    hull of their intervals); no alternatives at all constrain nothing.
    """
    merged: Optional[Dict[str, Interval]] = None
    for intervals in alternatives:
        if merged is None:
            merged = dict(intervals)
        else:
            merged = {
                key: _hull(interval, intervals[key])
                for key, interval in merged.items()
                if key in intervals
            }
        if not merged:
            return {}
    return merged or {}


def _range_interval(predicate: AttrRange) -> Dict[str, Interval]:
    low = _numeric_bound(predicate.low)
    high = _numeric_bound(predicate.high)
    if low is None and high is None:
        return {}
    return {
        predicate.key: (
            low,
            low is not None and bool(predicate.low_exclusive),
            high,
            high is not None and bool(predicate.high_exclusive),
        )
    }


def _compare_interval(key: str, op: str, value: Any) -> Dict[str, Interval]:
    bound = _numeric_bound(value)
    if bound is None or op == "!=":
        return {}
    if op == "==":
        return {key: (bound, False, bound, False)}
    if op == "<" or op == "<=":
        return {key: (None, False, bound, op == "<")}
    return {key: (bound, op == ">", None, False)}


def _and_intervals(predicate: And) -> Dict[str, Interval]:
    merged: Dict[str, Interval] = {}
    for child in predicate.predicates:
        for key, interval in key_intervals(child).items():
            known = merged.get(key)
            merged[key] = interval if known is None else _intersect(known, interval)
    return merged


def key_intervals(predicate: Predicate) -> Dict[str, Interval]:
    """Return the numeric interval each attribute key *must* fall in.

    ``key -> interval`` promises: whenever ``predicate`` accepts ``attrs``,
    ``key`` is present, and if ``attrs[key]`` is a plain non-NaN ``int`` /
    ``float`` it lies inside the interval.  It is a necessary condition
    only -- route plans use it to skip leaves whose compiled check would
    certainly fail, and the check itself still decides.  ``AttrRange``,
    ``AttrCompare`` (all but ``!=``) and ``AttrEquals`` with plain numeric
    constants constrain their key; ``And`` intersects, ``Or`` takes the
    hull when every disjunct constrains the key; everything else (``Not``,
    ``AttrIn``, ``AttrExists``, opaque predicates) constrains nothing.
    Exact-type dispatch, for the reason :func:`compile_predicate` gives.
    """
    kind = type(predicate)
    if kind is AttrRange:
        return _range_interval(predicate)  # type: ignore[arg-type]
    if kind is AttrCompare:
        return _compare_interval(predicate.key, predicate.op, predicate.value)  # type: ignore[attr-defined]
    if kind is AttrEquals:
        return _compare_interval(predicate.key, "==", predicate.value)  # type: ignore[attr-defined]
    if kind is And:
        return _and_intervals(predicate)  # type: ignore[arg-type]
    if kind is Or:
        return union_intervals(
            key_intervals(child) for child in predicate.predicates  # type: ignore[attr-defined]
        )
    return {}


class CompiledQuery:
    """Per-query lookup tables of compiled predicate checks.

    Keyed by query-vertex *name* and query-edge *id*: those identities are
    stable across every SJ-tree subgraph of the query (the subgraphs share
    the original ``QueryVertex`` / ``QueryEdge`` objects), so the matcher
    resolves a check with one dict probe regardless of which tree node it
    is searching under.  A ``None`` check means always-true: skip the call.
    """

    __slots__ = ("vertex_checks", "edge_checks", "compiled_checks")

    def __init__(self, query: QueryGraph) -> None:
        self.vertex_checks: Dict[str, Optional[AttrCheck]] = {
            vertex.name: compile_predicate(vertex.predicate)
            for vertex in query.vertices()
        }
        self.edge_checks: Dict[int, Optional[AttrCheck]] = {
            edge.id: compile_predicate(edge.predicate) for edge in query.edges()
        }
        #: Non-trivial checks actually compiled (always-true slots excluded).
        self.compiled_checks: int = sum(
            1 for fn in self.vertex_checks.values() if fn is not None
        ) + sum(1 for fn in self.edge_checks.values() if fn is not None)

    # ------------------------------------------------------------------
    # hot-path checks (mirror candidates.edge_satisfies / vertex_satisfies)
    # ------------------------------------------------------------------
    def edge_ok(self, query_edge: QueryEdge, label: str, attrs: Mapping[str, Any]) -> bool:
        """Compiled equivalent of ``QueryEdge.matches_edge_label``."""
        if query_edge.label is not None and query_edge.label != label:
            return False
        fn = self.edge_checks[query_edge.id]
        return True if fn is None else fn(attrs)

    def vertex_ok(self, query_vertex: QueryVertex, label: str, attrs: Mapping[str, Any]) -> bool:
        """Compiled equivalent of ``QueryVertex.matches_vertex``."""
        if query_vertex.label is not None and query_vertex.label != label:
            return False
        fn = self.vertex_checks[query_vertex.name]
        return True if fn is None else fn(attrs)

    # ------------------------------------------------------------------
    # snapshot marker
    # ------------------------------------------------------------------
    def marker(self) -> Dict[str, int]:
        """Snapshot marker: compiled-table shape, for restore sanity checks.

        The closures themselves are never serialised -- restore rebuilds
        the matcher, and matcher construction recompiles from the query.
        """
        return {
            "vertices": len(self.vertex_checks),
            "edges": len(self.edge_checks),
            "compiled_checks": self.compiled_checks,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledQuery(vertices={len(self.vertex_checks)}, "
            f"edges={len(self.edge_checks)}, compiled={self.compiled_checks})"
        )
