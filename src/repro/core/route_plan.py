"""Route plans: what the hot path does with one ``(label, endpoint labels)`` key.

Routing a record means asking the :class:`~repro.core.dispatch.DispatchIndex`
which (query, leaf) pairs could bind it and collecting, per leaf, the
compiled checks of its label-compatible query edges.  None of that depends on
the record -- only on the registered queries -- so it is done once per route
key and kept in ``DispatchIndex.plans`` until the index changes (register /
unregister / replan).  Plans hold compiled closures: they are rebuilt, never
checkpointed or pickled.

Routing runs *before* the record is stored: a record the plan leaves no
surviving leaf can bind no registered query edge, so the engine keeps it out
of the window store (its cold ring).  The route key's endpoint labels are
therefore resolved before ingest: an endpoint's label is its stored vertex
label, or the record's own label for it when the vertex is not stored -- the
label ingest would give it, since a stream gives each live vertex id one
label.

A plan over many leaves also carries an **interval index** over their checks.
Each leaf's checks imply a necessary numeric interval per attribute key
(:func:`~repro.query.compile.key_intervals`); the endpoints of those intervals
cut the number line into elementary segments (``< b0``, ``== b0``, ``b0 ..
b1``, ...), and each segment lists the leaves whose interval covers it plus
the leaves the key does not constrain.  One ``bisect`` on ``attrs[key]`` then
yields the few leaves worth checking.  The index only ever *withholds* leaves
whose check is certain to fail; the original compiled checks run unchanged on
the rest, so survivors, leaf order and owner order are exactly those of the
all-leaves loop.

The same segment tables give every indexed edge label a **guard** that reads
the record alone (:class:`LabelGuard`, built by :func:`label_guard` and kept
in ``DispatchIndex.label_guards``).  It is built from the label's candidates
with unresolved endpoint labels -- a superset of every plan's for the label --
so attrs no leaf of that superset can accept are rejected for every route key.
The engine's front gate evaluates it before endpoint labels are resolved: a
record it rejects is turned away like one whose label binds nothing, with no
plan, no interning and no store read.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..query.compile import AttrCheck, Interval, key_intervals, union_intervals
from .dispatch import DispatchIndex
from .sjtree import SJTreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import RegisteredQuery

__all__ = [
    "IntervalIndex",
    "LabelGuard",
    "RouteOwner",
    "RoutePlan",
    "build_route_plan",
    "label_guard",
]

#: An index must spare a record at least this many leaf checks on average,
#: or the plain list is cheaper than the ``bisect`` in front of it.
_MIN_LEAVES_SPARED = 4.0
#: Build no index whose segment lists hold more than this many entries per
#: leaf: wide overlapping intervals would trade the saved checks for memory.
_MAX_SEGMENT_FANOUT = 8

_MISSING: Any = object()


class RouteOwner:
    """One query's share of a plan: its registration and this run's hit count."""

    __slots__ = ("registration", "searched")

    def __init__(self, registration: "RegisteredQuery") -> None:
        self.registration = registration
        #: Records of the current run that reached the matcher (it counted
        #: those visits itself); :meth:`RoutePlan.settle` counts the rest.
        self.searched = 0


#: ``(owner, leaf, checks)``; ``checks`` of ``None`` = never prunable.
RouteEntry = Tuple[RouteOwner, SJTreeNode, Optional[Tuple[AttrCheck, ...]]]


def _covers_point(interval: Interval, point: float) -> bool:
    low, low_exclusive, high, high_exclusive = interval
    if low is not None and (point < low or (point == low and low_exclusive)):
        return False
    if high is not None and (point > high or (point == high and high_exclusive)):
        return False
    return True


def _covers_gap(interval: Interval, left: Optional[float], right: Optional[float]) -> bool:
    """Whether ``interval`` covers the open segment between two adjacent bounds.

    ``None`` is the unbounded side of the first / last segment.  Bounds of
    the interval are themselves segment bounds, so covering is all-or-nothing.
    """
    low, _, high, _ = interval
    if low is not None and (left is None or low > left):
        return False
    if high is not None and (right is None or high < right):
        return False
    return True


class IntervalIndex:
    """Elementary-segment table over one attribute key of a plan's leaf checks."""

    __slots__ = ("key", "bounds", "segments", "keyless", "entries", "leaves_selected")

    def __init__(
        self,
        key: str,
        entries: List[RouteEntry],
        bounds: List[float],
        segments: List[List[RouteEntry]],
        keyless: List[RouteEntry],
    ) -> None:
        self.key = key
        self.entries = entries
        #: Sorted distinct interval endpoints; segment ``2 * i`` is the open
        #: stretch below ``bounds[i]``, segment ``2 * i + 1`` the point itself.
        self.bounds = bounds
        self.segments = segments
        #: Candidates when the record lacks ``key``: the leaves it does not constrain.
        self.keyless = keyless
        #: Leaves handed out by :meth:`select` so far -- what the work pin reads.
        self.leaves_selected = 0

    @classmethod
    def build(
        cls,
        key: str,
        entries: List[RouteEntry],
        intervals: Sequence[Mapping[str, Interval]],
    ) -> Optional["IntervalIndex"]:
        """Cut ``key``'s axis at every interval endpoint; ``None`` when too dense."""
        bounds = sorted(
            {
                bound
                for constrained in intervals
                if key in constrained
                for bound in (constrained[key][0], constrained[key][2])
                if bound is not None
            }
        )
        budget = _MAX_SEGMENT_FANOUT * len(entries)
        segments: List[List[RouteEntry]] = []
        for slot in range(2 * len(bounds) + 1):
            at = slot // 2
            left = bounds[at - 1] if at else None
            right = bounds[at] if at < len(bounds) else None
            members = [
                entry
                for entry, constrained in zip(entries, intervals)
                if key not in constrained
                or (
                    _covers_point(constrained[key], bounds[at])
                    if slot % 2
                    else _covers_gap(constrained[key], left, right)
                )
            ]
            budget -= len(members)
            if budget < 0:
                return None
            segments.append(members)
        keyless = [
            entry for entry, constrained in zip(entries, intervals) if key not in constrained
        ]
        return cls(key, entries, bounds, segments, keyless)

    def select(self, attrs: Mapping[str, Any]) -> List[RouteEntry]:
        """Return the entries whose checks could accept ``attrs``, in plan order."""
        value = attrs.get(self.key, _MISSING)
        kind = type(value)
        if kind is not int and kind is not float:
            # a constrained check needs its key; anything but a plain number
            # (bool, str, None, ...) is left to the checks themselves
            chosen = self.keyless if value is _MISSING else self.entries
        elif value != value:  # NaN orders with nothing
            chosen = self.entries
        else:
            bounds = self.bounds
            at = bisect_left(bounds, value)
            if at < len(bounds) and bounds[at] == value:
                chosen = self.segments[2 * at + 1]
            else:
                chosen = self.segments[2 * at]
        self.leaves_selected += len(chosen)
        return chosen


class LabelGuard:
    """Record-only test for one edge label: attrs that no leaf of the label accepts.

    Built from the label's candidates with unresolved endpoint labels: the
    vertex guards are skipped (:meth:`LeafDispatchEntry.admits` on ``None``),
    so its leaves are a superset of every route plan's for the label, and a
    rejection holds whatever the endpoints' labels turn out to be.  Per key
    that *every* leaf constrains, it keeps the :class:`IntervalIndex`
    segment table reduced to one bool per segment -- "some leaf covers it".
    A key some leaf leaves free covers every segment and cannot reject, so
    it is not kept; for the same reason a leaf with an always-true check
    (no intervals at all) leaves no guard.
    """

    __slots__ = ("tables",)

    def __init__(self, tables: List[Tuple[str, List[float], List[bool]]]) -> None:
        #: ``(key, bounds, covered)`` per key with a segment no leaf covers.
        self.tables = tables

    @classmethod
    def build(
        cls, entries: List[RouteEntry], intervals: Sequence[Mapping[str, Interval]]
    ) -> Optional["LabelGuard"]:
        """The guard of one label's candidates; ``None`` when it could never reject."""
        tables: List[Tuple[str, List[float], List[bool]]] = []
        for key in dict.fromkeys(key for constrained in intervals for key in constrained):
            if not all(key in constrained for constrained in intervals):
                continue
            index = IntervalIndex.build(key, entries, intervals)
            if index is None:
                continue
            covered = [bool(members) for members in index.segments]
            if not all(covered):
                tables.append((key, index.bounds, covered))
        # the key with the most uncovered segments first: the first rejection ends the test
        tables.sort(key=lambda table: table[2].count(False), reverse=True)
        return cls(tables) if tables else None

    def rejects(self, attrs: Mapping[str, Any]) -> bool:
        """Whether every leaf's checks are certain to reject ``attrs``.

        The fallbacks are :meth:`IntervalIndex.select`'s: a missing key
        rejects (every leaf constrains it), anything but a plain non-NaN
        number passes.
        """
        for key, bounds, covered in self.tables:
            value = attrs.get(key, _MISSING)
            kind = type(value)
            if kind is not int and kind is not float:
                if value is _MISSING:
                    return True
            elif value == value:
                at = bisect_left(bounds, value)
                if not covered[2 * at + 1 if at < len(bounds) and bounds[at] == value else 2 * at]:
                    return True
        return False


def _best_index(
    entries: List[RouteEntry], intervals: Sequence[Mapping[str, Interval]]
) -> Optional[IntervalIndex]:
    """Index the key with the sparsest segment table, if any key pays."""
    best: Optional[IntervalIndex] = None
    best_mean = limit = len(entries) - _MIN_LEAVES_SPARED
    if limit < 0:
        return None
    # first-mention order, so ties resolve the same way on every build
    for key in dict.fromkeys(key for constrained in intervals for key in constrained):
        index = IntervalIndex.build(key, entries, intervals)
        if index is None:
            continue
        mean = sum(len(members) for members in index.segments) / len(index.segments)
        if mean <= limit and (best is None or mean < best_mean):
            best, best_mean = index, mean
    return best


class RoutePlan:
    """Candidate leaves for one route key, with an optional interval index."""

    __slots__ = ("entries", "owners", "index", "counter_deltas", "uses", "fresh", "pruned")

    def __init__(
        self,
        entries: List[RouteEntry],
        owners: List[RouteOwner],
        intervals: Sequence[Mapping[str, Interval]],
        counter_deltas: Tuple[int, int, int],
    ) -> None:
        #: Every candidate leaf, owners in registration order, leaves in
        #: SJ-tree order -- the plain path's loop, and the index's fallback.
        self.entries = entries
        self.owners = owners
        #: ``None`` = loop over ``entries``; else ``index.select(attrs)`` first.
        self.index = _best_index(entries, intervals)
        #: ``(lookups, entries_matched, entries_skipped)`` one uncached probe
        #: of this route adds to the dispatch counters.
        self.counter_deltas = counter_deltas
        #: Records routed through the plan in the current run, and whether
        #: the first of them paid the real dispatch probe (the build).
        self.uses = 0
        self.fresh = 1
        #: Leaf visits :meth:`route` skipped in the current run.
        self.pruned = 0

    def route(self, attrs: Mapping[str, Any]) -> List[Tuple[RouteOwner, List[SJTreeNode]]]:
        """Return ``[(owner, surviving leaves)]`` for one record, in plan order.

        A leaf survives unless every one of its compiled checks rejects
        ``attrs`` (or the interval index proves they would).  An empty result
        means no registered query edge can bind the record.
        """
        searches: List[Tuple[RouteOwner, List[SJTreeNode]]] = []
        survivors = 0
        last_owner = None
        leaves: List[SJTreeNode]
        for owner, leaf, checks in self.entries if self.index is None else self.index.select(attrs):
            if checks is not None:
                for check in checks:
                    if check(attrs):
                        break
                else:
                    continue
            survivors += 1
            if owner is last_owner:
                leaves.append(leaf)
            else:
                last_owner = owner
                leaves = [leaf]
                searches.append((owner, leaves))
        self.pruned += len(self.entries) - survivors
        return searches

    def settle(self, dispatch: DispatchIndex) -> int:
        """Replay the run's deferred counters; return records served from cache.

        Every record routed through the plan stands for one dispatch probe
        and one visit of each owner's matcher.  The probe that built the plan
        and the visits that reached ``process_edge_leaves`` counted
        themselves; the rest are added here, in bulk, once per run.  The
        run's :attr:`pruned` tally is reset too: the caller reads it first.
        """
        uses, self.uses = self.uses, 0
        hits = uses - self.fresh
        self.fresh = 0
        self.pruned = 0
        if hits:
            lookups, matched, skipped = self.counter_deltas
            dispatch.lookups += lookups * hits
            dispatch.entries_matched += matched * hits
            dispatch.entries_skipped += skipped * hits
        for owner in self.owners:
            owner.registration.matcher.stats.edges_processed += uses - owner.searched
            owner.searched = 0
        return hits


def build_route_plan(
    dispatch: DispatchIndex,
    registrations: Mapping[str, "RegisteredQuery"],
    edge_label: str,
    source_label: Optional[str],
    target_label: Optional[str],
) -> RoutePlan:
    """Probe the dispatch index once and compile the answer into a plan.

    ``source_label`` / ``target_label`` are the endpoint labels resolved
    before ingest (stored vertex label, else the record's own).  Only
    owners present in ``registrations`` get entries, so passing one
    registration asks what that query alone can bind.

    Per candidate leaf the plan keeps the compiled checks of its
    label-compatible query edges.  Local search only finds embeddings
    *containing* the new edge, so a leaf where every such check rejects the
    edge's attrs provably yields no primitive and can be skipped per record;
    a leaf with an always-true check never can.
    """
    before = (dispatch.lookups, dispatch.entries_matched, dispatch.entries_skipped)
    entries, owners, intervals = _route_entries(
        dispatch, registrations, edge_label, source_label, target_label
    )
    counter_deltas = (
        dispatch.lookups - before[0],
        dispatch.entries_matched - before[1],
        dispatch.entries_skipped - before[2],
    )
    return RoutePlan(entries, owners, intervals, counter_deltas)


def label_guard(
    dispatch: DispatchIndex,
    registrations: Mapping[str, "RegisteredQuery"],
    edge_label: str,
) -> Optional[LabelGuard]:
    """Return ``edge_label``'s guard, built and kept in ``dispatch.label_guards`` on first use.

    Only labels the index names get one: a label that only a wildcard
    query edge binds is never guarded, so ``label_guards`` does not grow with
    the stream's alphabet.  Building is not stream work: the dispatch
    counters the probe moves are restored.
    """
    if not dispatch.indexes(edge_label):
        return None
    saved = (dispatch.lookups, dispatch.entries_matched, dispatch.entries_skipped)
    entries, _, intervals = _route_entries(dispatch, registrations, edge_label, None, None)
    dispatch.lookups, dispatch.entries_matched, dispatch.entries_skipped = saved
    guard = dispatch.label_guards[edge_label] = LabelGuard.build(entries, intervals)
    return guard


def _route_entries(
    dispatch: DispatchIndex,
    registrations: Mapping[str, "RegisteredQuery"],
    edge_label: str,
    source_label: Optional[str],
    target_label: Optional[str],
) -> Tuple[List[RouteEntry], List[RouteOwner], List[Dict[str, Interval]]]:
    """One dispatch probe, as ``(entries, owners, per-entry key intervals)``."""
    entries: List[RouteEntry] = []
    owners: List[RouteOwner] = []
    intervals: List[Dict[str, Interval]] = []
    for name, leaf_ids in dispatch.candidates(edge_label, source_label, target_label):
        registration = registrations.get(name)
        if registration is None:  # pragma: no cover - defensive
            continue
        owner = RouteOwner(registration)
        owners.append(owner)
        matcher = registration.matcher
        compiled = matcher.compiled
        for leaf_id in leaf_ids:
            leaf = matcher.tree.node(leaf_id)
            constrained: Dict[str, Interval] = {}
            bound_edges = [
                query_edge
                for query_edge in leaf.subgraph.edges()
                if query_edge.label is None or query_edge.label == edge_label
            ]
            checks: Optional[List[AttrCheck]] = []
            for query_edge in bound_edges:
                check = compiled.edge_checks[query_edge.id]
                if check is None:
                    checks = None
                    break
                checks.append(check)
            if checks is not None:
                # the leaf survives when any one bound edge's check does
                constrained = union_intervals(
                    key_intervals(query_edge.predicate) for query_edge in bound_edges
                )
            entries.append((owner, leaf, None if checks is None else tuple(checks)))
            intervals.append(constrained)
    return entries, owners, intervals
