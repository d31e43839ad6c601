"""Cross-query edge-dispatch index for the multi-query ingest hot path.

The paper's headline claim -- sustaining 10^5+ edges/sec with many
continuous queries registered -- requires that an incoming edge only pay
for the queries it can actually affect.  The naive hot loop runs a local
search for *every* SJ-Tree leaf of *every* registered query on *every*
edge, so per-edge cost grows linearly with the total number of registered
primitives even when almost none of them can bind the edge.

The :class:`DispatchIndex` removes that linear factor.  At registration
time every SJ-Tree leaf primitive is compiled into a
:class:`LeafDispatchEntry` capturing the *necessary* conditions for the
leaf's local search to produce any seed at all:

* the set of edge labels its query edges accept (a query edge with
  ``label=None`` is a wildcard and keeps the entry in the wildcard list);
* per query edge, the endpoint vertex-label constraints ``(source label,
  edge label, target label, directed)``; an undirected query edge admits
  both orientations.

At ingest time :meth:`DispatchIndex.candidates` looks up
``index[edge.label]`` (plus the wildcard entries), applies the vertex-label
guards against the *stored* endpoint labels of the new edge, and returns
the (query, leaf) pairs that can possibly match -- grouped by query in
registration order and, within a query, in SJ-Tree leaf order, so the
engine's event order is that of a loop over every leaf of every query.  An
edge whose label appears in no registered primitive is turned away before
its endpoints are even looked up: a whole run at once by
:meth:`DispatchIndex.front_gate` on the engine's hot path, one label by
:meth:`DispatchIndex.front_rejects`.  So is an edge whose attrs its label's
record-only guard rejects (:class:`~repro.core.route_plan.LabelGuard`, kept
per indexed label in ``label_guards`` with the same lifetime as the route
plans): each costs one ``lookups`` tick and no candidate entries.

The guards are deliberately *necessary but not sufficient*: attribute
predicates are dynamic and stay in the local search.  Filtering here can
therefore never change the match set, only skip work that would have
produced zero seeds -- the same discipline as incremental view maintenance
under updates (only touch the work an update can affect).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..query.query_graph import QueryGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..streaming.edge_stream import StreamEdge
    from .route_plan import LabelGuard, RoutePlan

__all__ = ["LeafDispatchEntry", "DispatchIndex"]


class LeafDispatchEntry:
    """Compiled dispatch constraints for one SJ-Tree leaf primitive.

    Parameters
    ----------
    owner:
        Name of the registered query the leaf belongs to.
    leaf_id:
        SJ-Tree node id of the leaf (used by the matcher's per-leaf entry
        point).
    order:
        ``(registration sequence, leaf index)`` -- total order preserving
        the every-leaf loop's iteration order.
    primitive:
        The leaf's query subgraph; its edges are compiled into guards.
    """

    __slots__ = ("owner", "leaf_id", "order", "labels", "has_wildcard", "guards")

    def __init__(
        self,
        owner: str,
        leaf_id: int,
        order: Tuple[int, int],
        primitive: QueryGraph,
    ):
        self.owner = owner
        self.leaf_id = leaf_id
        self.order = order
        labels: Set[str] = set()
        self.has_wildcard = False
        #: ``(edge label, source vertex label, target vertex label, directed)``
        #: per query edge; ``None`` components are wildcards.
        self.guards: Tuple[Tuple[Optional[str], Optional[str], Optional[str], bool], ...] = tuple(
            (
                edge.label,
                primitive.vertex(edge.source).label,
                primitive.vertex(edge.target).label,
                edge.directed,
            )
            for edge in primitive.edges()
        )
        for edge_label, _, _, _ in self.guards:
            if edge_label is None:
                self.has_wildcard = True
            else:
                labels.add(edge_label)
        self.labels = frozenset(labels)

    def admits(
        self,
        edge_label: str,
        source_label: Optional[str],
        target_label: Optional[str],
    ) -> bool:
        """Return ``True`` when some query edge of the leaf could bind the data edge.

        ``source_label`` / ``target_label`` are the *stored* vertex labels of
        the data edge's endpoints; ``None`` skips the corresponding guard
        (callers that cannot resolve endpoint labels still get correct label
        routing, just without the vertex filter).
        """
        for qlabel, slabel, tlabel, directed in self.guards:
            if qlabel is not None and qlabel != edge_label:
                continue
            if self._endpoints_admit(slabel, tlabel, source_label, target_label):
                return True
            if not directed and self._endpoints_admit(slabel, tlabel, target_label, source_label):
                return True
        return False

    @staticmethod
    def _endpoints_admit(
        qsource: Optional[str],
        qtarget: Optional[str],
        source_label: Optional[str],
        target_label: Optional[str],
    ) -> bool:
        if qsource is not None and source_label is not None and qsource != source_label:
            return False
        if qtarget is not None and target_label is not None and qtarget != target_label:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = sorted(self.labels) + (["*"] if self.has_wildcard else [])
        return f"LeafDispatchEntry({self.owner!r}, leaf={self.leaf_id}, labels={labels})"


class DispatchIndex:
    """Shared edge-label -> (query, leaf) routing table for all registered queries.

    The index is owned by the engine: :meth:`register` is called whenever a
    query is registered (or re-planned, which rebuilds its SJ-Tree) and
    :meth:`unregister` when it is removed.  :meth:`candidates` is the hot-path
    lookup.

    Counters (``lookups``, ``entries_matched``, ``entries_skipped``) expose
    how much work the index saved; the engine surfaces them in
    :meth:`~repro.core.engine.StreamWorksEngine.metrics`.
    """

    def __init__(self) -> None:
        self._by_label: Dict[str, List[LeafDispatchEntry]] = {}
        self._wildcard: List[LeafDispatchEntry] = []
        self._by_owner: Dict[str, List[LeafDispatchEntry]] = {}
        self._registration_seq = 0
        #: Bumped by every :meth:`register` / :meth:`unregister` (a replan
        #: re-registers), each of which also empties ``plans``.
        self.version = 0
        #: Route plans by ``(edge, source, target)`` label id, built lazily
        #: by the engine's hot path and valid for exactly one ``version``.
        #: Derived from the index and the matchers' compiled checks: rebuilt
        #: on demand, never stored in a snapshot.
        self.plans: Dict[Tuple[int, int, int], "RoutePlan"] = {}
        self.plans_built = 0
        #: Per indexed edge label, its record-only guard (``None``: it never
        #: rejects), built lazily by the engine's front gate.  Same lifetime
        #: as ``plans``: one ``version``, never stored in a snapshot.
        self.label_guards: Dict[str, Optional["LabelGuard"]] = {}
        self.lookups = 0
        self.entries_matched = 0
        self.entries_skipped = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, owner: str, leaves: Iterable[Any]) -> None:
        """Index every SJ-Tree leaf of a query.

        ``leaves`` is an iterable of SJ-Tree leaf nodes (objects with ``id``
        and ``subgraph`` attributes) in decomposition order.  Re-registering
        an owner (after a re-plan) replaces its entries but keeps the owner's
        original position in the dispatch order, so event order stays that
        of the every-leaf loop across re-plans.
        """
        existing = self._by_owner.get(owner)
        if existing:
            seq = existing[0].order[0]
            self.unregister(owner)
        else:
            seq = self._registration_seq
            self._registration_seq += 1
        entries: List[LeafDispatchEntry] = []
        for index, leaf in enumerate(leaves):
            entry = LeafDispatchEntry(owner, leaf.id, (seq, index), leaf.subgraph)
            entries.append(entry)
            for label in entry.labels:
                self._by_label.setdefault(label, []).append(entry)
            if entry.has_wildcard:
                self._wildcard.append(entry)
        self._by_owner[owner] = entries
        self._invalidate_plans()

    def unregister(self, owner: str) -> None:
        """Drop every entry belonging to ``owner`` (no-op when unknown)."""
        entries = self._by_owner.pop(owner, None)
        if not entries:
            return
        dropped = set(id(entry) for entry in entries)
        # insertion-ordered dedupe: bucket rewrites below mutate _by_label,
        # whose key order is observable (stats, wildcard rebuilds), so the
        # visit order must not depend on PYTHONHASHSEED
        for label in dict.fromkeys(label for entry in entries for label in entry.labels):
            bucket = [e for e in self._by_label[label] if id(e) not in dropped]
            if bucket:
                self._by_label[label] = bucket
            else:
                del self._by_label[label]
        if any(entry.has_wildcard for entry in entries):
            self._wildcard = [e for e in self._wildcard if id(e) not in dropped]
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        """The index changed: every cached route plan and guard describes the old one."""
        self.version += 1
        self.plans.clear()
        self.label_guards.clear()

    def registered_owners(self) -> List[str]:
        """Return the names of the queries currently indexed."""
        return list(self._by_owner)

    def entry_count(self) -> int:
        """Return the total number of indexed leaf entries."""
        return sum(len(entries) for entries in self._by_owner.values())

    # ------------------------------------------------------------------
    # hot-path lookup
    # ------------------------------------------------------------------
    def indexes(self, edge_label: str) -> bool:
        """Whether some registered leaf names ``edge_label`` (wildcards aside)."""
        return edge_label in self._by_label

    def front_rejects(self, edge_label: str) -> bool:
        """Return ``True`` when no registered leaf can bind ``edge_label``.

        The gate in front of routing: a label no leaf has a query edge for
        (and no wildcard query edge exists) needs neither its endpoint
        labels resolved nor a :meth:`candidates` probe.  A rejection counts
        the ``lookups`` tick that probe would have, so the counter reads the
        same whichever way a caller asks.
        """
        if edge_label in self._by_label or self._wildcard:
            return False
        self.lookups += 1
        return True

    def front_gate(self, records: Sequence["StreamEdge"]) -> List[bool]:
        """:meth:`front_rejects` over a whole run: per record, whether its label is bound.

        ``True`` when some registered leaf has a query edge for the
        record's label (a wildcard query edge binds every label).  One
        comprehension over the run; each unbound label counts the
        ``lookups`` tick :meth:`front_rejects` counts for it, added in one
        step.
        """
        if self._wildcard:
            return [True] * len(records)
        by_label = self._by_label
        bound = [record.label in by_label for record in records]
        self.lookups += bound.count(False)
        return bound

    def candidates(
        self,
        edge_label: str,
        source_label: Optional[str] = None,
        target_label: Optional[str] = None,
    ) -> List[Tuple[str, List[int]]]:
        """Return ``[(owner, [leaf ids])]`` that could bind the described edge.

        Owners appear in registration order and leaf ids in SJ-Tree leaf
        order, matching the iteration order of a loop over every leaf of
        every query, so the engine's event order is unchanged.
        """
        self.lookups += 1
        labelled = self._by_label.get(edge_label)
        if not labelled and not self._wildcard:
            return []
        matched: List[LeafDispatchEntry] = []
        if self._wildcard:
            # an entry can sit in both a label bucket and the wildcard list
            # (primitive with one labelled and one wildcard edge) -- dedupe
            seen: Set[int] = set()
            for bucket in (labelled or ()), self._wildcard:
                for entry in bucket:
                    key = id(entry)
                    if key in seen:
                        continue
                    seen.add(key)
                    if entry.admits(edge_label, source_label, target_label):
                        matched.append(entry)
                    else:
                        self.entries_skipped += 1
        else:
            for entry in labelled or ():
                if entry.admits(edge_label, source_label, target_label):
                    matched.append(entry)
                else:
                    self.entries_skipped += 1
        if not matched:
            return []
        self.entries_matched += len(matched)
        matched.sort(key=lambda entry: entry.order)
        grouped: List[Tuple[str, List[int]]] = []
        for entry in matched:
            if grouped and grouped[-1][0] == entry.owner:
                grouped[-1][1].append(entry.leaf_id)
            else:
                grouped.append((entry.owner, [entry.leaf_id]))
        return grouped

    def stats(self) -> Dict[str, int]:
        """Return the lookup counters as a plain dict."""
        return {
            "indexed_queries": len(self._by_owner),
            "indexed_leaves": self.entry_count(),
            "lookups": self.lookups,
            "entries_matched": self.entries_matched,
            "entries_skipped": self.entries_skipped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DispatchIndex(queries={len(self._by_owner)}, leaves={self.entry_count()}, "
            f"labels={len(self._by_label)}, wildcard={len(self._wildcard)})"
        )
