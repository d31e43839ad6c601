"""The incremental continuous-query matcher (paper section 4.2).

One :class:`ContinuousQueryMatcher` serves one registered query.  Its life
cycle per incoming edge is exactly the paper's description of query
execution:

1. *Local search* -- for every SJ-Tree leaf, search the neighbourhood of the
   new edge for embeddings of that leaf's primitive that use the new edge.
2. *Leaf insertion* -- each embedding found is inserted into the leaf's
   collection (keyed by the parent's cut vertices).
3. *Upward joins* -- the new partial is probed against the sibling node's
   collection; every successful combination is inserted one level up, and
   the process repeats until either no join succeeds or the root is reached.
4. *Completion* -- a partial that reaches the root is a complete match of
   the query and is returned to the engine, which builds its
   :class:`~repro.isomorphism.match.Match` (:meth:`ContinuousQueryMatcher.to_match`)
   and wraps it in a :class:`~repro.streaming.events.MatchEvent`.  It is not
   stored: the root's matches are the engine's events, and no join reads
   them.

Partials are flat tuples in each node's slot layout
(:class:`~repro.core.sjtree.SlotLayout`) from the leaf to the root, and
every join runs its parent node's merge plan (:mod:`repro.core.join`),
compiled the first time two partials meet there.  A completion is a tuple in the root's layout
until it is emitted; the emitted ``Match`` lists its bindings in the
query's declaration order.

Partial matches are expired once their earliest edge has aged out of the
query window (they can never complete any more), which keeps both memory and
join fan-out bounded on long streams.

**Exactly-once discovery.**  Local search seeded at edge ``e`` binds partner
edges only when their ingest id is below ``e.id`` (the newest-edge rule,
:mod:`repro.core.local_search`), so each primitive embedding is found once,
at its newest edge.  Joins inherit that: two sibling matches are joined when
the later of them is stored, once; and a completion is found -- and returned
-- at the newest edge of its embedding, whatever the plan or the way the
stream was cut into runs.  The matcher therefore keeps no memory of what it
has reported.  With ``dedupe_structural`` the automorphic variants of one
embedding bind the same edge set, so they share a newest edge and complete
in the same :meth:`ContinuousQueryMatcher.process_edge_leaves` call, which
keeps the one with the least :meth:`ContinuousQueryMatcher.completion_key`.

**Lazy leaves.**  Where both children of a join are leaves and one of them
is routed many times the partials its sibling stores, searching the busy
leaf eagerly mostly stores partials no partner ever joins.  The matcher
counts the records routed to each leaf and the partials each stores and,
once per window-long epoch, marks the busy leaf *lazy*
(:data:`LAZY_ENTER`, :data:`LAZY_EXIT`, :data:`LAZY_MIN`):

* a record seeding a lazy leaf first asks the sibling's bucket for a
  partner under the cut-vertex key the record binds; with none waiting it
  is neither searched nor stored.  Otherwise (or where the record leaves a
  cut vertex unbound) the leaf is searched and each embedding joined with
  the partners waiting, and nothing is stored;
* a partial the sibling stores runs a *directed search* for the lazy
  primitive from its cut vertices, binding only edges older (by ingest id)
  than the partial's newest edge, and joins what it finds.

A pair of embeddings joins at the newer one's newest edge either way: when
the lazy side is newer its record finds the stored partner, when the
sibling's is newer the directed search finds the lazy side, and neither
finds the other case, so every completion is still found exactly once,
at its newest edge.  Going lazy drops the leaf's bucket; going back to
eager rebuilds it, store-only, from the window store.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..graph.types import Edge
from ..graph.window import ExpiryQueue, TimeWindow
from ..isomorphism.match import Match
from ..query.compile import CompiledQuery
from ..query.query_graph import QueryGraph
from .decomposition import Decomposition
from .join import JoinPlan, try_join
from .local_search import LocalSearcher
from .probe import CutKeys, cut_keys
from .sjtree import EARLIEST, LATEST, LeafWork, MatchKey, Partial, SJTree, SJTreeNode

__all__ = [
    "LAZY_ENTER",
    "LAZY_EXIT",
    "LAZY_MIN",
    "MatcherStats",
    "ContinuousQueryMatcher",
    "SweepQueues",
]

_INF = float("inf")

#: A leaf goes lazy when, over one epoch (a window's length of stream
#: time), it was routed at least this many times the partials its sibling
#: stored: each of those partials then costs one directed search where
#: eager search paid for this many records.
LAZY_ENTER = 8
#: A lazy leaf goes back to eager when it was routed fewer than this many
#: times the partials its sibling stored over an epoch.  The gap to
#: :data:`LAZY_ENTER` is the hysteresis: a ratio hovering near either
#: bound does not flip the mode every epoch, and each flip back costs a
#: rebuild of the leaf's bucket from the window store.
LAZY_EXIT = 2
#: Fewest records routed to a leaf in one epoch for it to go lazy: below
#: this the eager search costs little, and a ratio of small counts is noise.
LAZY_MIN = 64


def _repr_order(names: Iterable[Any]) -> List[Any]:
    """``names`` in the order a sort of ``repr``-ed binding tuples puts them.

    A binding prints as ``(name, ...)``: its name's ``repr`` and then a
    comma, so that string decides the order, whatever is bound.
    """
    return sorted(names, key=lambda name: repr(name) + ",")


class MatcherStats:
    """Counters describing the work performed by one matcher."""

    def __init__(self) -> None:
        self.edges_processed = 0
        self.leaf_matches_found = 0
        self.joins_attempted = 0
        self.joins_succeeded = 0
        self.complete_matches = 0
        #: Completions dropped by ``dedupe_structural`` (automorphic
        #: variants of an edge set already reported in the same call).
        self.duplicate_matches_suppressed = 0
        self.partial_matches_expired = 0
        self.peak_stored_matches = 0

    def to_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dict."""
        return {
            "edges_processed": self.edges_processed,
            "leaf_matches_found": self.leaf_matches_found,
            "joins_attempted": self.joins_attempted,
            "joins_succeeded": self.joins_succeeded,
            "complete_matches": self.complete_matches,
            "duplicate_matches_suppressed": self.duplicate_matches_suppressed,
            "partial_matches_expired": self.partial_matches_expired,
            "peak_stored_matches": self.peak_stored_matches,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, int]) -> "MatcherStats":
        """Rebuild counters from :meth:`to_dict` output: each counter, and nothing else."""
        stats = cls()
        names = stats.to_dict()
        unknown = sorted(set(payload) - set(names))
        if unknown:
            raise ValueError(f"matcher stats carry unknown counters: {', '.join(unknown)}")
        for name in names:
            setattr(stats, name, payload[name])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatcherStats({self.to_dict()})"


class ContinuousQueryMatcher:
    """Incremental matcher for one query over one dynamic graph.

    Parameters
    ----------
    query:
        The registered query graph.
    decomposition:
        The decomposition produced by the planner; its order defines the
        SJ-Tree join order.
    graph:
        The shared dynamic graph store (edges must be ingested into it
        *before* being passed to :meth:`process_edge`).
    window:
        The query's time window ``tW``.
    dedupe_structural:
        When ``True``, complete matches that bind the same set of data edges
        are reported once, as the variant with the least
        :meth:`completion_key`.  Queries with automorphic patterns (e.g.
        "three articles share a keyword") otherwise report every permutation
        of the interchangeable variables as a separate match; event-oriented
        users generally want one event per edge set.

    The query's predicate trees are compiled into flat closures
    (:class:`~repro.query.compile.CompiledQuery`) once, here at
    construction, and handed to the local search.  Construction is the
    single compile point: registration, replanning and snapshot restore all
    build a fresh matcher, so each of them recompiles against the current
    plan.
    """

    def __init__(
        self,
        query: QueryGraph,
        decomposition: Decomposition,
        graph: Any,
        window: Optional[TimeWindow] = None,
        dedupe_structural: bool = False,
    ) -> None:
        self.query = query
        self.decomposition = decomposition
        self.graph = graph
        self.window = window if window is not None else TimeWindow(None)
        self.dedupe_structural = dedupe_structural
        #: Per-query compiled predicate tables.  Never serialised: snapshots
        #: carry only a shape marker and restore recompiles by rebuilding
        #: the matcher.
        self.compiled = CompiledQuery(query)
        self.tree: SJTree = decomposition.build_tree()
        self.tree.validate()
        #: Layout of the completions: the query's declaration order.
        self._root = self.tree.root.layout  # repro-lint: ignore[snapshot-coverage]
        # completion_key's pickers, built at its first call: a query whose
        # triggers never complete twice never needs them
        self._key_plan: Optional[Tuple[Tuple[int, ...], Tuple[int, ...], bool]] = None  # repro-lint: ignore[snapshot-coverage]
        # the leaves' primitives are lowered into compiled probes here, so
        # registration, replan and restore all get probes for the current plan
        leaves = self.tree.leaves()
        self.local_searcher = LocalSearcher(
            graph,
            self.window,
            compiled=self.compiled,
            primitives=[leaf.subgraph for leaf in leaves],
            layouts={leaf.subgraph: leaf.layout for leaf in leaves},
        )
        self.stats = MatcherStats()
        #: Partial matches stored across the tree, kept in step with every
        #: store / expiry / clear so the peak needs no whole-tree recount;
        #: rebuilt from the restored tree on :meth:`load_state`.
        self._tree_stored = 0
        #: The least ``earliest`` among the stored partials (``inf`` when
        #: none), so ``window.is_expired(next_expiry, now)`` tells whether a
        #: sweep at ``now`` drops anything (:meth:`expiry_due`).  Lowered by
        #: every store, recomputed from the nodes' expiry heads by every
        #: sweep that drops something; derived, so restore recomputes it
        #: from the restored tree.
        self.next_expiry = float("inf")  # repro-lint: ignore[snapshot-coverage]
        #: The ``next_expiry`` this matcher was last queued at by the
        #: engine's :class:`SweepQueues` (``inf``: not queued; ``-inf``: an
        #: unbounded window, never queued).  Derived: the queues are rebuilt
        #: from ``next_expiry`` after a restore.
        self.queued_expiry = _INF if self.window.bounded else -_INF  # repro-lint: ignore[snapshot-coverage]
        #: The joins whose two children are both leaves, ``(left, right)``:
        #: where a leaf may go lazy.  Only under a bounded window (the
        #: epoch is the window's length), a non-empty cut (the partner
        #: probe's key) and no vertex-attribute check on either leaf: a
        #: lazy leaf is searched later than its records arrive, and a
        #: vertex's attributes may change in between.  Derived from the plan.
        self._pairs: List[Tuple[SJTreeNode, SJTreeNode]] = []  # repro-lint: ignore[snapshot-coverage]
        #: Per leaf that has been lazy, its partner probe (:func:`cut_keys`),
        #: built at the leaf's first lazy record.
        self._cut_keys: Dict[int, Optional[CutKeys]] = {}  # repro-lint: ignore[snapshot-coverage]
        if self.window.bounded:
            for node in self.tree.nodes.values():
                if node.left_id is None or node.right_id is None or not node.cut_vertices:
                    continue
                left, right = self.tree.node(node.left_id), self.tree.node(node.right_id)
                if left.is_leaf and right.is_leaf and not self._checks_vertices(node):
                    self._pairs.append((left, right))
        #: Stream time at which the current marking epoch ends: ``-inf``
        #: before the first record has opened one, ``inf`` with no pair.
        self.epoch_end = -_INF if self._pairs else _INF

    def _checks_vertices(self, node: SJTreeNode) -> bool:
        """Whether the query checks the attributes of a vertex of ``node``'s subgraph."""
        checks = self.compiled.vertex_checks
        return any(checks[vertex.name] is not None for vertex in node.subgraph.vertices())

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """``True`` when the matcher stores no partial (:meth:`expiry_due` is never true)."""
        return not self._tree_stored

    def expiry_due(self, now: float) -> bool:
        """``True`` when a sweep at ``now`` (:meth:`expire_partials`) drops something.

        ``window.is_expired(t, now)`` is monotone in ``t`` -- ``now - t``
        only shrinks as ``t`` grows, in floating point too -- so it holds
        for some stored partial exactly when it holds for the earliest one.
        An idle matcher is never due, and neither is one with an unbounded
        window.
        """
        return self.window.is_expired(self.next_expiry, now)

    def expire_partials(self, now: float) -> int:
        """Sweep partial matches that can no longer complete; return the count dropped.

        Expiry is a pure memory/perf optimisation: an expired partial would be
        rejected by the window check at join or emit time anyway, so sweeping
        less often (as the engine's batched ingest fast path does -- once per
        batch instead of once per edge) never changes the match set.
        """
        if not self.window.bounded:
            return 0
        dropped = self.tree.expire_matches(self.window, now)
        self.stats.partial_matches_expired += dropped
        if dropped:  # a sweep is the only way a partial leaves the tree
            self._tree_stored -= dropped
            self.next_expiry = self.tree.earliest_stored()
        return dropped

    def process_edge_leaves(
        self, edge: Edge, leaves: Iterable[SJTreeNode], emit: bool = True
    ) -> List[Partial]:
        """Run local search for ``edge`` on a subset of SJ-Tree leaves.

        This is the per-leaf entry point the engine's dispatch index uses:
        when the index proves an edge can only seed some of the leaves, only
        those are searched.  Callers are responsible for expiry cadence (see
        :meth:`expire_partials`); :meth:`process_edge` composes both.

        Returns the completions ``edge`` is the newest edge of, as partials
        in the root's layout (:meth:`to_match` builds their matches).  With
        ``emit=False`` partials are stored and joined as usual but
        completions are neither stored, counted nor returned: a replan
        replays the window store that way, over history already reported.
        """
        self.stats.edges_processed += 1
        # a replan's replay (emit=False) re-searches history: it marks nothing
        if edge.timestamp >= self.epoch_end and emit:
            self._close_epoch(edge)
        completions: List[Partial] = []
        found_any = False
        find = self.local_searcher.find
        for leaf in leaves:
            work = leaf.work
            work.records_routed += 1
            if work.lazy:
                if self._search_lazy(leaf, edge, completions):
                    found_any = True
                continue
            primitive_matches = find(leaf.subgraph, edge)
            if not primitive_matches:
                continue
            found_any = True
            work.embeddings_found += len(primitive_matches)
            self.stats.leaf_matches_found += len(primitive_matches)
            for partial in primitive_matches:
                self._insert(leaf, partial, completions)
        if not emit:
            completions = []
        elif completions:
            completions = self._complete(completions)
        # the stored count only grows inside a call (expiry runs between
        # calls), so its value here is this call's maximum; partials rebuilt
        # at a re-plan or restore count from the first insert that follows
        if found_any and self._tree_stored > self.stats.peak_stored_matches:
            self.stats.peak_stored_matches = self._tree_stored
        return completions

    def process_edge(self, edge: Edge) -> List[Match]:
        """Process one newly-ingested edge; return the new complete matches."""
        self.expire_partials(edge.timestamp)
        return [self.to_match(partial) for partial in self.process_edge_leaves(edge, self.tree.leaves())]

    # ------------------------------------------------------------------
    # insertion / join cascade
    # ------------------------------------------------------------------
    def _insert(self, node: SJTreeNode, partial: Partial, out: List[Partial]) -> None:
        join = node.join
        if join is None:
            # a completion (for a single-primitive query the leaf is the root)
            if self.window.admits_span(partial[LATEST] - partial[EARLIEST]):
                out.append(partial)
            return
        key = node.store_partial(partial)
        self._tree_stored += 1
        if partial[EARLIEST] < self.next_expiry:
            self.next_expiry = partial[EARLIEST]
        buckets, parent, plan, left, lazy_sibling = join
        bucket = buckets.get(key)
        if bucket:
            # the cascade stores only into ancestors, never into the
            # sibling, so its bucket is read in place
            self._join(partial, bucket.values(), parent, plan, left, out)
        if lazy_sibling is not None:
            # a lazy sibling's bucket is empty: what it would hold is
            # searched for instead
            self._join_directed(node, partial, key, lazy_sibling, out)

    def _join(
        self,
        partial: Partial,
        partners: Iterable[Partial],
        parent: SJTreeNode,
        plan: Optional[JoinPlan],
        left: bool,
        out: List[Partial],
    ) -> None:
        """Join ``partial`` (the left child's when ``left``) with each partner; insert what joins."""
        if plan is None:
            plan = self.tree.compile_join(parent, self.window)
        stats = self.stats
        for candidate in partners:
            stats.joins_attempted += 1
            if left:
                joined = try_join(partial, candidate, plan)
            else:
                joined = try_join(candidate, partial, plan)
            if joined is None:
                continue
            stats.joins_succeeded += 1
            self._insert(parent, joined, out)

    # ------------------------------------------------------------------
    # lazy leaves
    # ------------------------------------------------------------------
    def _search_lazy(self, leaf: SJTreeNode, edge: Edge, out: List[Partial]) -> bool:
        """Search lazy ``leaf`` for ``edge`` only where its sibling holds a partner; store nothing.

        Returns whether an embedding was found.
        """
        join = leaf.join
        assert join is not None
        buckets = join[0]
        try:
            table = self._cut_keys[leaf.id]
        except KeyError:
            table = self._cut_keys[leaf.id] = cut_keys(leaf.subgraph, leaf.key_vertices)
        if table is not None:
            pickers = table.get(edge.label, ())
            if pickers is not None:
                ends = (edge.source, edge.target)
                for pick in pickers:
                    if buckets.get(pick(ends)):
                        break
                else:
                    leaf.work.lazy_misses += 1
                    return False
        parent, plan, left = join[1], join[2], join[3]
        primitive_matches = self.local_searcher.find(leaf.subgraph, edge)
        if not primitive_matches:
            return False
        leaf.work.embeddings_found += len(primitive_matches)
        self.stats.leaf_matches_found += len(primitive_matches)
        key_of = leaf.key_of
        for partial in primitive_matches:
            bucket = buckets.get(key_of(partial))
            if not bucket:
                continue
            if plan is None:
                plan = self.tree.compile_join(parent, self.window)
            # the cascade stores only into ancestors: the bucket is read in place
            self._join(partial, bucket.values(), parent, plan, left, out)
        return True

    def _join_directed(
        self,
        node: SJTreeNode,
        partial: Partial,
        key: MatchKey,
        lazy: SJTreeNode,
        out: List[Partial],
    ) -> None:
        """Join a partial ``node`` just stored with what a directed search finds for ``lazy``.

        The search binds the lazy primitive's cut vertices as ``partial``
        does and reads only edges below ``partial``'s newest edge, bounded
        by the window around ``partial``'s extent.
        """
        lazy.work.directed_searches += 1
        newest = max(edge.id for edge in node.layout.edges_of(partial))
        duration = self.window.duration
        found = self.local_searcher.find_directed(
            lazy.subgraph,
            lazy.key_vertices,
            key,
            newest,
            partial[LATEST] - duration,
            partial[EARLIEST] + duration,
        )
        if len(lazy.key_vertices) > 1:
            key_of = lazy.key_of
            found = [match for match in found if key_of(match) == key]
        if not found:
            return
        lazy.work.embeddings_found += len(found)
        self.stats.leaf_matches_found += len(found)
        join = node.join
        assert join is not None
        self._join(partial, found, join[1], join[2], join[3], out)

    def _close_epoch(self, edge: Edge) -> None:
        """End the marking epoch ``edge`` falls past: re-mark each pair, open the next epoch.

        Each pair compares, during the epoch just ended, the records routed
        to each leaf with the partials its sibling stored; the first epoch
        only opens.  Runs before ``edge`` is searched, so a rebuilt bucket
        holds exactly the embeddings whose newest edge precedes it.
        """
        if self.epoch_end > -_INF:
            for left, right in self._pairs:
                self._mark(left, right, edge.id)
        for pair in self._pairs:
            for leaf in pair:
                leaf.routed_mark = leaf.work.records_routed
                leaf.stored_mark = leaf.total_inserted
        self.epoch_end = edge.timestamp + self.window.duration

    def _mark(self, left: SJTreeNode, right: SJTreeNode, bound: int) -> None:
        """Switch one pair's modes from its epoch counts (at most one leaf is lazy).

        A lazy leaf costs one directed search per partial its sibling
        stores, an eager one a search per record routed to it, so each
        leaf's routed records are weighed against its sibling's stored
        partials.  Both are counted in either mode: a lazy leaf's records
        are still routed to it, and its sibling stays eager.
        """
        routed_left = left.work.records_routed - left.routed_mark
        routed_right = right.work.records_routed - right.routed_mark
        stored_left = left.total_inserted - left.stored_mark
        stored_right = right.total_inserted - right.stored_mark
        if left.work.lazy:
            if routed_left < LAZY_EXIT * stored_right:
                self._go_eager(left, bound)
        elif right.work.lazy:
            if routed_right < LAZY_EXIT * stored_left:
                self._go_eager(right, bound)
        elif routed_left >= LAZY_MIN and routed_left >= LAZY_ENTER * stored_right:
            self._go_lazy(left)
        elif routed_right >= LAZY_MIN and routed_right >= LAZY_ENTER * stored_left:
            self._go_lazy(right)

    def _go_lazy(self, leaf: SJTreeNode) -> None:
        """Mark ``leaf`` lazy and drop its bucket: the directed search stands in for it."""
        leaf.work.mode_flips += 1
        self._tree_stored -= leaf.clear_matches()
        self.tree.set_lazy(leaf, True)
        self.next_expiry = self.tree.earliest_stored()

    def _go_eager(self, leaf: SJTreeNode, bound: int) -> None:
        """Mark ``leaf`` eager and rebuild its bucket, store-only, from the window store.

        Every retained edge of the leaf's labels below ``bound`` (the
        record about to be searched) is searched again in ingest order, as
        the eager leaf would have searched it, and what it finds is stored
        without joining: those pairs were joined while the leaf was lazy.
        """
        leaf.work.mode_flips += 1
        self.tree.set_lazy(leaf, False)
        find = self.local_searcher.find
        primitive = leaf.subgraph
        for edge, _ in self.history([leaf], bound):
            for partial in find(primitive, edge):
                leaf.store_partial(partial)
                leaf.work.embeddings_found += 1
                self._tree_stored += 1
                if partial[EARLIEST] < self.next_expiry:
                    self.next_expiry = partial[EARLIEST]
        if self._tree_stored > self.stats.peak_stored_matches:
            self.stats.peak_stored_matches = self._tree_stored

    def history(
        self, leaves: List[SJTreeNode], bound: float = _INF
    ) -> List[Tuple[Edge, List[SJTreeNode]]]:
        """The retained edges below ``bound`` some of ``leaves`` can bind, with the leaves that can.

        Edges come in ingest order, each with the leaves (in ``leaves``
        order) that carry its label or an unlabelled query edge: the
        others cannot bind it, so a replay of the window store searches
        only these.
        """
        labels = [(leaf, {edge.label for edge in leaf.subgraph.edges()}) for leaf in leaves]
        binders: Dict[str, List[SJTreeNode]] = {}
        found: List[Tuple[Edge, List[SJTreeNode]]] = []
        for edge in self.graph.edges():
            if edge.id >= bound:
                continue
            label = edge.label
            if label not in binders:
                binders[label] = [leaf for leaf, own in labels if label in own or None in own]
            if binders[label]:
                found.append((edge, binders[label]))
        found.sort(key=lambda item: item[0].id)
        return found

    def _complete(self, completions: List[Partial]) -> List[Partial]:
        """Report one call's completions: filter and count.

        Under ``dedupe_structural`` completions that bind the same edge set
        collapse to the one with the least :meth:`completion_key`, so the
        variant reported is a function of the match content, not of the
        plan.
        """
        if self.dedupe_structural and len(completions) > 1:
            best: Dict[FrozenSet[int], Tuple[List[str], Partial]] = {}
            edges_of = self._root.edges_of
            for partial in completions:
                key = self.completion_key(partial)
                edge_set = frozenset(edge.id for edge in edges_of(partial))
                held = best.get(edge_set)
                if held is None or key < held[0]:
                    best[edge_set] = (key, partial)
            self.stats.duplicate_matches_suppressed += len(completions) - len(best)
            completions = [partial for _, partial in best.values()]
        self.stats.complete_matches += len(completions)
        return completions

    # ------------------------------------------------------------------
    # completions
    # ------------------------------------------------------------------
    def to_match(self, partial: Partial) -> Match:
        """The :class:`Match` of a completion: the root layout and the tuple itself.

        An emitted event retains just that (:class:`~repro.core.sjtree.LaidOutMatch`);
        its ``vertex_map`` and ``edge_map`` are read-only copies, built in
        query declaration order on each read.
        """
        return self._root.to_match(partial)

    def completion_key(self, partial: Partial) -> List[str]:
        """A plan-independent, cross-process-stable ordering key for a completion.

        Within a single trigger edge the *discovery* order of completions is
        an artefact of the active plan (leaf iteration and join order), so
        it cannot survive a replan; same-trigger events are ordered by this
        key instead, which depends only on the match content.  The key is
        the ``repr`` of every bound value: each vertex, then each edge's
        source, target, label and timestamp, with vertices and edges in the
        order of their names' ``repr`` -- the order ``repr``-sorting the
        match's items puts them in.  Keys of two completions of one query
        therefore compare as the ``repr`` of their sorted items does
        (``tests/test_exactly_once.py`` holds that oracle), and reprs, not
        raw values, keep mixed vertex-id types comparable.

        When every query edge is directed and labelled, each edge adds only
        its timestamp: its source and target are the vertices already in
        the key and its label is the query's, so the values left out could
        only differ where an earlier one already does.
        """
        plan = self._key_plan
        if plan is None:
            # slots in the order a repr sort of the match's items lists them
            root = self._root
            plan = self._key_plan = (
                tuple(root.vertex_slot(name) for name in _repr_order(root.vertices)),
                tuple(root.edge_slot(edge) for edge in _repr_order(root.edges)),
                all(edge.directed and edge.label is not None for edge in self.query.edges()),
            )
        vertex_slots, edge_slots, timestamps_only = plan
        key = [repr(partial[slot]) for slot in vertex_slots]
        if timestamps_only:
            key += [repr(partial[slot].timestamp) for slot in edge_slots]
        else:
            for slot in edge_slots:
                edge = partial[slot]
                key += (repr(edge.source), repr(edge.target), repr(edge.label), repr(edge.timestamp))
        return key

    # ------------------------------------------------------------------
    # introspection used by experiments / visualisation
    # ------------------------------------------------------------------
    def stored_partial_matches(self) -> int:
        """Return the number of partial matches currently stored in the SJ-Tree."""
        return self.tree.total_stored_matches()

    def matched_edge_fraction(self) -> float:
        """Return the largest fraction of query edges covered by any stored match.

        This is the Fig. 7 progress measure: "the fraction of query graph
        being matched as measured by the number of edges".  Completions are
        not stored, so once the matcher has reported one the fraction is 1.0.
        It reads stored partials only: a lazy leaf stores none, so while it
        is lazy its primitive counts only through partials joined above it.
        """
        total = self.query.edge_count()
        if total == 0:
            return 0.0
        if self.stats.complete_matches:
            return 1.0
        best = 0
        for node in self.tree.nodes.values():
            if node.match_count() > 0:
                best = max(best, node.subgraph.edge_count())
        return best / total

    def node_progress(self) -> Dict[int, Dict[str, float]]:
        """Return per-node progress: stored matches and edge-coverage fraction.

        A lazy leaf stores nothing, so it reports 0 matches while lazy.
        """
        total = max(1, self.query.edge_count())
        return {
            node.id: {
                "matches": float(node.match_count()),
                "edge_fraction": node.subgraph.edge_count() / total,
                "is_leaf": float(node.is_leaf),
            }
            for node in self.tree.nodes.values()
        }

    def leaf_work(self) -> List[Dict[str, Any]]:
        """Each leaf's work counters and mode, in decomposition order (``metrics()["leaves"]``)."""
        return [
            dict(asdict(leaf.work), partials_stored=leaf.total_inserted)
            for leaf in self.tree.leaves()
        ]

    def reset(self) -> None:
        """Drop all stored matches and counters (keeps the plan).

        Every leaf is eager again, with its work counters at zero, and no
        marking epoch is open.
        """
        for leaf in self.tree.leaves():
            if leaf.work.lazy:
                self.tree.set_lazy(leaf, False)
            leaf.work = LeafWork()
            leaf.routed_mark = leaf.stored_mark = 0
        for node in self.tree.nodes.values():
            node.total_inserted = node.total_expired = 0
        self.tree.clear_matches()
        self._tree_stored = 0
        self.next_expiry = float("inf")
        self.stats = MatcherStats()
        self.epoch_end = -_INF if self._pairs else _INF

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serialise the matcher's mutable state (tree collections, counters).

        The plan-derived structure (decomposition, SJ-Tree shape, window) is
        *not* stored here -- the owning engine persists the plan and rebuilds
        the matcher from it, then calls :meth:`load_state` on the fresh
        instance.
        """
        return {
            "tree": self.tree.state_dict(),
            "stats": self.stats.to_dict(),
            # the leaves' modes are in the tree's state; the epoch in progress
            # is here (``None``: none opened yet, or no pair to mark)
            "epoch_end": self.epoch_end if abs(self.epoch_end) < _INF else None,
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict` onto a freshly-built matcher."""
        self.tree.load_state(state["tree"])
        for leaf in self.tree.leaves():
            if leaf.work.lazy:
                self.tree.set_lazy(leaf, True)
        self._tree_stored = self.tree.total_stored_matches()
        self.next_expiry = self.tree.earliest_stored()
        self.stats = MatcherStats.from_dict(state["stats"])
        epoch_end = state["epoch_end"]
        if epoch_end is not None:
            self.epoch_end = epoch_end


class SweepQueues:
    """The matchers holding a partial, on one min-queue per window, keyed by ``next_expiry``.

    ``window.is_expired(t, now)`` is monotone in ``t``, so inside one
    window's queue the head decides the whole queue: a sweep at ``now`` pops
    exactly the entries expired there (:meth:`ExpiryQueue.pop_expired_at`)
    and never looks at a matcher with nothing due, nor at an idle one.

    A matcher is queued at its ``next_expiry`` when a search lowers it below
    the value it was last queued at (``queued_expiry``; the engine tests
    that after each search, :meth:`push` queues), and again after a sweep
    leaves it with partials.  An entry pushed before a lower one for the
    same matcher is *stale*: when it pops, the matcher's ``queued_expiry``
    is not expired yet and the entry is dropped.  A popped live entry is
    re-checked with the exact :meth:`ContinuousQueryMatcher.expiry_due`
    test, so a matcher swept some other way is re-queued, not swept again.

    The queues describe one set of registered matchers, named by the
    dispatch index's ``version``; registering, unregistering, a replan that
    rebuilds a tree and a restore all change it, and the owner then calls
    :meth:`rebuild` -- O(queries), never per run.
    """

    def __init__(self) -> None:
        self.queues: Dict[TimeWindow, ExpiryQueue[ContinuousQueryMatcher]] = {}
        #: The dispatch-index version the queues were built for (``-1``: never).
        self.version = -1

    def rebuild(self, matchers: Iterable[ContinuousQueryMatcher], version: int) -> None:
        """Queue every bounded matcher that holds a partial, and nothing else."""
        self.queues = {}
        self.version = version
        for matcher in matchers:
            if matcher.window.bounded:
                matcher.queued_expiry = _INF
                if matcher.next_expiry < _INF:
                    self.push(matcher)

    def push(self, matcher: ContinuousQueryMatcher) -> None:
        """Queue ``matcher`` at its ``next_expiry`` (callers test ``next_expiry < queued_expiry``)."""
        queue = self.queues.get(matcher.window)
        if queue is None:
            queue = self.queues[matcher.window] = ExpiryQueue()
        queue.push(matcher.next_expiry, matcher)
        matcher.queued_expiry = matcher.next_expiry

    def sweep(self, now: float) -> int:
        """Sweep every queued matcher with a partial expired at ``now``; return the count dropped."""
        dropped = 0
        for window, queue in self.queues.items():
            for matcher in queue.pop_expired_at(window, now):
                if not window.is_expired(matcher.queued_expiry, now):
                    continue  # stale: the matcher is queued lower, or was swept already
                matcher.queued_expiry = _INF
                if matcher.expiry_due(now):
                    dropped += matcher.expire_partials(now)
                if matcher.next_expiry < _INF:
                    self.push(matcher)
        return dropped
