"""The incremental continuous-query matcher (paper section 4.2).

One :class:`ContinuousQueryMatcher` serves one registered query.  Its life
cycle per incoming edge is exactly the paper's description of query
execution:

1. *Local search* -- for every SJ-Tree leaf, search the neighbourhood of the
   new edge for embeddings of that leaf's primitive that use the new edge.
2. *Leaf insertion* -- each embedding found is inserted into the leaf's match
   collection (keyed by the parent's cut vertices).
3. *Upward joins* -- the new match is probed against the sibling node's
   collection; every successful combination is inserted one level up, and
   the process repeats until either no join succeeds or the root is reached.
4. *Completion* -- a match inserted at the root is a complete match of the
   query and is returned to the engine (which wraps it in a
   :class:`~repro.streaming.events.MatchEvent`).

Partial matches are expired once their earliest edge has aged out of the
query window (they can never complete any more), which keeps both memory and
join fan-out bounded on long streams.

Duplicate-suppression memory ("which matches have we already reported?") is
held in :class:`~repro.sketch.dedup.DedupMemory` -- a cuckoo-filter front
over a bounded exact confirm store -- instead of grow-only sets.  Entries
expire against the *graph retention* window (not the query window): the only
mechanisms that can re-derive an already-reported identity are same-run
re-discovery and replan migration replay, both of which operate exclusively
on edges still retained in the graph, so an identity whose earliest edge has
been evicted can never be probed again and its memory can be reclaimed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..graph.types import Edge
from ..graph.window import TimeWindow
from ..isomorphism.match import Match
from ..query.compile import CompiledQuery
from ..query.query_graph import QueryGraph
from ..sketch import DedupMemory
from .decomposition import Decomposition
from .join import try_join
from .local_search import LocalSearcher
from .sjtree import SJTree, SJTreeNode

__all__ = ["MatcherStats", "ContinuousQueryMatcher"]


def _identity_key(identity: Tuple[frozenset, frozenset]) -> str:
    """Render a match identity as its canonical string key.

    Uses the same sorted-``repr`` canonicalisation the matcher snapshots
    have always used for identity sets, so keys are hash-seed independent,
    JSON-safe, and equal to ``repr()`` of the legacy snapshot entries
    (which is how pre-sketch snapshots are migrated on load).
    """
    vertices, edges = identity
    return repr(
        [
            sorted(([name, vertex] for name, vertex in vertices), key=repr),
            sorted([query_edge, edge_id] for query_edge, edge_id in edges),
        ]
    )


def _edge_set_key(edge_set: FrozenSet[int]) -> str:
    """Render a structural identity (set of data edge ids) canonically."""
    return repr(sorted(edge_set))


class MatcherStats:
    """Counters describing the work performed by one matcher."""

    def __init__(self) -> None:
        self.edges_processed = 0
        self.leaf_matches_found = 0
        self.joins_attempted = 0
        self.joins_succeeded = 0
        self.complete_matches = 0
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
    def from_dict(cls, payload: Dict[str, int]) -> "MatcherStats":
        """Rebuild counters from :meth:`to_dict` output."""
        stats = cls()
        for name, value in payload.items():
            setattr(stats, name, value)
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
        as an already-reported match are suppressed.  Queries with automorphic
        patterns (e.g. "three articles share a keyword") otherwise report
        every permutation of the interchangeable variables as a separate
        match; event-oriented users generally want one event per edge set.
    store_complete_matches:
        Keep complete matches in the root's collection (Property 3 applied to
        the root).  Disable to save memory on very high match-rate streams.
    expiry_min_interval:
        Minimum stream-time gap between partial-match expiry sweeps; ``0.0``
        (default) sweeps on every :meth:`process_edge`.  The engine's batched
        ingest fast path instead calls :meth:`expire_partials` once per batch.
    dedup_memory_budget:
        Maximum number of entries in each duplicate-suppression store
        (``None`` = unbounded).  When the budget covers every identity alive
        inside the graph retention horizon -- the common case -- suppression
        is exact; under adversarial cardinality the store stays bounded and
        the oldest-horizon entries are evicted first, deterministically.
    columnar:
        Compile the query's predicate trees into flat closures
        (:class:`~repro.query.compile.CompiledQuery`) once, here at
        construction, and hand them to the local search -- which also
        enables the graph's sorted-array timestamp range scans during
        candidate enumeration.  Construction is the single compile point:
        registration, replanning and snapshot restore all build a fresh
        matcher, so each of them recompiles against the current plan.
        ``False`` (default) is the interpreted path, verbatim.
    """

    def __init__(
        self,
        query: QueryGraph,
        decomposition: Decomposition,
        graph,
        window: Optional[TimeWindow] = None,
        dedupe_structural: bool = False,
        store_complete_matches: bool = True,
        expiry_min_interval: float = 0.0,
        dedup_memory_budget: Optional[int] = None,
        columnar: bool = False,
    ):
        self.query = query
        self.decomposition = decomposition
        self.graph = graph
        self.window = window if window is not None else TimeWindow(None)
        self.dedupe_structural = dedupe_structural
        self.store_complete_matches = store_complete_matches
        #: Minimum stream-time gap between expiry sweeps (0.0 sweeps on every
        #: call); see :meth:`SJTree.expire_matches` for why skipping is safe.
        self.expiry_min_interval = expiry_min_interval
        self.dedup_memory_budget = dedup_memory_budget
        self.columnar = bool(columnar)
        #: Per-query compiled predicate tables (``None`` on the interpreted
        #: path).  Never serialised: snapshots carry only a shape marker and
        #: restore recompiles by rebuilding the matcher.
        self.compiled: Optional[CompiledQuery] = (
            CompiledQuery(query) if self.columnar else None
        )
        self.tree: SJTree = decomposition.build_tree()
        self.tree.validate()
        # the leaves' primitives are lowered into compiled probes here, so
        # registration, replan and restore all get probes for the current plan
        self.local_searcher = LocalSearcher(
            graph,
            self.window,
            compiled=self.compiled,
            primitives=[leaf.subgraph for leaf in self.tree.leaves()],
        )
        self.stats = MatcherStats()
        #: Matches stored across all tree nodes, kept in step with every
        #: store / expiry / clear so the peak needs no whole-tree recount;
        #: rebuilt from the restored tree on :meth:`load_state`.
        self._tree_stored = 0
        self._dedup_identities = DedupMemory(budget=dedup_memory_budget, seed=31)
        self._dedup_edge_sets = DedupMemory(budget=dedup_memory_budget, seed=37)

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """``True`` when :meth:`expire_partials` would find nothing to visit.

        No stored match and no duplicate-suppression entry: the engine's
        batched path skips the sweep call for such a matcher (most of a large
        query set, most of the time, on short watermark-released runs).
        """
        return not (self._tree_stored or self._dedup_identities or self._dedup_edge_sets)

    def expire_partials(self, now: float) -> int:
        """Sweep partial matches that can no longer complete; return the count dropped.

        Expiry is a pure memory/perf optimisation: an expired partial would be
        rejected by the window check at join or emit time anyway, so sweeping
        less often (as the engine's batched ingest fast path does -- once per
        batch instead of once per edge) never changes the match set.
        """
        if not self.window.bounded:
            return 0
        dropped = self.tree.expire_matches(self.window, now, self.expiry_min_interval)
        self.stats.partial_matches_expired += dropped
        self._tree_stored -= dropped
        # Reclaim dedup memory on the same cadence, but against the *graph
        # retention* window: an identity whose earliest edge is no longer
        # retained cannot be re-derived by any path (same-run re-discovery
        # and replan migration both replay retained edges only), so its
        # entry is dead weight.  ``now`` is the caller's conservative
        # batch-start anchor, which only ever retains entries longer.
        retention = self.graph.window
        self._dedup_identities.expire(retention, now)
        self._dedup_edge_sets.expire(retention, now)
        return dropped

    def process_edge_leaves(self, edge: Edge, leaves) -> List[Match]:
        """Run local search for ``edge`` on a subset of SJ-Tree leaves.

        This is the per-leaf entry point the engine's dispatch index uses:
        when the index proves an edge can only seed some of the leaves, only
        those are searched.  Callers are responsible for expiry cadence (see
        :meth:`expire_partials`); :meth:`process_edge` composes both.
        """
        self.stats.edges_processed += 1
        new_matches: List[Match] = []
        found_any = False
        for leaf in leaves:
            primitive_matches = self.local_searcher.find(leaf.subgraph, edge)
            if not primitive_matches:
                continue
            found_any = True
            self.stats.leaf_matches_found += len(primitive_matches)
            for match in primitive_matches:
                self._insert(leaf, match, new_matches)
        # the stored count only grows inside _insert (expiry runs between
        # calls), so its value here is this call's maximum; history adopted
        # at a re-plan or restore counts from the first insert that follows
        if found_any and self._tree_stored > self.stats.peak_stored_matches:
            self.stats.peak_stored_matches = self._tree_stored
        return new_matches

    def process_edge(self, edge: Edge) -> List[Match]:
        """Process one newly-ingested edge; return the new complete matches."""
        self.expire_partials(edge.timestamp)
        return self.process_edge_leaves(edge, self.tree.leaves())

    def process_edges(self, edges) -> List[Match]:
        """Process a batch of edges (already ingested) and return all new matches.

        The expiry sweep is amortised: one sweep anchored at the batch's
        earliest timestamp (the conservative choice -- sweeping with a later
        timestamp could drop a partial that an earlier edge of the batch can
        still legally complete), then one per-edge matching pass.
        """
        edges = list(edges)
        if not edges:
            return []
        self.expire_partials(min(edge.timestamp for edge in edges))
        results: List[Match] = []
        for edge in edges:
            results.extend(self.process_edge_leaves(edge, self.tree.leaves()))
        return results

    # ------------------------------------------------------------------
    # insertion / join cascade
    # ------------------------------------------------------------------
    def _insert(self, node: SJTreeNode, match: Match, out: List[Match]) -> None:
        if node.is_root and not node.is_leaf:
            self._emit(node, match, out)
            return
        if node.is_root and node.is_leaf:
            # single-primitive query: the leaf *is* the root
            self._emit(node, match, out)
            return
        if not node.store_match(match):
            self.stats.duplicate_matches_suppressed += 1
            return
        self._tree_stored += 1
        parent = self.tree.parent(node)
        sibling = self.tree.sibling(node)
        if parent is None or sibling is None:  # pragma: no cover - defensive
            return
        key = match.projection_key(parent.cut_vertices)
        for candidate in sibling.matches_for_key(key):
            self.stats.joins_attempted += 1
            joined = try_join(match, candidate, self.window)
            if joined is None:
                continue
            self.stats.joins_succeeded += 1
            self._insert(parent, joined, out)

    def _emit(self, root: SJTreeNode, match: Match, out: List[Match]) -> None:
        if self.window.bounded and not self.window.admits_span(match.span):
            return
        identity_key = _identity_key(match.identity())
        if self._dedup_identities.seen(identity_key):
            self.stats.duplicate_matches_suppressed += 1
            return
        if self.dedupe_structural:
            edge_set_key = _edge_set_key(match.structural_identity())
            if self._dedup_edge_sets.seen(edge_set_key):
                self.stats.duplicate_matches_suppressed += 1
                return
            self._dedup_edge_sets.add(edge_set_key, match.earliest)
        self._dedup_identities.add(identity_key, match.earliest)
        if self.store_complete_matches and root.store_match(match):
            self._tree_stored += 1
        self.stats.complete_matches += 1
        out.append(match)

    # ------------------------------------------------------------------
    # introspection used by experiments / visualisation
    # ------------------------------------------------------------------
    def stored_partial_matches(self) -> int:
        """Return the number of partial matches currently stored in the SJ-Tree."""
        return self.tree.total_stored_matches()

    def matched_edge_fraction(self) -> float:
        """Return the largest fraction of query edges covered by any stored match.

        This is the Fig. 7 progress measure: "the fraction of query graph
        being matched as measured by the number of edges".
        """
        total = self.query.edge_count()
        if total == 0:
            return 0.0
        best = 0
        for node in self.tree.nodes.values():
            if node.match_count() > 0:
                best = max(best, node.subgraph.edge_count())
        return best / total

    def node_progress(self) -> Dict[int, Dict[str, float]]:
        """Return per-node progress: stored matches and edge-coverage fraction."""
        total = max(1, self.query.edge_count())
        return {
            node.id: {
                "matches": float(node.match_count()),
                "edge_fraction": node.subgraph.edge_count() / total,
                "is_leaf": float(node.is_leaf),
            }
            for node in self.tree.nodes.values()
        }

    def reset(self) -> None:
        """Drop all partial matches and reported-match memory (keeps the plan)."""
        self.tree.clear_matches()
        self._tree_stored = 0
        self._dedup_edge_sets.clear()
        self._dedup_identities.clear()
        self.stats = MatcherStats()

    def dedup_memories(self) -> Tuple[DedupMemory, DedupMemory]:
        """Return the (identity, structural) duplicate-suppression stores.

        The engine uses this for metrics aggregation and for carrying dedup
        memory across a re-plan (the new matcher must keep suppressing what
        the old one already reported).
        """
        return self._dedup_identities, self._dedup_edge_sets

    def adopt_dedup_memories(self, identities: DedupMemory, edge_sets: DedupMemory) -> None:
        """Take ownership of another matcher's duplicate-suppression stores."""
        self._dedup_identities = identities
        self._dedup_edge_sets = edge_sets

    def adopt_complete_matches(self, matches: Iterable[Match]) -> None:
        """Store another matcher's complete-match history at this tree's root.

        The root subgraph is the full query under every plan, so a re-plan
        copies the old root collection across verbatim.
        """
        root = self.tree.root
        for match in matches:
            if root.store_match(match):
                self._tree_stored += 1

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serialise the matcher's mutable state (tree collections, dedupe memory).

        The plan-derived structure (decomposition, SJ-Tree shape, window) is
        *not* stored here -- the owning engine persists the plan and rebuilds
        the matcher from it, then calls :meth:`load_state` on the fresh
        instance.  Dedup memory is serialised verbatim (entries in insertion
        order plus the front's cell layout), so a restored matcher replays
        future suppression decisions, evictions, and sketch counters
        byte-identically.
        """
        return {
            "tree": self.tree.state_dict(),
            "stats": self.stats.to_dict(),
            "expiry_min_interval": self.expiry_min_interval,
            "dedup_identities": self._dedup_identities.state_dict(),
            "dedup_edge_sets": self._dedup_edge_sets.state_dict(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict` onto a freshly-built matcher.

        Pre-sketch snapshots stored dedup memory as canonically-sorted
        ``reported_identities`` / ``reported_edge_sets`` lists; those load
        into the bounded stores with never-expiring anchors (the
        conservative choice -- see
        :meth:`~repro.sketch.dedup.DedupMemory.load_legacy_keys`).
        """
        self.tree.load_state(state["tree"])
        self._tree_stored = self.tree.total_stored_matches()
        self.stats = MatcherStats.from_dict(state["stats"])
        self.expiry_min_interval = state["expiry_min_interval"]
        if "dedup_identities" in state:
            self._dedup_identities.load_state(state["dedup_identities"])
            self._dedup_edge_sets.load_state(state["dedup_edge_sets"])
        else:
            # Legacy entries were serialised through the same canonical
            # sorted-repr rendering _identity_key/_edge_set_key use, so the
            # stored lists repr() straight back into today's string keys.
            self._dedup_identities.load_legacy_keys(
                [repr(entry) for entry in state["reported_identities"]]
            )
            self._dedup_edge_sets.load_legacy_keys(
                [repr(entry) for entry in state["reported_edge_sets"]]
            )
