"""The StreamWorks engine: register continuous graph queries, feed the stream.

This is the system façade a user of the reproduction interacts with (the
role played by the C++ query engine plus UI in the demo).  It owns

* the shared :class:`~repro.graph.dynamic_graph.DynamicGraph` window store,
* the :class:`~repro.stats.summarizer.StreamSummarizer` that computes the
  planning statistics of the window store when a plan is made (paper
  section 4.3),
* one :class:`~repro.core.matcher.ContinuousQueryMatcher` per registered
  query, built by the :class:`~repro.core.planner.QueryPlanner`,
* event delivery (sinks / callbacks) and engine-level metrics.

The ingest hot path is indexed: a shared
:class:`~repro.core.dispatch.DispatchIndex` maps edge labels (plus endpoint
vertex-label guards) to the (query, SJ-Tree leaf) pairs that can possibly
bind them, so an edge only pays for the primitives it can affect; a label
no registered leaf can bind is turned away before its endpoints are even
looked up.  Records are processed in ordered runs, and one run is the only
execution path (:meth:`StreamWorksEngine._run_fast_path`): each record is
routed before it is stored, and only records some query edge can bind
enter the window store (with eviction deferred) -- the rest wait in a cold
ring that a late registration promotes from -- expiry is swept once per
run in the matchers holding a partial due, and each stored edge then
searches the leaves it was routed to.  A single record is a one-record
run; a batch is split at its inversion points into maximal ordered runs.
What surrounds the runs -- ``EngineConfig(allowed_lateness=...)``
event-time ingestion (a
bounded-lateness, multi-source reorder buffer that releases
watermark-closed prefixes as in-order batches and applies an explicit
late-data policy), flush, batch-cadence autosave and the replan cadence --
is the :class:`~repro.core.ingest.IngestFront` this engine shares with the
sharded one.

Typical use::

    engine = StreamWorksEngine(default_window=300.0)
    engine.register_query(smurf_query, name="smurf")
    for record in stream:
        events = engine.process_record(record)
        ...
"""

from __future__ import annotations

import copy
from collections import deque
from itertools import compress
from operator import not_
from time import perf_counter
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..graph.dynamic_graph import DynamicGraph
from ..graph.interning import InternTable
from ..graph.types import Edge, Timestamp, VertexId
from ..graph.window import TimeWindow
from ..query.compile import referenced_attr_names
from ..query.query_graph import QueryGraph
from ..stats.plan_monitor import PlanMonitor
from ..stats.summarizer import StreamSummarizer
from ..streaming.edge_stream import StreamEdge
from ..streaming.reorder import check_idle_timeout, check_lateness, ordered_run_slices
from ..streaming.events import (
    CallbackSink,
    CollectingSink,
    EventSink,
    MatchEvent,
    MultiSink,
    QueryFilterSink,
)
from ..streaming.metrics import LatencyRecorder, ThroughputMeter, replan_summary
from .decomposition import Decomposition, Strategy
from .dispatch import DispatchIndex
from .ingest import IngestFront
from .matcher import ContinuousQueryMatcher, SweepQueues
from .planner import PlannerConfig, QueryPlan, QueryPlanner
from .route_plan import RoutePlan, build_route_plan, label_guard
from .sjtree import EARLIEST

__all__ = ["EngineConfig", "RegisteredQuery", "StreamWorksEngine", "required_retention"]

#: Route-key id of every edge label the intern table does not hold.  No
#: dispatch entry names such a label, so all of them route alike.
UNBOUND_LABEL = -1


def intern_query_vocabulary(table: InternTable, query: QueryGraph) -> None:
    """Intern a query's label/attribute vocabulary at the stream boundary.

    Deterministic order -- edge labels, then vertex labels, then predicate
    attribute names in first-mention order -- so every engine that registers
    the same queries in the same order assigns the same dense ids.  The
    sharded parent relies on this when pushing its table to every shard, and
    the snapshot upgrade step on it to rebuild the ids of a format-1
    snapshot written before the table was persisted.
    """
    for query_edge in query.edges():
        if query_edge.label is not None:
            table.intern(query_edge.label)
    for query_vertex in query.vertices():
        if query_vertex.label is not None:
            table.intern(query_vertex.label)
    for query_edge in query.edges():
        table.intern_all(referenced_attr_names(query_edge.predicate))
    for query_vertex in query.vertices():
        table.intern_all(referenced_attr_names(query_vertex.predicate))


#: ``metrics()["sketch"]["dedup_memory"]``: the counters of the retired
#: duplicate-suppression memory.  Exactly-once discovery left nothing to
#: suppress, so they read zero; the keys stay for readers that still ask.
RETIRED_DEDUP_METRICS: Dict[str, Any] = {
    "budget": None,
    "entries": 0,
    "peak_entries": 0,
    "probes": 0,
    "front_negatives": 0,
    "front_false_positives": 0,
    "confirms": 0,
    "evictions_budget": 0,
    "evictions_horizon": 0,
}


def required_retention(
    windows: Iterable[TimeWindow], default_window: Optional[float]
) -> TimeWindow:
    """Return the graph retention implied by a set of query windows.

    A single unbounded query window forces unbounded retention: evicting
    anything could remove edges that query still needs.  Otherwise retention
    is the longest bounded window (folding in the engine-level default).
    The single engine and the sharded engine must agree on this formula --
    shard eviction is pinned to it -- so both call here.
    """
    windows = list(windows)
    if any(not window.bounded for window in windows):
        return TimeWindow(None)
    durations = [window.duration for window in windows if window.bounded]
    if default_window is not None:
        durations.append(float(default_window))
    if not durations:
        return TimeWindow(None)
    return TimeWindow(max(durations))


class EngineConfig:
    """Engine-level tunables (also the per-shard template of the sharded engine).

    Every numeric, string and flag parameter is validated at construction
    and raises ``ValueError`` naming the offending field (a flag must be
    ``True`` or ``False``, not merely truthy); the full reference table --
    each field, its default, and how fields interact -- is
    ``docs/operations.md``.  The headline groups:

    * **storage/semantics**: ``default_window`` (fallback query window,
      drives graph retention), ``dedupe_structural``;
    * **planning**: ``collect_statistics`` / ``track_triads`` (the
      statistics the planner consumes), ``replan_threshold`` /
      ``replan_check_every`` (error-driven replanning).  Queries are
      planned by ``Strategy.SELECTIVITY`` over 2-edge primitives unless
      ``register_query`` / ``replan_query`` name another strategy;
    * **event time**: ``allowed_lateness`` (float or ``None``),
      ``late_policy``, ``idle_source_timeout`` -- see the
      per-attribute comments below and
      :class:`~repro.streaming.reorder.ReorderBuffer`;
    * **persistence**: ``checkpoint_every`` + ``checkpoint_path``
      (batch-cadence autosave).
    """

    def __init__(
        self,
        default_window: Optional[float] = None,
        collect_statistics: bool = True,
        track_triads: bool = True,
        dedupe_structural: bool = False,
        allowed_lateness: Optional[float] = None,
        late_policy: str = "drop",
        idle_source_timeout: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        replan_threshold: Optional[float] = None,
        replan_check_every: Optional[int] = None,
    ):
        self.default_window = self.validate_default_window(default_window)
        for field, flag in (
            ("collect_statistics", collect_statistics),
            ("track_triads", track_triads),
            ("dedupe_structural", dedupe_structural),
        ):
            if type(flag) is not bool:
                raise ValueError(f"{field} must be True or False, got {flag!r}")
        self.collect_statistics = collect_statistics
        self.track_triads = track_triads
        self.dedupe_structural = dedupe_structural
        #: Event-time ingestion: when set, the engine owns a
        #: :class:`~repro.streaming.reorder.ReorderBuffer` with this lateness
        #: horizon (one watermark per record ``source_id``, released on the
        #: minimum across active sources; a sourceless stream has one global
        #: watermark).  ``process_record`` / ``process_batch`` then admit
        #: records into the buffer and process watermark-closed prefixes as
        #: in-order batches on the batched fast path; genuinely-late records
        #: are dropped and counted.  ``None`` (default) processes records
        #: exactly as they arrive.
        if allowed_lateness is not None:
            allowed_lateness = check_lateness(allowed_lateness)
        self.allowed_lateness = allowed_lateness
        #: What happens to a record below the watermark: it is dropped and
        #: counted (``records_late_dropped``).  The field accepts that one
        #: value only, so configurations that name it keep working.
        if late_policy != "drop":
            raise ValueError(
                f"late_policy {late_policy!r} was removed: late records are "
                "dropped and counted (late_policy='drop')"
            )
        self.late_policy = late_policy
        #: Idle-source timeout (stream-time units) for multi-source
        #: event-time ingestion: a source whose clock lags the global
        #: maximum by more than this is excluded from the min-watermark, so
        #: a silent collector cannot freeze the release horizon.  ``None``
        #: (default) waits for slow sources indefinitely.  Requires
        #: ``allowed_lateness``.
        if idle_source_timeout is not None:
            if allowed_lateness is None:
                raise ValueError(
                    "idle_source_timeout requires allowed_lateness (event-time "
                    "ingestion must be enabled for sources to have watermarks)"
                )
            idle_source_timeout = check_idle_timeout(idle_source_timeout, "idle_source_timeout")
        self.idle_source_timeout = idle_source_timeout
        #: Batch-cadence autosave: after every N ``process_batch`` calls the
        #: engine checkpoints itself to ``checkpoint_path`` (atomic write,
        #: monotone epoch in the manifest -- a crash mid-save leaves the
        #: previous snapshot intact).  The sharded engine autosaves at the
        #: parent; its shard engines get these fields stripped.  ``None``
        #: (default) disables autosave.
        if checkpoint_every is not None:
            checkpoint_every = int(checkpoint_every)
            if checkpoint_every <= 0:
                raise ValueError("checkpoint_every must be a positive batch count or None")
            if not checkpoint_path:
                raise ValueError("checkpoint_every requires a checkpoint_path to save to")
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        #: Adaptive replanning -- the paper's stated future work of
        #: "continuously collecting the statistics information from the data
        #: stream and updating the query decomposition and search strategy":
        #: maximum tolerated relative error between a plan's recorded
        #: selectivity estimates and the live estimates the current
        #: statistics would produce (per primitive; the plan's worst
        #: primitive is scored).  When a query's error exceeds the threshold
        #: at a replan check, the query is re-planned at that quiescent
        #: boundary with live partial-match state migrated -- the match set
        #: and event order are byte-for-byte identical to a never-replanned
        #: engine (``tests/test_replan_conformance.py``).  Requires
        #: ``collect_statistics``; ``None`` (default) disables the monitor's
        #: trigger (``run_replan_check`` then raises).
        if replan_threshold is not None:
            replan_threshold = float(replan_threshold)
            if not replan_threshold > 0.0:  # also rejects NaN
                raise ValueError(
                    "replan_threshold must be a positive relative error (or None "
                    "to disable adaptive replanning)"
                )
            if not collect_statistics:
                raise ValueError(
                    "replan_threshold requires collect_statistics=True: the plan "
                    "monitor scores live selectivity from the stream summarizer"
                )
        self.replan_threshold = replan_threshold
        #: Run an automatic replan check every N ingested edges (at the end
        #: of the batch that crosses the cadence -- a record, a release, a
        #: flushed tail -- so checks never interrupt a run mid-flight).
        #: Requires ``replan_threshold``.
        #: ``None`` leaves checks caller-driven via
        #: :meth:`StreamWorksEngine.run_replan_check` -- the sharded engine
        #: runs in that mode, with the parent driving every shard's cadence
        #: from the *global* record count.
        if replan_check_every is not None:
            if replan_threshold is None:
                raise ValueError(
                    "replan_check_every requires replan_threshold: a check "
                    "cadence without a trigger threshold does nothing"
                )
            replan_check_every = int(replan_check_every)
            if replan_check_every <= 0:
                raise ValueError("replan_check_every must be a positive edge count or None")
        self.replan_check_every = replan_check_every

    @staticmethod
    def validate_default_window(value: Optional[float]) -> Optional[float]:
        """Normalise and validate a ``default_window`` value at configuration time.

        A negative (or zero, or NaN) window used to slip through construction
        and only blow up much later inside ``required_retention`` /
        ``TimeWindow`` -- far from the misconfiguration.  Every path that
        assigns ``default_window`` (constructors and the engine-level
        overrides) routes through here instead, so the error names the
        actual mistake.
        """
        if value is None:
            return None
        value = float(value)
        if not value > 0.0:  # also rejects NaN
            raise ValueError(
                f"default_window must be a positive duration in stream-time "
                f"units (or None for unbounded), got {value!r}"
            )
        return value


class RegisteredQuery:
    """Book-keeping for one continuous query registered with the engine."""

    def __init__(
        self,
        name: str,
        query: QueryGraph,
        window: TimeWindow,
        plan: QueryPlan,
        matcher: ContinuousQueryMatcher,
    ):
        self.name = name
        self.query = query
        self.window = window
        self.plan = plan
        self.matcher = matcher
        #: Registration order, set by :meth:`StreamWorksEngine.add_registration`:
        #: ranks this query's events before later queries' on a shared
        #: trigger.  Only the relative order is read, so unregistering
        #: leaves gaps and a replan keeps the value.
        self.order = 0
        self.match_count = 0
        #: Number of times this query has been re-planned since registration
        #: (0 = still on its registration plan); bumped by
        #: :meth:`StreamWorksEngine.replan_query` and persisted through
        #: checkpoints.
        self.plan_version = 0
        #: Event sinks owned by this registration (e.g. the query-filtered
        #: ``on_match`` callback); detached from the engine on unregister.
        self.sinks: List[EventSink] = []

    def describe(self) -> str:
        """Return a one-paragraph description of the registration."""
        return (
            f"Query {self.name!r}: {self.query.edge_count()} edges, window={self.window}, "
            f"strategy={self.plan.strategy}, primitives={self.plan.primitive_count()}, "
            f"plan version={self.plan_version}, matches so far={self.match_count}"
        )


def checks_vertices(registrations: Iterable[RegisteredQuery]) -> bool:
    """Whether any of the registered queries checks vertex attributes.

    Such a query keeps the cold gate shut: a stored record keeps its
    endpoints alive, and with them the attributes earlier records attached.
    """
    return any(
        check is not None
        for registration in registrations
        for check in registration.matcher.compiled.vertex_checks.values()
    )


class StreamWorksEngine(IngestFront):
    """Continuous multi-query subgraph matching over a dynamic graph stream."""

    def __init__(
        self,
        default_window: Optional[float] = None,
        config: Optional[EngineConfig] = None,
    ):
        if config is None:
            config = EngineConfig(default_window=default_window)
        elif default_window is not None:
            # never mutate a caller-owned config: another engine may share it
            config = copy.copy(config)
            config.default_window = EngineConfig.validate_default_window(default_window)
        super().__init__(config)
        self.config = config
        retention = TimeWindow(config.default_window) if config.default_window else TimeWindow(None)
        self.graph = DynamicGraph(window=retention)
        #: Records run through the fast path (every record admitted; cold
        #: and dead-on-arrival ones included).
        self.records_batched = 0
        #: Records outside the retention horizon at their ingest point (see
        #: :meth:`_run_fast_path`); never matched.
        self.records_dead_on_arrival = 0
        #: The cold ring: fast-path records no registered query edge can
        #: bind, kept out of the window store, in stream order (see
        #: :meth:`_route_run`).  Trimmed with the store by
        #: :meth:`evict_expired`; :meth:`register_query` promotes what a new
        #: query binds.  ``records_cold`` counts every record ever routed
        #: here.
        self.cold: Deque[StreamEdge] = deque()
        self.records_cold = 0
        # derived from the ring's timestamps (restore recomputes it): a late
        # run appended behind newer records, so trims must scan the ring
        self._cold_disordered = False
        # (dispatch-index version, cold gate open), see _cold_gate_open
        self._cold_gate: Tuple[int, bool] = (-1, False)
        self.summarizer: Optional[StreamSummarizer] = None
        if config.collect_statistics:
            self.summarizer = StreamSummarizer(self.graph, track_triads=config.track_triads)
        self.queries: Dict[str, RegisteredQuery] = {}
        #: Registrations so far: the next one's ``order``.
        self._registrations = 0
        self.dispatch = DispatchIndex()
        #: Stream-boundary intern table: vertex/edge labels and predicate
        #: attribute names to dense ints.  Query vocabulary is interned at
        #: registration (deterministic: label order within the query, then
        #: attribute first-mention order); routing interns the endpoint
        #: vertex labels of the records it routes but only looks edge labels
        #: up (:data:`UNBOUND_LABEL` when absent), so the table does not grow
        #: with the stream's edge-label alphabet.  Ids are engine-internal
        #: -- snapshots persist the table.
        self.interning = InternTable()
        #: Columnar hot-path observability: ordered runs routed through
        #: route plans, records the front gate turned away or whose plan has
        #: no candidate leaf (dropped before any matcher work), and records
        #: whose route plan was already in the cache, i.e. that skipped the
        #: dispatch-index probe (process-local like the cache: a restored
        #: engine rebuilds its plans and counts from zero).
        self.batches_vectorized = 0
        self.records_prefiltered = 0
        self.dispatch_memo_hits = 0
        #: SJ-tree leaves a route plan skipped because every label-compatible
        #: compiled edge check rejected the record's attrs (local search
        #: over such a leaf provably finds nothing).  Records the front gate
        #: turned away reach no plan and add nothing here.
        self.leaves_pruned = 0
        #: Matchers holding a partial, by ``next_expiry`` (:meth:`expire_all_partials`).
        self.sweeps = SweepQueues()
        self.collector = CollectingSink()
        self._sinks = MultiSink([self.collector])
        self._sequence = 0
        self.throughput = ThroughputMeter()
        self.latency = LatencyRecorder()
        #: Live plan-quality monitor (observed vs planned selectivity per
        #: SJ-Tree join).  Always constructed -- passive when
        #: ``replan_threshold`` is unset -- so ``metrics()["replan"]`` and
        #: snapshots are uniform across configurations.
        self.plan_monitor = PlanMonitor(threshold=config.replan_threshold)

    # ------------------------------------------------------------------
    # query registration
    # ------------------------------------------------------------------
    def register_query(
        self,
        query: QueryGraph,
        name: Optional[str] = None,
        window: Optional[float] = None,
        strategy: Optional[str] = None,
        decomposition: Optional[Decomposition] = None,
        on_match: Optional[callable] = None,
    ) -> RegisteredQuery:
        """Register a continuous query and return its handle.

        Parameters
        ----------
        query:
            The query graph.
        name:
            Unique name (defaults to the query graph's name).
        window:
            Query time window ``tW`` in stream-time units; falls back to the
            engine's default window; ``None`` means unbounded.
        strategy:
            Decomposition strategy override (see :class:`Strategy`).
        decomposition:
            Fully manual decomposition; overrides ``strategy``.
        on_match:
            Optional callback invoked with each :class:`MatchEvent`.
        """
        query_name = name or query.name
        if query_name in self.queries:
            raise ValueError(f"a query named {query_name!r} is already registered")
        if self.config.checkpoint_every is not None:
            # fail at registration, not at the Nth batch: an autosaving
            # engine can only hold queries that round-trip through the
            # snapshot (CustomPredicate does not)
            self._check_checkpointable(query, query_name)
        window_duration = window if window is not None else self.config.default_window
        query_window = TimeWindow(window_duration) if window_duration is not None else TimeWindow(None)

        planner = self._make_planner(strategy)
        if decomposition is not None:
            plan = planner.plan(query, primitives=decomposition.primitives)
        else:
            plan = planner.plan(query, strategy=strategy)

        matcher = ContinuousQueryMatcher(
            query=query,
            decomposition=plan.decomposition,
            graph=self.graph,
            window=query_window,
            dedupe_structural=self.config.dedupe_structural,
        )
        registration = RegisteredQuery(query_name, query, query_window, plan, matcher)
        self.add_registration(registration)
        if on_match is not None:
            # filter by query name so the callback only sees this query's
            # events, and track the sink so unregistering detaches it
            sink = QueryFilterSink(query_name, CallbackSink(on_match))
            registration.sinks.append(sink)
            self._sinks.add(sink)
        self.dispatch.register(query_name, matcher.tree.leaves())
        intern_query_vocabulary(self.interning, query)
        self._promote_cold(registration)
        self._update_retention()
        return registration

    def add_registration(self, registration: RegisteredQuery) -> None:
        """Admit a built registration under the next registration order."""
        registration.order = self._registrations
        self._registrations += 1
        self.queries[registration.name] = registration

    @staticmethod
    def _check_checkpointable(query: QueryGraph, query_name: str) -> None:
        """Reject queries that cannot survive a checkpoint (autosave engines)."""
        from ..query.serialize import QuerySerializationError, query_to_dict

        try:
            query_to_dict(query)
        except QuerySerializationError as error:
            raise ValueError(
                f"query {query_name!r} cannot be registered on an autosaving "
                f"engine (checkpoint_every is set): {error}"
            ) from error

    def unregister_query(self, name: str) -> None:
        """Remove a registered query (its partial matches are discarded).

        The query's dispatch-index entries and its ``on_match`` callback sink
        are detached as well, so an unregistered query neither consumes ingest
        work nor fires callbacks.
        """
        if name not in self.queries:
            raise KeyError(name)
        registration = self.queries.pop(name)
        for sink in registration.sinks:
            self._sinks.remove(sink)
        registration.sinks.clear()
        self.dispatch.unregister(name)
        self._update_retention()

    def add_sink(self, sink: EventSink) -> None:
        """Attach an additional event sink.

        ``sink.deliver(event)`` is called for every subsequent
        :class:`~repro.streaming.events.MatchEvent`, in emission order,
        after the engine-owned collector.  Sinks are not serialised by
        :meth:`checkpoint`; re-attach them after :meth:`restore`.
        """
        self._sinks.add(sink)

    def _make_planner(self, strategy: Optional[str]) -> QueryPlanner:
        """Build a planner over a fresh view of the window store's counts.

        Shared by registration, replanning and the plan monitor so all three
        score selectivity with the *same* estimator construction -- the
        monitor's post-replan error is exactly zero only because its numbers
        reproduce the planner's.  The view
        (:meth:`StreamSummarizer.statistics`) counts only what the estimator
        asks for, once per planner.
        """
        return QueryPlanner(
            summary=self.summarizer.statistics() if self.summarizer else None,
            config=PlannerConfig(
                strategy=strategy or Strategy.SELECTIVITY,
                conditional_ordering=self.config.replan_threshold is not None,
            ),
        )

    def replan_query(self, name: str, strategy: Optional[str] = None) -> RegisteredQuery:
        """Re-plan a registered query using the statistics of the window.

        The paper leaves "updating the query decomposition and search
        strategy" from continuously collected statistics as future work; this
        method implements the mechanism (and :meth:`run_replan_check` closes
        the loop automatically).  The query's SJ-Tree is rebuilt from the new
        plan and the live partial-match state is **migrated**: every
        admissible partial over the retained window is rebuilt in the new
        tree by replaying the window store through the new plan's leaves (see
        :meth:`_migrate_matcher_state`), so an event that was mid-assembly at
        the moment of re-planning is still detected when its remaining edges
        arrive.  Already-reported matches stay reported and are not reported
        again (the replay emits nothing), so a replan changes neither the
        match set nor the event order -- only the cost of computing it.
        A new plan whose decomposition builds the installed tree
        (:meth:`Decomposition.same_tree`) replaces the plan and its
        estimates only: the matcher, its partials and its dispatch entries
        stay, and nothing is migrated.
        Must be called at a quiescent boundary (between records or batches),
        which is the only place the engine itself ever replans.
        """
        if name not in self.queries:
            raise KeyError(name)
        return self._replan(self.queries[name], self._make_planner(strategy), strategy)

    def _replan(
        self, registration: RegisteredQuery, planner: QueryPlanner, strategy: Optional[str]
    ) -> RegisteredQuery:
        new_plan = planner.plan(registration.query, strategy=strategy)
        installed = registration.plan
        registration.plan = new_plan
        if new_plan.decomposition.same_tree(installed.decomposition):
            return registration
        old_matcher = registration.matcher
        # matcher construction is the compile point, so a migrated plan
        # always runs on freshly compiled predicate tables -- never the old
        # plan's closures
        new_matcher = ContinuousQueryMatcher(
            query=registration.query,
            decomposition=new_plan.decomposition,
            graph=self.graph,
            window=registration.window,
            dedupe_structural=self.config.dedupe_structural,
        )
        migrated, dropped = self._migrate_matcher_state(old_matcher, new_matcher)
        registration.matcher = new_matcher
        registration.plan_version += 1
        self.plan_monitor.record_replan(migrated, dropped)
        # the SJ-Tree was rebuilt, so the dispatch index must be re-pointed at
        # the new leaves
        self.dispatch.register(registration.name, new_matcher.tree.leaves())
        return registration

    def _migrate_matcher_state(
        self,
        old_matcher: ContinuousQueryMatcher,
        new_matcher: ContinuousQueryMatcher,
    ) -> tuple:
        """Move live match state from the old SJ-Tree into the new one.

        The new tree's shape need not resemble the old one's, so partials are
        not copied node-for-node; instead the retained window store is
        *replayed* through the new plan's leaves in ascending edge-id order,
        the order the edges were first searched in, each edge through only
        the leaves whose labels can bind it
        (:meth:`ContinuousQueryMatcher.history`).  Under the newest-edge rule
        each edge finds only embeddings whose other edges precede it, so the
        replay rebuilds every admissible partial the new tree can hold
        exactly once, and window-inadmissible combinations are
        re-rejected by the same span checks that rejected them live.  The
        replay runs with emission off: every complete match over retained
        edges was already reported at its newest edge, and no tree keeps
        completions, so there is no root collection to carry across.

        Returns ``(migrated, dropped)``: partials stored in the new tree
        after the replay, and old partials referencing already-evicted edges,
        which cannot be rebuilt.  A dropped partial's earliest edge is older
        than ``now - retention <= now - window``, so it fails the window as
        of the stream clock and could never complete: dropping it changes no
        event (the count is in ``metrics()["replan"]["partials_dropped"]``).
        """
        dropped = 0
        has_edge = self.graph.has_edge
        for node in old_matcher.tree.nodes.values():
            if node.parent_id is None:
                continue
            edges_of = node.layout.edges_of
            for partial in node.partials():
                if not all(has_edge(edge.id) for edge in edges_of(partial)):
                    dropped += 1
        for edge, leaves in new_matcher.history(new_matcher.tree.leaves()):
            new_matcher.process_edge_leaves(edge, leaves, emit=False)
        migrated = sum(
            node.match_count()
            for node in new_matcher.tree.nodes.values()
            if node.parent_id is not None
        )
        # counter continuity: the replay is internal bookkeeping, not stream
        # work, so the matcher keeps the counters it had before the replan
        new_matcher.stats = old_matcher.stats
        return migrated, dropped

    def replan_all(self, strategy: Optional[str] = None) -> None:
        """Re-plan every registered query (see :meth:`replan_query`)."""
        for name in list(self.queries):
            self.replan_query(name, strategy=strategy)

    def run_replan_check(self) -> List[str]:
        """Score every query's plan against live statistics; replan the drifted.

        One *check* scores each registered query: the worst per-primitive
        relative error between the plan's recorded selectivity estimates and
        what the current statistics would estimate (a plan made before any
        statistics existed scores infinite, so it is replaced at the first
        check with data).  Queries whose error exceeds
        ``EngineConfig.replan_threshold`` are re-planned in registration
        order via :meth:`replan_query`, all from one view of the window
        store's counts (each count read once per check).
        Only plans produced by the
        selectivity-aware strategies are scored -- the other strategies never
        chose by cardinality, so there is no estimate to drift from.

        Called automatically on the ``replan_check_every`` cadence; public so
        a sharded parent (or an operator) can drive checks explicitly.
        Immediately re-running the check is idempotent: a freshly-replanned
        query re-scores to exactly zero error because the monitor and the
        planner share one estimator construction.  Returns the names of the
        queries replanned.
        """
        if self.config.replan_threshold is None:
            raise RuntimeError(
                "run_replan_check requires EngineConfig(replan_threshold=...): "
                "without a threshold there is nothing to trigger"
            )
        monitor = self.plan_monitor
        monitor.checks_run += 1
        planner = self._make_planner(None)
        estimator = planner._estimator()
        if estimator is None:  # no live statistics yet: nothing to compare
            return []
        replanned: List[str] = []
        for name in list(self.queries):
            registration = self.queries[name]
            if registration.plan.strategy not in (Strategy.SELECTIVITY, Strategy.ANTI_SELECTIVE):
                continue
            error = monitor.score(estimator, registration.query, registration.plan)
            monitor.observe_error(name, error)
            if error > monitor.threshold:
                monitor.triggers_fired += 1
                self._replan(registration, planner, None)
                replanned.append(name)
        return replanned

    def _update_retention(self) -> None:
        """Keep the graph retention window at least as long as every query window."""
        self.graph.window = required_retention(
            (q.window for q in self.queries.values()), self.config.default_window
        )

    # ------------------------------------------------------------------
    # stream processing
    # ------------------------------------------------------------------
    def process_edge(
        self,
        source: VertexId,
        target: VertexId,
        label: str,
        timestamp: Timestamp,
        attrs: Optional[Mapping[str, Any]] = None,
        source_label: str = "node",
        target_label: str = "node",
        source_attrs: Optional[Mapping[str, Any]] = None,
        target_attrs: Optional[Mapping[str, Any]] = None,
    ) -> List[MatchEvent]:
        """Ingest one raw edge as a one-record run, bypassing any reorder buffer.

        The edge takes the same path as every other record
        (:meth:`_run_fast_path`): an edge already outside the retention
        horizon (``timestamp`` expired against the stream clock) is dead
        on arrival and never matched, and an edge no registered query edge
        can bind goes to the cold ring.
        """
        record = StreamEdge(
            source,
            target,
            label,
            timestamp,
            attrs,
            source_label=source_label,
            target_label=target_label,
            source_attrs=source_attrs,
            target_attrs=target_attrs,
        )
        return self._run_batch([record])

    def _emit_trigger(
        self,
        completions: List,
        detected_at: float,
        trigger_index: int,
        events: List[MatchEvent],
    ) -> None:
        """Emit all completions anchored at one trigger edge, canonically ordered.

        ``completions`` holds ``(registration, completion)`` pairs, each
        completion a partial in its matcher's root layout.  Within one
        trigger the discovery order of completions is an artefact of the
        active plan (leaf iteration and join order), so it cannot survive a
        replan.  Events are ordered by (query registration order,
        :meth:`~ContinuousQueryMatcher.completion_key`) -- a pure function of
        the registered queries and the match content -- before sequence
        numbers are assigned, which makes the emitted order identical under
        every plan of the same queries, and therefore invariant under
        replanning.  Only here does a completion become a
        :class:`~repro.isomorphism.match.Match`.
        """
        if not completions:
            return
        if len(completions) > 1:
            completions.sort(
                key=lambda item: (item[0].order, item[0].matcher.completion_key(item[1]))
            )
        for registration, completion in completions:
            event = MatchEvent(
                query_name=registration.name,
                match=registration.matcher.to_match(completion),
                detected_at=detected_at,
                sequence=self._sequence,
                trigger_index=trigger_index,
            )
            self._sequence += 1
            registration.match_count += 1
            self._sinks.deliver(event)
            events.append(event)

    def expire_all_partials(self, now: float) -> int:
        """Sweep the stored partial matches expired at ``now``; return the count dropped.

        Only matchers with a partial due (:meth:`ContinuousQueryMatcher.expiry_due`)
        are visited: :attr:`sweeps` queues them per window by ``next_expiry``
        and is rebuilt when the dispatch index changes version.  Every run
        sweeps this way, at the stream clock (:meth:`_run_fast_path`).  A
        sweep is pure pruning: a partial expired at the clock can only
        complete into a match that fails the window check at every later
        record, so sweeping more or less often never changes the events.
        """
        if self.sweeps.version != self.dispatch.version:
            self.sweeps.rebuild([r.matcher for r in self.queries.values()], self.dispatch.version)
        return self.sweeps.sweep(now)

    def _run_batch(self, records: List[StreamEdge], ordered: bool = False) -> List[MatchEvent]:
        """Run a batch as its maximal ordered runs, then the replan checks it made due.

        Every ingest entry point ends here (:mod:`repro.core.ingest`): a
        record is a one-record batch.  Each maximal non-decreasing run is
        one :meth:`_run_fast_path`, in arrival order, so a disordered batch
        is exactly its ordered runs fed as batches; a sorted reorder-buffer
        release (``ordered``) is one run, unscanned.  A raising run stops the meter too.
        """
        self.throughput.start()
        events: List[MatchEvent] = []
        try:
            for start, end in [(0, len(records))] if ordered else ordered_run_slices(records):
                self._run_fast_path(records[start:end], events)
            self.throughput.add(len(records))
        finally:
            self.throughput.stop()
        for _ in range(self._due_replan_checks()):
            self.run_replan_check()
        return events

    def _run_fast_path(self, records: Sequence[StreamEdge], events: List[MatchEvent]) -> None:
        """The engine's one execution path, over one non-decreasing run.

        Step 1 routes each record, then stores it only when it is *hot*
        (:meth:`_route_run`); a cold record -- no registered query edge can
        bind it -- goes to the cold ring instead.  Eviction is deferred to
        the end of the run: evicting against the run's latest timestamp up
        front could remove edges its earlier records can still legally
        match.  Step 2 counts the hot records as observed.  Step 3 sweeps
        partial-match expiry at the run's stream clock -- the clock before
        the run, or its first timestamp when later -- in exactly the
        matchers holding a partial expired there (:meth:`expire_all_partials`).
        Step 4 searches the hot records with the leaves step 1 chose and
        applies the window rule (:meth:`_dispatch_run`); step 5 is one
        eviction sweep over the store and the cold ring (:meth:`evict_expired`).
        The latency meter times step 4 once per run with a hot record, and
        records the run's mean per hot record as one sample.

        A record already outside the retention horizon at its ingest point is
        *dead on arrival*: ingested and evicted at once, counted in
        ``records_dead_on_arrival``, never routed, matched or observed.
        Every match it could complete fails the window rule, so the skip only
        prunes; in a non-decreasing run dead records precede any record that
        advances the clock, so the mid-run sweep removes only them.
        """
        # the run is non-decreasing, so the clock at its first record is the
        # clock at every record of the run still below it
        clock = max(self.graph.current_time, records[0].timestamp)
        # What a route plan stands for per record -- one dispatch probe, one
        # visit of each owner's matcher -- is settled in bulk when the run
        # ends, also on an exception (a plan outlives the run, its tallies must
        # not), the visits when counters are read (``docs/operations.md``).
        used: List[RoutePlan] = []
        try:
            hot = self._route_run(records, used)
            self.records_batched += len(records)
            if self.summarizer is not None:
                self.summarizer.observe_batch([edge for _, edge, _ in hot])
            self.expire_all_partials(clock)
            self._dispatch_run(hot, len(records), clock, events)
        finally:
            for plan in used:
                if not plan.entries:
                    self.records_prefiltered += plan.uses
                self.leaves_pruned += plan.pruned
                self.dispatch_memo_hits += plan.settle(self.dispatch)
        self.evict_expired()

    def _route_run(
        self, records: Sequence[StreamEdge], used: List[RoutePlan]
    ) -> List[Tuple[int, Edge, List]]:
        """Step 1: route every record of a run, storing only the hot ones.

        Records *dead on arrival* (see :meth:`_run_fast_path`) form a prefix
        of a non-decreasing run and are handled first.  The rest pass the
        front gate (:meth:`_gate_run`) in bulk; a record it turns away needs
        no endpoint resolution and no route.  A record it passes is routed
        through its *route plan* (:mod:`repro.core.route_plan`), kept in
        ``dispatch.plans`` under ``(label id, source label id, target label
        id)`` until the dispatch index next changes (between runs only).
        An edge label the intern table does not hold routes under
        :data:`UNBOUND_LABEL`, uninterned; endpoint labels are resolved
        before ingest (stored vertex label, else the record's own) and
        interned.  Plans touched are appended to ``used``; the caller
        settles their per-run tallies.

        A record is **cold** when the gate turned it away or its plan leaves
        no surviving leaf, it carries no vertex attributes, and no registered
        query checks vertex attributes (:meth:`_cold_gate_open`).  No query
        edge can bind it, so it is neither a search seed nor a partner: it
        joins the cold ring in stream order, and is not interned, stored,
        counted in the statistics, evicted or latency-sampled.  Every other
        live record is ingested with eviction deferred; one the gate turned
        away searches nothing.  Cold records advance the stream clock once,
        after the loop, to the run's last timestamp: nothing in the loop
        reads the clock after the first live record.

        Returns ``(position in the run, edge, searches)`` per hot record.
        """
        graph = self.graph
        window = graph.window
        dispatch = self.dispatch
        intern = self.interning.intern
        lookup = self.interning.lookup
        plans = dispatch.plans
        stored_label = graph.graph.vertex_label
        cold = self.cold
        if cold and cold[-1].timestamp > records[0].timestamp:
            # the run may append behind the ring's newest record
            self._cold_disordered = True
        # dead records precede every live one in a non-decreasing run
        start = 0
        if window.bounded:
            clock = graph.current_time
            for record in records:
                if not window.is_expired(record.timestamp, clock):
                    break
                # dead on arrival: ingested and evicted at once
                self._ingest(record)
                self.evict_expired()
                start += 1
            self.records_dead_on_arrival += start
        live = records[start:] if start else records
        passed = self._gate_run(live)
        rows: Iterable[Tuple[int, StreamEdge, bool]] = zip(range(start, len(records)), live, passed)
        cold_mask: Optional[List[bool]] = None
        gate_cold = 0
        if self._cold_gate_open():
            cold_mask = [
                not (is_passed or record.source_attrs or record.target_attrs)
                for record, is_passed in zip(live, passed)
            ]
            gate_cold = cold_mask.count(True)
            if gate_cold:
                rows = compress(rows, map(not_, cold_mask))
        # endpoint label ids: constant within a run (one label per live
        # vertex id, and nothing is evicted mid-run but dead records)
        endpoint_memo: Dict[VertexId, int] = {}
        hot: List[Tuple[int, Edge, List]] = []
        prefiltered = plan_cold = 0
        for position, record, is_passed in rows:
            if not is_passed:
                # turned away by the front gate, yet stored: the record
                # carries vertex attributes, or the cold gate is shut
                prefiltered += 1
                searches: List = []
            else:
                label = record.label
                source = record.source
                sid = endpoint_memo.get(source)
                if sid is None:
                    source_label = stored_label(source)
                    sid = endpoint_memo[source] = intern(
                        record.source_label if source_label is None else source_label
                    )
                target = record.target
                tid = endpoint_memo.get(target)
                if tid is None:
                    target_label = stored_label(target)
                    tid = endpoint_memo[target] = intern(
                        record.target_label if target_label is None else target_label
                    )
                lid = lookup(label)
                route_key = (UNBOUND_LABEL if lid is None else lid, sid, tid)
                plan = plans.get(route_key)
                if plan is None:
                    plan = self._build_route_plan(
                        route_key,
                        label,
                        self._route_label(source, record.source_label),
                        self._route_label(target, record.target_label),
                    )
                if not plan.uses:
                    used.append(plan)
                plan.uses += 1
                searches = plan.route(record.attrs)
            if not (searches or cold_mask is None or record.source_attrs or record.target_attrs):
                cold_mask[position - start] = True
                plan_cold += 1
                continue
            hot.append((position, self._ingest(record), searches))
        if gate_cold or plan_cold:
            cold.extend(compress(live, cold_mask))
        graph.advance_time(records[-1].timestamp)
        self.records_prefiltered += gate_cold + prefiltered
        self.records_cold += gate_cold + plan_cold
        return hot

    def _gate_run(self, live: Sequence[StreamEdge]) -> List[bool]:
        """The front gate: per live record of a run, whether it may reach a route plan.

        It passes when some registered leaf binds the record's label
        (:meth:`DispatchIndex.front_gate`) and the label's guard
        (:class:`~repro.core.route_plan.LabelGuard`, built on the label's
        first bound record) accepts its attrs.  Both read the record alone;
        each record turned away counts the ``lookups`` tick of a probe.
        """
        dispatch, queries = self.dispatch, self.queries
        passed = dispatch.front_gate(live)
        guards = dispatch.label_guards
        gated = 0
        for at in compress(range(len(live)), passed):
            record = live[at]
            label = record.label
            guard = guards[label] if label in guards else label_guard(dispatch, queries, label)
            if guard is not None and guard.rejects(record.attrs):
                passed[at] = False
                gated += 1
        dispatch.lookups += gated
        return passed

    def _cold_gate_open(self) -> bool:
        """Whether cold records may skip the store: no query checks vertex attributes.

        :func:`checks_vertices` reads every registered query's compiled
        checks, so its verdict is kept per :attr:`DispatchIndex.version`:
        registering, replanning and unregistering all bump the version,
        and a restored engine starts with no verdict.
        """
        version, gate_open = self._cold_gate
        if version != self.dispatch.version:
            gate_open = not checks_vertices(self.queries.values())
            self._cold_gate = (self.dispatch.version, gate_open)
        return gate_open

    def _dispatch_run(
        self,
        hot: Sequence[Tuple[int, Edge, List]],
        run_length: int,
        clock: float,
        events: List[MatchEvent],
    ) -> None:
        """Step 4: search every hot record of a stored run with its routed leaves, emit.

        ``hot`` is :meth:`_route_run`'s output: each hot record searches
        the leaves its route plan left it, so no record is routed twice.
        Every record of the run -- dead and cold ones too -- takes a
        trigger index (``edges_processed``) by its position in the run.

        A completion emits at the record that found it.  The run is stored
        before it is searched, but local search binds only partners older
        (by ingest id) than the record searched, so a completion is found at
        its newest edge.  The window rule decides which completions emit: a
        match must fit the window as of the stream clock at its newest
        edge.  For an in-order record that clock is its own timestamp, and
        the matcher's span check already decides; a record below ``clock``
        (the stream clock before the run) keeps only the completions whose
        interval, stretched to ``clock``, fits the query window.  Sweeps,
        eviction and the dead-on-arrival skip drop only what fails this
        rule, so the events depend neither on the plan, nor on the other
        registered queries, nor on how the stream was cut into runs.
        """
        base = self.edges_processed
        self.batches_vectorized += 1
        started = perf_counter() if hot else None
        for position, edge, searches in hot:
            self.edges_processed = base + position
            late = edge.timestamp < clock
            found: List = []
            for owner, leaves in searches:
                owner.searched += 1
                registration = owner.registration
                matcher = registration.matcher
                completions = matcher.process_edge_leaves(edge, leaves)
                if matcher.next_expiry < matcher.queued_expiry:
                    self.sweeps.push(matcher)  # a store made it due sooner
                if late:
                    window = matcher.window
                    completions = [
                        c for c in completions if window.admits_interval(c[EARLIEST], clock)
                    ]
                for completion in completions:
                    found.append((registration, completion))
            if found:
                self._emit_trigger(found, edge.timestamp, base + position, events)
        if started is not None:
            self.latency.record(perf_counter() - started, len(hot))
        self.edges_processed = base + run_length

    def _ingest(self, record: StreamEdge) -> Edge:
        """Store one record in the window store, eviction deferred."""
        return self.graph.ingest(
            record.source,
            record.target,
            record.label,
            record.timestamp,
            record.attrs,
            source_label=record.source_label,
            target_label=record.target_label,
            source_attrs=record.source_attrs,
            target_attrs=record.target_attrs,
            evict=False,
        )

    def evict_expired(self, now: Optional[Timestamp] = None) -> None:
        """Evict what the retention window has expired: store and cold ring alike.

        ``now`` defaults to the stream clock.  The ring is trimmed at the
        store's threshold, so it holds exactly the cold records a store that
        kept every record would still hold -- what :meth:`register_query` may
        need to promote.
        """
        self.graph.evict_expired(now)
        self._trim_cold(now)

    def _trim_cold(self, now: Optional[Timestamp] = None) -> None:
        """Drop the cold-ring records the store's last sweep would have evicted."""
        cold = self.cold
        window = self.graph.window
        if not cold or not window.bounded:
            return
        threshold = window.expiry_threshold(self.graph.current_time if now is None else now)
        if self._cold_disordered:
            # a late run appended behind newer records: trim the whole ring
            self.reset_cold([record for record in cold if record.timestamp > threshold])
        else:
            while cold and cold[0].timestamp <= threshold:
                cold.popleft()

    def reset_cold(self, records: List[StreamEdge]) -> None:
        """Replace the cold ring with ``records`` (stream order), e.g. on restore."""
        self.cold = deque(records)
        self._cold_disordered = any(
            later.timestamp < earlier.timestamp for earlier, later in zip(records, records[1:])
        )

    def _promote_cold(self, registration: RegisteredQuery) -> None:
        """Store the cold-ring records ``registration`` can bind, in stream order.

        A late registration must see the partners a store that kept every
        record would offer it.  Ring records the new query binds (route plan
        survivors, judged against this query alone) are ingested and counted
        as observed; a query that checks vertex attributes shuts the
        gate and takes the whole ring.  Promotion is not stream work: the
        dispatch counters probed here are restored and no stream counter
        moves.  A replan never promotes -- a plan change binds no new edge.
        """
        if not self.cold:
            return
        take_all = checks_vertices([registration])
        dispatch = self.dispatch
        saved = (dispatch.lookups, dispatch.entries_matched, dispatch.entries_skipped)
        only = {registration.name: registration}
        plans: Dict[Tuple[str, str, str], RoutePlan] = {}
        promoted: List[StreamEdge] = []
        kept: List[StreamEdge] = []
        for record in self.cold:
            if not take_all:
                key = (
                    record.label,
                    self._route_label(record.source, record.source_label),
                    self._route_label(record.target, record.target_label),
                )
                plan = plans.get(key)
                if plan is None:
                    plan = plans[key] = build_route_plan(dispatch, only, *key)
                if not plan.route(record.attrs):
                    kept.append(record)
                    continue
            promoted.append(record)
        dispatch.lookups, dispatch.entries_matched, dispatch.entries_skipped = saved
        if not promoted:
            return
        self.reset_cold(kept)
        edges = [self._ingest(record) for record in promoted]
        if self.summarizer is not None:
            self.summarizer.observe_batch(edges)

    def _route_label(self, vertex: VertexId, record_label: str) -> str:
        """An endpoint's label for routing: stored vertex label, else the record's own."""
        label = self.graph.graph.vertex_label(vertex)
        return record_label if label is None else label

    def _build_route_plan(
        self,
        route_key: Tuple[int, int, int],
        label: str,
        source_label: str,
        target_label: str,
    ) -> RoutePlan:
        """Probe the dispatch index for one route key and cache the plan."""
        plan = build_route_plan(self.dispatch, self.queries, label, source_label, target_label)
        self.dispatch.plans[route_key] = plan
        self.dispatch.plans_built += 1
        return plan

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> Dict[str, Any]:
        """Write an atomic snapshot of the engine's full state to ``path``.

        The snapshot covers everything the resume contract needs: the
        window store (index iteration orders included), every matcher's
        partial-match collections, the reorder buffer (contents, watermark, late counters), the stream
        summarizer's edge counter (its statistics are computed from the
        window store), registered queries with
        their exact plans, collected events, and all deterministic
        counters.  The write is atomic (temp file + fsync + rename) with a
        monotone ``epoch`` in the manifest, so a crash mid-checkpoint
        leaves the previous snapshot intact.  Returns the manifest.

        ``EngineConfig(checkpoint_every=N, checkpoint_path=...)`` calls
        this automatically every N ``process_batch`` invocations.
        """
        from ..persistence.snapshot import write_snapshot
        from ..persistence.state import ENGINE_KIND, engine_sections

        self.checkpoint_epoch += 1
        return write_snapshot(path, ENGINE_KIND, self.checkpoint_epoch, engine_sections(self))

    @classmethod
    def restore(cls, path: str) -> "StreamWorksEngine":
        """Reconstruct an engine from a :meth:`checkpoint` snapshot.

        The contract is exact resume: ``restore(checkpoint(E))`` followed
        by the remainder of the stream produces byte-for-byte the events
        (matches, order, sequence numbers) and deterministic metrics of the
        uninterrupted run -- the crash-at-every-boundary differential suite
        (``tests/test_checkpoint.py``) holds this at every batch boundary.
        ``on_match`` callbacks and custom sinks are not serialisable and
        must be re-attached (:meth:`add_sink`) after restore.  An older
        snapshot is upgraded first (:mod:`repro.persistence.upgrade`).
        Raises :class:`~repro.persistence.snapshot.SnapshotCorruptError` on
        any torn or damaged snapshot and
        :class:`~repro.persistence.snapshot.SnapshotVersionError` on a
        format it cannot read -- never a silent partial load.
        """
        from ..persistence.snapshot import SNAPSHOT_FORMAT_VERSION, read_snapshot
        from ..persistence.state import ENGINE_KIND, load_engine_sections
        from ..persistence.upgrade import upgrade

        manifest, sections = read_snapshot(path, kind=ENGINE_KIND)
        if manifest["format_version"] < SNAPSHOT_FORMAT_VERSION:
            sections = upgrade(ENGINE_KIND, sections, manifest["format_version"])
        engine = load_engine_sections(sections)
        engine.checkpoint_epoch = manifest["epoch"]
        return engine

    # ------------------------------------------------------------------
    # results and introspection
    # ------------------------------------------------------------------
    def events(self, query_name: Optional[str] = None) -> List[MatchEvent]:
        """Return the full collected event history, in emission order.

        ``query_name`` filters to one registered query's events; ``None``
        (default) returns everything.  The collector is append-only (and is
        carried through checkpoints whole); long-running deployments that
        drain events downstream should ``collector.clear()`` periodically.
        """
        if query_name is None:
            return list(self.collector.events)
        return self.collector.for_query(query_name)

    def match_counts(self) -> Dict[str, int]:
        """Return ``{query name: complete matches emitted so far}`` for every
        registered query (zero entries included)."""
        return {name: registration.match_count for name, registration in self.queries.items()}

    def statistics_summary(self):
        """Return the current :class:`GraphSummary` (``None`` when statistics are off)."""
        if self.summarizer is None:
            return None
        return self.summarizer.summary()

    def metrics(self) -> Dict[str, Any]:
        """Return engine metrics: throughput, latency percentiles, store sizes."""
        self.dispatch.replay_owner_visits()
        return {
            "edges_processed": self.edges_processed,
            "events_emitted": self._sequence,
            "graph_vertices": self.graph.vertex_count(),
            "graph_edges": self.graph.edge_count(),
            "edges_evicted": self.graph.edges_evicted,
            "throughput": self.throughput.summary(),
            "latency": self.latency.summary(),
            "dispatch": self.dispatch.stats(),
            "ingest_paths": {
                "batched_fast_path": self.records_batched,
                "dead_on_arrival": self.records_dead_on_arrival,
                "cold": self.records_cold,
                "cold_retained": len(self.cold),
            },
            # without a reorder buffer the horizon is the stream clock itself
            # (largest timestamp offered)
            "event_time_watermark": self.graph.current_time
            if self.reorder is None
            else self.event_time_watermark,
            "reorder": self.reorder.stats() if self.reorder is not None else None,
            "queries": {
                name: registration.matcher.stats.to_dict()
                for name, registration in self.queries.items()
            },
            "stored_partial_matches": {
                name: registration.matcher.stored_partial_matches()
                for name, registration in self.queries.items()
            },
            "leaves": {
                name: registration.matcher.leaf_work()
                for name, registration in self.queries.items()
            },
            "replan": replan_summary(
                self.plan_monitor,
                enabled=self._next_replan_check is not None,
                threshold=self.config.replan_threshold,
                check_every=self.config.replan_check_every,
                plan_versions={
                    name: registration.plan_version
                    for name, registration in self.queries.items()
                },
            ),
            "sketch": {"dedup_memory": dict(RETIRED_DEDUP_METRICS)},
            "columnar": self._columnar_metrics(),
        }

    def _columnar_metrics(self) -> Dict[str, Any]:
        """Aggregate compiled hot-path counters for ``metrics()["columnar"]``.

        ``dispatch_memo_hits``, ``range_scans`` and ``range_scan_fallbacks``
        are process-local like the latency samples: they restart from zero
        after a restore.
        """
        range_stats = self.graph.range_scan_stats()
        return {
            "interned_labels": len(self.interning),
            "compiled_queries": len(self.queries),
            "compiled_checks": sum(
                registration.matcher.compiled.compiled_checks
                for registration in self.queries.values()
            ),
            "batches_vectorized": self.batches_vectorized,
            "records_prefiltered": self.records_prefiltered,
            "dispatch_memo_hits": self.dispatch_memo_hits,
            "leaves_pruned": self.leaves_pruned,
            "range_scans": range_stats["range_scans"],
            "range_scan_fallbacks": range_stats["range_scan_fallbacks"],
        }

    def describe(self) -> str:
        """Return a human-readable status report of the engine."""
        lines = [
            f"StreamWorksEngine: {len(self.queries)} queries, "
            f"{self.edges_processed} edges processed, {self._sequence} events emitted",
            f"  graph: {self.graph.vertex_count()} vertices / {self.graph.edge_count()} edges "
            f"(retention {self.graph.window})",
        ]
        for registration in self.queries.values():
            lines.append("  " + registration.describe())
        return "\n".join(lines)
