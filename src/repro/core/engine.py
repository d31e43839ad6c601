"""The StreamWorks engine: register continuous graph queries, feed the stream.

This is the system façade a user of the reproduction interacts with (the
role played by the C++ query engine plus UI in the demo).  It owns

* the shared :class:`~repro.graph.dynamic_graph.DynamicGraph` window store,
* the :class:`~repro.stats.summarizer.StreamSummarizer` that keeps the
  planning statistics fresh (paper section 4.3),
* one :class:`~repro.core.matcher.ContinuousQueryMatcher` per registered
  query, built by the :class:`~repro.core.planner.QueryPlanner`,
* event delivery (sinks / callbacks) and engine-level metrics.

The ingest hot path is indexed: a shared
:class:`~repro.core.dispatch.DispatchIndex` maps edge labels (plus endpoint
vertex-label guards) to the (query, SJ-Tree leaf) pairs that can possibly
bind them, so an edge only pays for the primitives it can affect; a label
no registered leaf can bind is turned away before its endpoints are even
looked up.  :meth:`StreamWorksEngine.process_batch` additionally amortises
work across a batch: the whole batch is ingested (with eviction deferred), expiry is swept
once per matcher instead of once per edge, and each edge is then dispatched
through the index.  Internally out-of-order batches are split at their
inversion points so the ordered runs keep that fast path, and
``EngineConfig(allowed_lateness=...)`` enables full event-time ingestion: a
bounded-lateness reorder buffer re-sorts disorder inside the lateness
horizon, releases watermark-closed prefixes as in-order fast-path batches,
and applies an explicit late-data policy (drop / process degraded, with
counters) to anything older than the watermark.  The buffer is
multi-source (:mod:`repro.streaming.sources`): records carrying a
``source_id`` get one watermark per collector with min-release across
active sources (``register_source`` declares collectors up front,
``idle_source_timeout`` bounds silent ones), and admission can run off the
matcher's thread via
:class:`~repro.streaming.async_ingest.AsyncIngestFrontend`.

Typical use::

    engine = StreamWorksEngine(default_window=300.0)
    engine.register_query(smurf_query, name="smurf")
    for record in stream:
        events = engine.process_record(record)
        ...
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..graph.dynamic_graph import DynamicGraph
from ..graph.interning import InternTable
from ..graph.types import Edge, Timestamp, VertexId
from ..graph.window import TimeWindow
from ..isomorphism.match import Match
from ..query.compile import referenced_attr_names
from ..query.query_graph import QueryGraph
from ..stats.plan_monitor import PlanMonitor
from ..stats.summarizer import StreamSummarizer
from ..streaming.edge_stream import StreamEdge
from ..streaming.reorder import LatePolicy, ReorderBuffer, ordered_run_slices
from ..streaming.sources import ADAPTIVE_LATENESS, MultiSourceReorderBuffer
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
from .matcher import ContinuousQueryMatcher
from .planner import PlannerConfig, QueryPlan, QueryPlanner
from .route_plan import RoutePlan, build_route_plan

__all__ = ["EngineConfig", "RegisteredQuery", "StreamWorksEngine", "required_retention"]


def intern_query_vocabulary(table: InternTable, query: QueryGraph) -> None:
    """Intern a query's label/attribute vocabulary at the stream boundary.

    Deterministic order -- edge labels, then vertex labels, then predicate
    attribute names in first-mention order -- so every engine that registers
    the same queries in the same order assigns the same dense ids.  The
    sharded parent relies on this when pushing its table to every shard, and
    pre-columnar snapshot restores rely on it to rebuild ids.
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


def _canonical_match_key(match: Match) -> str:
    """Return a plan-independent, cross-process-stable ordering key for a match.

    Within a single trigger edge the *discovery* order of complete matches is
    an artefact of the active plan (leaf iteration and join order), so it
    cannot survive a replan; same-trigger events are ordered by this key
    instead, which depends only on the match content.  Built from sorted
    reprs rather than ``portable_identity()`` because frozenset iteration
    order is hash-seed-dependent and must not leak into event order.
    """
    vertices = sorted(match.vertex_map.items(), key=repr)
    edges = sorted(
        (
            (query_edge, edge.source, edge.target, edge.label, edge.timestamp)
            for query_edge, edge in match.edge_map.items()
        ),
        key=repr,
    )
    return repr((vertices, edges))


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

    Every parameter is validated at construction and raises ``ValueError``
    naming the offending field; the full reference table -- each field, its
    default, and how fields interact -- is ``docs/operations.md``.  The
    headline groups:

    * **storage/semantics**: ``default_window`` (fallback query window,
      drives graph retention), ``dedupe_structural``,
      ``store_complete_matches``;
    * **planning**: ``collect_statistics`` / ``track_triads`` (the
      statistics the planner consumes), ``plan_strategy``,
      ``primitive_size``, ``replan_threshold`` / ``replan_check_every``
      (error-driven replanning);
    * **ingest**: ``record_latency`` / ``latency_sample_cap`` (the ingest
      path itself is always the compiled one: interned labels, route plans,
      compiled predicates and probes -- ``docs/architecture.md``);
    * **event time**: ``allowed_lateness`` (float, ``"adaptive"``, or
      ``None``), ``late_policy``, ``idle_source_timeout`` -- see the
      per-attribute comments below and
      :class:`~repro.streaming.sources.MultiSourceReorderBuffer`;
    * **persistence**: ``checkpoint_every`` + ``checkpoint_path``
      (batch-cadence autosave).
    """

    def __init__(
        self,
        default_window: Optional[float] = None,
        collect_statistics: bool = True,
        track_triads: bool = True,
        dedupe_structural: bool = False,
        store_complete_matches: bool = True,
        plan_strategy: str = Strategy.SELECTIVITY,
        primitive_size: int = 2,
        record_latency: bool = True,
        latency_sample_cap: Optional[int] = LatencyRecorder.DEFAULT_CAP,
        allowed_lateness: Optional[Union[float, str]] = None,
        late_policy: str = LatePolicy.DROP,
        idle_source_timeout: Optional[float] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        replan_threshold: Optional[float] = None,
        replan_check_every: Optional[int] = None,
        dedup_memory_budget: Optional[int] = None,
        sketch_stats: bool = False,
    ):
        self.default_window = self.validate_default_window(default_window)
        self.collect_statistics = collect_statistics
        self.track_triads = track_triads
        self.dedupe_structural = dedupe_structural
        self.store_complete_matches = store_complete_matches
        self.plan_strategy = plan_strategy
        self.primitive_size = primitive_size
        self.record_latency = record_latency
        #: Reservoir size for the engine's per-edge latency recorder
        #: (``None`` retains every sample -- unbounded, diagnostics only).
        self.latency_sample_cap = latency_sample_cap
        #: Event-time ingestion: when set, the engine owns a
        #: :class:`~repro.streaming.sources.MultiSourceReorderBuffer` with
        #: this lateness horizon (one watermark per record ``source_id``,
        #: released on the minimum across active sources; sourceless streams
        #: behave exactly as a single global watermark).  ``process_record``
        #: / ``process_batch`` then admit records into the buffer and
        #: process watermark-closed prefixes as in-order batches on the
        #: batched fast path; genuinely-late records follow ``late_policy``.
        #: The string ``"adaptive"`` makes each source's horizon track a
        #: running quantile of its own observed displacement instead of a
        #: fixed value.  ``None`` (default) processes records exactly as
        #: they arrive.
        if allowed_lateness is not None and allowed_lateness != ADAPTIVE_LATENESS:
            allowed_lateness = float(allowed_lateness)
            if not allowed_lateness >= 0.0:  # also rejects NaN
                raise ValueError(
                    "allowed_lateness must be >= 0 in stream-time units, "
                    f"{ADAPTIVE_LATENESS!r}, or None to disable event-time reordering"
                )
        self.allowed_lateness = allowed_lateness
        if late_policy not in LatePolicy.ALL:
            raise ValueError(
                f"unknown late policy {late_policy!r}; expected one of {LatePolicy.ALL}"
            )
        #: What to do with a record below the watermark (see
        #: :class:`~repro.streaming.reorder.LatePolicy`): ``"drop"`` discards
        #: and counts it; ``"process_degraded"`` processes it immediately on
        #: the exact per-record path against whatever history is retained.
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
            idle_source_timeout = float(idle_source_timeout)
            if not idle_source_timeout > 0.0:  # also rejects NaN
                raise ValueError(
                    "idle_source_timeout must be a positive duration in "
                    "stream-time units (or None to wait for slow sources)"
                )
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
        #: Run an automatic replan check every N ingested edges (at the next
        #: record/batch boundary after the cadence is crossed, so checks never
        #: interrupt a batched run mid-flight).  Requires ``replan_threshold``.
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
        #: Bound each matcher's duplicate-suppression stores to this many
        #: entries (``None`` = unbounded, the historical behaviour).  Entries
        #: expire against the graph retention window regardless; the budget
        #: additionally caps adversarial high-cardinality growth with
        #: deterministic oldest-horizon-first eviction.  Suppression stays
        #: exact whenever the budget covers the identities alive inside the
        #: retention horizon.
        if dedup_memory_budget is not None:
            dedup_memory_budget = int(dedup_memory_budget)
            if dedup_memory_budget <= 0:
                raise ValueError(
                    "dedup_memory_budget must be a positive entry count or None"
                )
        self.dedup_memory_budget = dedup_memory_budget
        #: Back the stream summarizer's label/signature counters with
        #: count-min sketches (bounded memory at high label cardinality)
        #: instead of exact dicts.  Counts become one-sided estimates, which
        #: can only shift *plan choice* -- the emitted event stream is
        #: plan-independent, so conformance is unaffected.  Requires
        #: ``collect_statistics``.
        self.sketch_stats = bool(sketch_stats)
        if self.sketch_stats and not collect_statistics:
            raise ValueError(
                "sketch_stats requires collect_statistics=True: there is no "
                "summarizer to back with sketches otherwise"
            )

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


def _make_reorder_buffer(config: EngineConfig) -> Optional[MultiSourceReorderBuffer]:
    """Build the event-time buffer an :class:`EngineConfig` asks for (or ``None``).

    Shared by the single engine and the sharded parent so both resolve
    ``allowed_lateness`` / ``late_policy`` / ``idle_source_timeout``
    identically.
    """
    if config.allowed_lateness is None:
        return None
    return MultiSourceReorderBuffer(
        config.allowed_lateness,
        late_policy=config.late_policy,
        idle_timeout=config.idle_source_timeout,
    )


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


class StreamWorksEngine:
    """Continuous multi-query subgraph matching over a dynamic graph stream."""

    def __init__(
        self,
        default_window: Optional[float] = None,
        config: Optional[EngineConfig] = None,
    ):
        if config is None:
            config = EngineConfig(default_window=default_window)
        elif default_window is not None:
            config.default_window = EngineConfig.validate_default_window(default_window)
        self.config = config
        retention = TimeWindow(config.default_window) if config.default_window else TimeWindow(None)
        self.graph = DynamicGraph(window=retention)
        #: Event-time reorder buffer (``None`` unless
        #: ``EngineConfig(allowed_lateness=...)`` is set).  Always the
        #: multi-source buffer: with no ``source_id`` on the records it is
        #: byte-for-byte the single global watermark (regression-pinned),
        #: and sourced records get per-source watermarks with min-release.
        self.reorder: Optional[ReorderBuffer] = _make_reorder_buffer(config)
        #: Records processed through the batched fast path vs. the exact
        #: per-record path -- the deterministic signal that a workload kept
        #: (or lost) the fast path, independent of wall-clock noise.
        self.records_batched = 0
        self.records_per_record = 0
        #: Per-record-path records evicted by their own ingest (see
        #: :meth:`process_edge`); never matched.
        self.records_dead_on_arrival = 0
        #: Event-time horizon stamped by the event-time machinery: the
        #: reorder buffer's watermark when event-time ingestion is
        #: configured, or the global watermark a sharded parent attaches to
        #: every dispatched :class:`ShardBatch` (which keeps the horizon
        #: visible in per-shard ``metrics()`` even under the pool
        #: scheduler, where shard state lives in the workers).  Stays
        #: ``-inf`` on a plain direct-ingest engine; ``metrics()`` then
        #: reports the engine's own stream clock (largest timestamp
        #: offered) instead, and an end-of-stream ``flush`` can likewise
        #: carry a shard's reported horizon past the stamped watermark.
        self.event_time_watermark = float("-inf")
        self.summarizer: Optional[StreamSummarizer] = None
        if config.collect_statistics:
            self.summarizer = StreamSummarizer(
                track_triads=config.track_triads,
                sketch_stats=config.sketch_stats,
            )
            self.summarizer.follow(self.graph)
        self.queries: Dict[str, RegisteredQuery] = {}
        self.dispatch = DispatchIndex()
        #: Stream-boundary intern table: vertex/edge labels and predicate
        #: attribute names to dense ints.  Query vocabulary is interned at
        #: registration (deterministic: label order within the query, then
        #: attribute first-mention order); stream labels are admitted on
        #: first sight by the batched fast path.  Ids are engine-internal
        #: -- snapshots persist the table, and pre-columnar snapshots
        #: rebuild it deterministically from registration + insertion order.
        self.interning = InternTable()
        #: Columnar hot-path observability: ordered runs routed through
        #: route plans, records no registered leaf could bind (dropped before
        #: any matcher work), and records whose route plan was already in
        #: the cache, i.e. that skipped the dispatch-index probe.
        self.batches_vectorized = 0
        self.records_prefiltered = 0
        self.dispatch_memo_hits = 0
        #: SJ-tree leaves skipped per record because every label-compatible
        #: compiled edge check rejected the record's attrs (local search
        #: over such a leaf provably finds nothing).
        self.leaves_pruned = 0
        self.collector = CollectingSink()
        self._sinks = MultiSink([self.collector])
        self._sequence = 0
        self.edges_processed = 0
        #: ``process_batch`` invocations so far -- the autosave cadence clock.
        self.batches_processed = 0
        #: Monotone snapshot epoch: bumped on every :meth:`checkpoint`, carried
        #: across :meth:`restore`, written into the snapshot manifest so the
        #: newest of several autosaves is identifiable.
        self.checkpoint_epoch = 0
        self.throughput = ThroughputMeter()
        self.latency = LatencyRecorder(cap=config.latency_sample_cap)
        #: Live plan-quality monitor (observed vs planned selectivity per
        #: SJ-Tree join).  Always constructed -- passive when
        #: ``replan_threshold`` is unset -- so ``metrics()["replan"]`` and
        #: snapshots are uniform across configurations.
        self.plan_monitor = PlanMonitor(threshold=config.replan_threshold)
        #: The ``edges_processed`` count at which the next automatic replan
        #: check is due (``None`` = automatic checks disabled).  Checks run at
        #: record/batch boundaries only -- never mid-run -- and the marker is
        #: persisted so a restored engine keeps the exact cadence.
        self._next_replan_check: Optional[int] = (
            config.replan_check_every
            if config.replan_threshold is not None and config.replan_check_every is not None
            else None
        )

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
        dedupe_structural: Optional[bool] = None,
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
        dedupe_structural:
            Override the engine-level structural-deduplication setting for
            this query.
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
            dedupe_structural=(
                dedupe_structural
                if dedupe_structural is not None
                else self.config.dedupe_structural
            ),
            store_complete_matches=self.config.store_complete_matches,
            dedup_memory_budget=self.config.dedup_memory_budget,
        )
        registration = RegisteredQuery(query_name, query, query_window, plan, matcher)
        self.queries[query_name] = registration
        if on_match is not None:
            # filter by query name so the callback only sees this query's
            # events, and track the sink so unregistering detaches it
            sink = QueryFilterSink(query_name, CallbackSink(on_match))
            registration.sinks.append(sink)
            self._sinks.add(sink)
        self.dispatch.register(query_name, matcher.tree.leaves())
        intern_query_vocabulary(self.interning, query)
        self._update_retention()
        return registration

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
        """Build a planner over the current statistics.

        Shared by registration, replanning and the plan monitor so all three
        score selectivity with the *same* estimator construction -- the
        monitor's post-replan error is exactly zero only because its numbers
        reproduce the planner's.
        """
        return QueryPlanner(
            summary=self.summarizer.summary() if self.summarizer else None,
            config=PlannerConfig(
                strategy=strategy or self.config.plan_strategy,
                primitive_size=self.config.primitive_size,
                conditional_ordering=self.config.replan_threshold is not None,
            ),
        )

    def replan_query(self, name: str, strategy: Optional[str] = None) -> RegisteredQuery:
        """Re-plan a registered query using the statistics collected so far.

        The paper leaves "updating the query decomposition and search
        strategy" from continuously collected statistics as future work; this
        method implements the mechanism (and :meth:`run_replan_check` closes
        the loop automatically).  The query's SJ-Tree is rebuilt from the new
        plan and the live partial-match state is **migrated**: every
        admissible partial over the retained window is rebuilt in the new
        tree by replaying the window store through the new plan's leaves (see
        :meth:`_migrate_matcher_state`), so an event that was mid-assembly at
        the moment of re-planning is still detected when its remaining edges
        arrive.  Already-reported matches stay reported (the matcher's
        duplicate-suppression memory carries over), so a replan changes
        neither the match set nor the event order -- only the cost of
        computing it.  Must be called at a quiescent boundary (between
        records or batches), which is the only place the engine itself ever
        replans.
        """
        if name not in self.queries:
            raise KeyError(name)
        registration = self.queries[name]
        planner = self._make_planner(strategy)
        new_plan = planner.plan(registration.query, strategy=strategy)
        old_matcher = registration.matcher
        # matcher construction is the compile point, so a migrated plan
        # always runs on freshly compiled predicate tables -- never the old
        # plan's closures
        new_matcher = ContinuousQueryMatcher(
            query=registration.query,
            decomposition=new_plan.decomposition,
            graph=self.graph,
            window=registration.window,
            dedupe_structural=old_matcher.dedupe_structural,
            store_complete_matches=old_matcher.store_complete_matches,
            dedup_memory_budget=old_matcher.dedup_memory_budget,
        )
        # carry the duplicate-suppression memory (the same store objects) so
        # re-planning never causes an already-delivered event to be delivered
        # again -- the migration replay below relies on this to stay silent
        new_matcher.adopt_dedup_memories(*old_matcher.dedup_memories())
        migrated, dropped = self._migrate_matcher_state(old_matcher, new_matcher)
        registration.plan = new_plan
        registration.matcher = new_matcher
        registration.plan_version += 1
        self.plan_monitor.record_replan(migrated, dropped)
        # the SJ-Tree was rebuilt, so the dispatch index must be re-pointed at
        # the new leaves
        self.dispatch.register(name, new_matcher.tree.leaves())
        return registration

    def _migrate_matcher_state(
        self,
        old_matcher: ContinuousQueryMatcher,
        new_matcher: ContinuousQueryMatcher,
    ) -> tuple:
        """Move live match state from the old SJ-Tree into the new one.

        The new tree's shape need not resemble the old one's, so partials are
        not copied node-for-node; instead the retained window store is
        *replayed* through the new plan's leaves, which rebuilds every
        admissible partial the new tree can hold.  The replay emits nothing:
        every complete match over retained edges was already reported when
        its last edge was dispatched (the engine emits at a completion's last
        edge on both ingest paths), so the carried duplicate-suppression
        memory silences it, and window-inadmissible combinations are
        re-rejected by the same span checks that rejected them live.

        The root collection (complete-match history, when
        ``store_complete_matches`` is on) is copied verbatim first: the root
        subgraph is the full query under *every* plan, and the replay cannot
        rebuild suppressed completions.

        Returns ``(migrated, dropped)``: partials stored in the new tree
        after the replay, and old partials referencing already-evicted edges,
        which cannot be rebuilt.  A dropped partial's earliest edge is older
        than ``now - retention <= now - window``, so on an in-order stream it
        could never have completed anyway; under the ``process_degraded``
        late policy a replan boundary therefore acts as one additional expiry
        sweep (deterministic, and counted in
        ``metrics()["replan"]["partials_dropped"]``).
        """
        dropped = 0
        for node in old_matcher.tree.nodes.values():
            if node.parent_id is None:
                continue
            for match in node.all_matches():
                if any(
                    not self.graph.has_edge(match_edge.id)
                    for match_edge in match.edge_map.values()
                ):
                    dropped += 1
        if new_matcher.store_complete_matches:
            new_matcher.adopt_complete_matches(old_matcher.tree.root.all_matches())
        leaves = new_matcher.tree.leaves()
        for edge in self.graph.edges():
            new_matcher.process_edge_leaves(edge, leaves)
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
        order via :meth:`replan_query`.  Only plans produced by the
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
        estimator = self._make_planner(None)._estimator()
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
                self.replan_query(name)
                replanned.append(name)
        return replanned

    def _maybe_replan_check(self) -> None:
        """Run automatic replan checks the processed-edge cadence has earned.

        Called at record/batch boundaries (the engine's quiescent points --
        a replay-based migration mid-run would race the run's deferred
        emissions).  A batch that crosses several cadence marks runs several
        catch-up checks, so the check count is a deterministic function of
        ``edges_processed`` regardless of how the stream was batched.
        """
        if self._next_replan_check is None:
            return
        while self.edges_processed >= self._next_replan_check:
            self._next_replan_check += self.config.replan_check_every
            self.run_replan_check()

    def _update_retention(self) -> None:
        """Keep the graph retention window at least as long as every query window."""
        self.graph.window = required_retention(
            (q.window for q in self.queries.values()), self.config.default_window
        )

    # ------------------------------------------------------------------
    # stream processing
    # ------------------------------------------------------------------
    def register_source(self, source_id: str) -> None:
        """Declare a stream source (collector) before its first record.

        Multi-source event-time only: the release watermark is the minimum
        across the known sources' watermarks, so pre-registering the
        collector set guarantees nothing is released until every collector
        has spoken (or gone idle under ``idle_source_timeout``) -- the
        condition for sorted-merge-exact results regardless of arrival
        interleaving.  Unregistered sources join on their first record
        instead (see
        :meth:`repro.streaming.sources.MultiSourceReorderBuffer.register_source`).
        Raises ``RuntimeError`` when event-time ingestion is not configured.
        """
        if self.reorder is None:
            raise RuntimeError(
                "register_source requires event-time ingestion: set "
                "EngineConfig(allowed_lateness=...) so the engine owns a reorder buffer"
            )
        self.reorder.register_source(source_id)

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
        """Ingest one raw edge and run the affected registered queries against it.

        Only the (query, leaf) pairs whose primitives can bind the edge's
        label and endpoint labels are searched (see :meth:`_collect_matches`).

        An edge so late that it falls outside the retention horizon on
        arrival (``timestamp <= stream clock - retention``) is evicted by
        its own ingest and is **not** matched: it is counted in
        ``records_dead_on_arrival`` instead.  Matching it used to be
        erratic -- the evicted edge only found partners when *unrelated*
        edges happened to keep its endpoint vertices alive, and with
        statistics enabled the summarizer crashed on the evicted
        endpoints -- whereas skipping it is deterministic.  Streams that
        genuinely carry such records belong on the event-time path
        (``allowed_lateness`` + late policy), which handles them
        explicitly.
        """
        stopwatch_start = perf_counter() if self.config.record_latency else None
        self.throughput.start()
        self.records_per_record += 1
        edge = self.graph.ingest(
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
        events: List[MatchEvent] = []
        if self.graph.has_edge(edge.id):
            if self.summarizer is not None:
                self.summarizer.observe(self.graph, edge)
            found: List = []
            self._collect_matches(edge, found, expire=True)
            # edges_processed is bumped only after matching, so at emission
            # time it is the index of the triggering edge in this engine's
            # ingest stream
            self._emit_trigger(found, edge.timestamp, self.edges_processed, events)
        else:
            # dead on arrival: the ingest's own eviction sweep removed the
            # edge (it is outside the retention horizon), so there is
            # nothing coherent to match it against
            self.records_dead_on_arrival += 1
        self.edges_processed += 1
        self.throughput.add(1)
        self.throughput.stop()
        if stopwatch_start is not None:
            self.latency.record(perf_counter() - stopwatch_start)
        return events

    def _collect_matches(
        self, edge: Edge, found: List, expire: bool
    ) -> None:
        """Run the registered queries against one ingested edge.

        Appends ``(registration, match)`` pairs for every new complete match,
        in discovery order; the caller anchors and orders the emission (see
        :meth:`_emit_trigger`).  ``expire=False`` skips the per-matcher
        expiry sweep (the batched path sweeps once per batch instead).
        """
        if self.dispatch.front_rejects(edge.label):
            # no registered leaf can bind this label: skip endpoint-label
            # resolution and the candidates probe entirely
            return
        source_label = self._endpoint_label(edge.source)
        target_label = self._endpoint_label(edge.target)
        for owner, leaf_ids in self.dispatch.candidates(edge.label, source_label, target_label):
            registration = self.queries.get(owner)
            if registration is None:  # pragma: no cover - defensive
                continue
            matcher = registration.matcher
            if expire:
                matcher.expire_partials(edge.timestamp)
            leaves = [matcher.tree.node(leaf_id) for leaf_id in leaf_ids]
            for match in matcher.process_edge_leaves(edge, leaves):
                found.append((registration, match))

    def _emit_trigger(
        self,
        completions: List,
        detected_at: float,
        trigger_index: int,
        events: List[MatchEvent],
    ) -> None:
        """Emit all completions anchored at one trigger edge, canonically ordered.

        Within one trigger the discovery order of completions is an artefact
        of the active plan (leaf iteration and join order), so it cannot
        survive a replan.  Events are ordered by (query registration order,
        canonical match key) -- a pure function of the registered queries and
        the match content -- before sequence numbers are assigned, which
        makes the emitted order identical under every plan of the same
        queries, and therefore invariant under replanning.
        """
        if not completions:
            return
        if len(completions) > 1:
            order = {name: index for index, name in enumerate(self.queries)}
            completions.sort(
                key=lambda item: (order[item[0].name], _canonical_match_key(item[1]))
            )
        for registration, match in completions:
            event = MatchEvent(
                query_name=registration.name,
                match=match,
                detected_at=detected_at,
                sequence=self._sequence,
                trigger_index=trigger_index,
            )
            self._sequence += 1
            registration.match_count += 1
            self._sinks.deliver(event)
            events.append(event)

    def expire_all_partials(self, now: float) -> int:
        """Sweep every matcher's stored partial matches against ``now``.

        The batched ingest path runs this sweep (at the batch's expiry
        anchor) for every batch it processes.  The sharded engine calls it
        directly to deliver that same batch-cadence sweep to a shard that
        received *no* records in a batch -- the sweep sequence, not just
        the final clock, determines which partials survive once streams may
        carry late records, so a shard must not skip the sweeps the single
        engine ran.  Returns the number of partials dropped.
        """
        return sum(
            registration.matcher.expire_partials(now)
            for registration in self.queries.values()
            if not registration.matcher.idle
        )

    def process_record(self, record: StreamEdge) -> List[MatchEvent]:
        """Ingest one :class:`StreamEdge` record.

        With event-time ingestion configured (``allowed_lateness``) the
        record is admitted into the reorder buffer instead of being
        processed immediately; the returned events belong to whatever
        watermark-closed prefix the admission released (possibly empty, and
        possibly triggered by *earlier* records).  Call :meth:`flush` at end
        of stream to release the tail.
        """
        if self.reorder is not None:
            events = self._process_with_reorder([record])
        else:
            events = self._process_record_direct(record)
        self._maybe_replan_check()
        return events

    def _process_record_direct(self, record: StreamEdge) -> List[MatchEvent]:
        """Run one record through the exact per-record path, bypassing reorder."""
        return self.process_edge(
            record.source,
            record.target,
            record.label,
            record.timestamp,
            record.attrs,
            source_label=record.source_label,
            target_label=record.target_label,
            source_attrs=record.source_attrs,
            target_attrs=record.target_attrs,
        )

    def process_batch(
        self,
        records: Sequence[StreamEdge],
        expiry_anchor: Optional[float] = None,
    ) -> List[MatchEvent]:
        """Ingest a batch of records; returns all events raised by the batch.

        ``expiry_anchor`` overrides the partial-match expiry anchor (step 3
        below) with an *earlier* time.  Expiry is a pruning optimisation --
        anything it drops could never complete -- so an earlier anchor only
        retains more state and never changes the match set.  The sharded
        engine passes the global batch minimum here so a shard sweeping its
        own (later-starting) sub-batch keeps exactly the partials the
        single engine keeps, which matters when later batches may still
        carry late records that could complete them.

        This takes the batched fast path (the paper's section 2.1
        formulation is batch-oriented):

        1. the whole batch is ingested into the graph with eviction deferred
           (evicting against the batch's latest timestamp up front could
           remove edges that its earlier edges can still legally match);
        2. the summarizer folds the batch in one call;
        3. partial-match expiry runs **once per matcher per batch**, anchored
           at the batch's earliest timestamp (the conservative anchor: any
           partial it drops would also have been dropped by the per-edge
           path before the first edge of the batch);
        4. every edge is dispatched through the index;
        5. one deferred graph-eviction sweep closes the batch.

        Per-edge latency samples recorded in batch mode time the dispatch
        and matching step only -- ingest, expiry and eviction are amortised
        batch-level work -- so they are not directly comparable with
        :meth:`process_edge` samples, which include ingest.

        Steps 1-5 produce exactly the same events as feeding the records
        through :meth:`process_record` one at a time.  An embedding whose
        edges all lie inside the batch is *discovered* when its first
        dispatched edge seeds a leaf (its remaining edges are already in the
        graph), but its emission is deferred to the dispatch of its last
        in-batch edge -- the edge the per-record path completes it on -- so
        detection timestamps, trigger indices and event order are identical
        to single-edge mode, and independent of both the batching and the
        active plan (see :meth:`_run_fast_path`).

        The equivalence argument requires timestamps to be non-decreasing
        *within* a fast-path run (lateness relative to earlier batches is
        fine): with a disordered run, deferred eviction would let a late
        edge match history that the per-edge path had already evicted.  An
        internally out-of-order batch is therefore split at its inversion
        points into maximal non-decreasing runs, and steps 1-5 execute once
        per run -- the ordered stretches keep the fast path instead of the
        whole batch demoting to the per-record loop.  The contract is
        compositional: processing a disordered batch is *exactly* (event
        for event) processing each of its maximal ordered runs as its own
        batch, in arrival order.  Batch boundaries already carry semantic
        weight once records may be late -- the per-batch expiry sweep
        sequence decides which partials a late record can still complete,
        and eager per-record eviction prunes against the processing-order
        clock -- so, as with any batch split of a late-carrying stream,
        the run-split result can legitimately retain (event-time
        admissible) matches that the per-record path's eager eviction
        would have discarded.  For in-order input the two paths report
        identical match multisets, as before.  Streams whose disorder
        should be *repaired* rather than split around belong on the
        event-time path below.

        With event-time ingestion configured (``allowed_lateness``) the
        batch is admitted into the reorder buffer instead: the
        watermark-closed prefix is released and processed as a single
        in-order fast-path batch, and genuinely-late records follow the
        configured late policy.  ``expiry_anchor`` is reserved for direct
        (unbuffered) ingestion and rejected in that mode.
        """
        records = list(records)
        if self.reorder is not None:
            if expiry_anchor is not None:
                raise ValueError(
                    "expiry_anchor is not supported with event-time ingestion: "
                    "the reorder buffer decides when records are processed"
                )
            events = self._process_with_reorder(records)
        elif not records:
            events = []
        else:
            events = self._process_batch_direct(records, expiry_anchor)
        self._maybe_replan_check()
        self.batches_processed += 1
        self._maybe_autosave()
        return events

    def _maybe_autosave(self) -> None:
        """Checkpoint to the configured path when the batch cadence is due.

        An autosave failure must not look like a processing failure: by the
        time the cadence fires the batch IS fully processed (state mutated,
        events delivered to the collector), so the error is re-raised as a
        :class:`~repro.persistence.snapshot.SnapshotError` that says so --
        the caller recovers the batch's events from :meth:`events` and must
        *not* re-feed the batch.
        """
        if (
            self.config.checkpoint_every is None
            or self.batches_processed % self.config.checkpoint_every != 0
        ):
            return
        from ..persistence.snapshot import SnapshotError

        try:
            self.checkpoint(self.config.checkpoint_path)
        except Exception as error:
            raise SnapshotError(
                f"autosave to {self.config.checkpoint_path!r} failed after batch "
                f"{self.batches_processed}: {error}. The batch itself was fully "
                f"processed -- its events are in engine.events(); do NOT re-feed "
                f"it. Fix the checkpoint target (or unset checkpoint_every) and "
                f"continue."
            ) from error

    def _process_with_reorder(self, records: Sequence[StreamEdge]) -> List[MatchEvent]:
        """Admit records into the reorder buffer; process what it releases.

        The watermark-closed prefix (if any) is processed first as an
        in-order batch on the fast path, then any late records the
        ``process_degraded`` policy handed back run on the exact per-record
        path -- after the prefix, so they see the most history the store
        can still offer.  Under the ``drop`` policy late records are only
        counted (see ``metrics()["reorder"]``).
        """
        late = self.reorder.offer_all(records)
        ready = self.reorder.drain_ready()
        return self._process_released(ready, late, self.reorder.watermark)

    def _process_released(
        self,
        ready: Sequence[StreamEdge],
        late: Sequence[StreamEdge],
        watermark: float,
    ) -> List[MatchEvent]:
        """Process one buffer release: a sorted ready prefix + late hand-backs.

        ``watermark`` is the buffer's watermark at the moment of release --
        passed explicitly (rather than read back from the buffer) so the
        async ingest front-end, whose admission thread may already be ahead,
        stamps exactly the value the synchronous path would have.
        """
        self.event_time_watermark = watermark
        events: List[MatchEvent] = []
        if ready:
            events.extend(self._process_batch_direct(list(ready)))
        for record in late:
            events.extend(self._process_record_direct(record))
        return events

    def _process_flushed(
        self, remainder: List[StreamEdge], watermark: Optional[float] = None
    ) -> List[MatchEvent]:
        """Process the buffer's end-of-stream tail (shared with the async front-end).

        ``watermark`` is accepted for signature parity with the sharded
        engine (the async front-end captures it under its buffer lock) but
        unused here: the synchronous single-engine flush does not stamp a
        watermark, and the async path must match it byte for byte.
        """
        return self._process_batch_direct(remainder)

    def flush(self) -> List[MatchEvent]:
        """Release and process everything still held by the reorder buffer.

        Call at end of stream (nothing will arrive to advance the watermark
        past the buffered tail -- including the tail a min-watermark held
        for a slow source).  Returns the tail's events; a no-op returning
        ``[]`` when event-time ingestion is not configured.
        """
        if self.reorder is None:
            return []
        remainder = self.reorder.flush()
        if not remainder:
            return []
        return self._process_flushed(remainder)

    def _process_batch_direct(
        self,
        records: List[StreamEdge],
        expiry_anchor: Optional[float] = None,
    ) -> List[MatchEvent]:
        """Process a batch immediately: fast path per ordered run (see above)."""
        self.throughput.start()
        events: List[MatchEvent] = []
        for start, end in ordered_run_slices(records):
            self._run_fast_path(records[start:end], expiry_anchor, events)
        self.throughput.add(len(records))
        self.throughput.stop()
        return events

    def _run_fast_path(
        self,
        records: Sequence[StreamEdge],
        expiry_anchor: Optional[float],
        events: List[MatchEvent],
    ) -> None:
        """Steps 1-5 of the batched fast path over one non-decreasing run.

        A record already outside the retention horizon at its ingest point
        (``timestamp`` expired against the running stream clock) is *dead on
        arrival*: it is ingested and immediately evicted -- exactly the
        per-record path's behaviour -- counted in
        ``records_dead_on_arrival``, and never matched or folded into the
        statistics.  The batched path used to keep such records alive
        within their run (deferred eviction) and match them, which made the
        outcome depend on how the stream happened to be batched; a
        checkpoint/restore cycle re-batches the remainder of the stream, so
        resume exactness requires the batching-independent skip.  Within a
        non-decreasing run dead records precede any record that advances
        the clock, so the mid-run eviction sweep removes only them.
        """
        ingested: List[Optional[Edge]] = []
        window = self.graph.window
        for record in records:
            edge = self.graph.ingest(
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
            if window.bounded and window.is_expired(edge.timestamp, self.graph.current_time):
                # dead on arrival: mirror process_edge's ingest-then-evict
                self.graph.evict_expired()
                self.records_dead_on_arrival += 1
                ingested.append(None)
            else:
                ingested.append(edge)
        self.records_batched += len(records)
        if self.summarizer is not None:
            self.summarizer.observe_batch(
                self.graph, [edge for edge in ingested if edge is not None]
            )
        # the expiry anchor is the run's raw minimum (dead records included):
        # the sharded engine anchors at the global run minimum, and single
        # and sharded sweeps must be identical because with late records the
        # sweep sequence decides which partials survive
        batch_start = records[0].timestamp  # the run is non-decreasing
        if expiry_anchor is not None:
            batch_start = min(batch_start, expiry_anchor)
        for registration in self.queries.values():
            if not registration.matcher.idle:  # nothing stored: nothing to sweep
                registration.matcher.expire_partials(batch_start)
        # What a route plan stands for per record -- one dispatch probe, one
        # visit of each owner's matcher -- is counted in bulk when the run
        # ends (also when it ends in an exception: a plan outlives the run,
        # its tallies must not), so ``metrics()["dispatch"]`` and the
        # per-matcher edge counters read as if every record had been probed
        # (``docs/operations.md``).
        used: List[RoutePlan] = []
        try:
            self._dispatch_run(ingested, events, used)
        finally:
            for plan in used:
                if not plan.entries:
                    self.records_prefiltered += plan.uses
                self.dispatch_memo_hits += plan.settle(self.dispatch)
        self.graph.evict_expired()

    def _dispatch_run(
        self,
        ingested: Sequence[Optional[Edge]],
        events: List[MatchEvent],
        used: List[RoutePlan],
    ) -> None:
        """Step 4: route every live edge of a pre-ingested run and emit.

        Emission anchoring: the run is pre-ingested, so a completion whose
        edges all lie inside the run is *discovered* at whichever of its
        edges happens to be dispatched first -- and which edge that is
        depends on the active plan's leaf partition.  To keep detection
        plan-independent (and equal to the per-record path), every
        completion's emission is deferred to the dispatch of its LAST in-run
        edge -- exactly the edge the per-record path would have completed it
        on.  Deferral is safe within a run: nothing is evicted mid-run
        (dead-on-arrival records are removed before any later record is
        dispatched and can belong to no completion), and the
        duplicate-suppression memory prevents a deferred match from being
        rediscovered at its later edges.

        A record is routed through its *route plan* (:mod:`repro.core.route_plan`):
        found in ``dispatch.plans`` by ``(label id, source label id, target
        label id)``, built on first use, valid until the dispatch index next
        changes -- which happens between runs only.  Plans touched are
        appended to ``used``; the caller settles their per-run tallies.
        """
        positions: Dict[int, int] = {}
        for index, edge in enumerate(ingested):
            if edge is not None:
                positions[edge.id] = index
        deferred: Dict[int, List] = {}
        record_latency = self.config.record_latency
        self.batches_vectorized += 1
        intern = self.interning.intern
        front_rejects = self.dispatch.front_rejects
        plans = self.dispatch.plans
        # endpoint label ids: constant within a run (matching never mutates
        # the graph, dead-on-arrival evictions precede the loop)
        endpoint_memo: Dict[VertexId, int] = {}
        for index, edge in enumerate(ingested):
            if edge is None:  # dead on arrival: counted, never matched
                self.edges_processed += 1
                continue
            stopwatch_start = perf_counter() if record_latency else None
            found: List = []
            if front_rejects(edge.label):
                # no registered leaf has a query edge for this label: admit
                # it to the intern table and skip endpoint resolution and
                # routing altogether
                intern(edge.label)
                self.records_prefiltered += 1
            else:
                sid = endpoint_memo.get(edge.source)
                if sid is None:
                    sid = endpoint_memo[edge.source] = self._endpoint_label_id(edge.source)
                tid = endpoint_memo.get(edge.target)
                if tid is None:
                    tid = endpoint_memo[edge.target] = self._endpoint_label_id(edge.target)
                route_key = (intern(edge.label), sid, tid)
                plan = plans.get(route_key)
                if plan is None:
                    plan = self._build_route_plan(route_key, edge)
                if not plan.uses:
                    used.append(plan)
                plan.uses += 1
                attrs = edge.attrs
                survivors = 0
                searches: List = []
                last_owner = None
                for owner, leaf, checks in (
                    plan.entries if plan.index is None else plan.index.select(attrs)
                ):
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
                self.leaves_pruned += len(plan.entries) - survivors
                for owner, leaves in searches:
                    owner.searched += 1
                    registration = owner.registration
                    for match in registration.matcher.process_edge_leaves(edge, leaves):
                        found.append((registration, match))
            for registration, match in found:
                target = index  # every completion contains the current edge
                for match_edge in match.edge_map.values():
                    position = positions.get(match_edge.id)
                    if position is not None and position > target:
                        target = position
                deferred.setdefault(target, []).append((registration, match))
            due = deferred.pop(index, None)
            if due:
                self._emit_trigger(due, edge.timestamp, self.edges_processed, events)
            self.edges_processed += 1
            if stopwatch_start is not None:
                self.latency.record(perf_counter() - stopwatch_start)

    def _endpoint_label(self, vertex: VertexId) -> Optional[str]:
        """Stored label of an edge endpoint (``None`` when it is not retained)."""
        return self.graph.vertex(vertex).label if self.graph.has_vertex(vertex) else None

    def _endpoint_label_id(self, vertex: VertexId) -> int:
        """Intern id of an endpoint's stored label (``-1`` = no label to guard on)."""
        label = self._endpoint_label(vertex)
        return -1 if label is None else self.interning.intern(label)

    def _build_route_plan(self, route_key: Tuple[int, int, int], edge: Edge) -> RoutePlan:
        """Probe the dispatch index for ``edge``'s route and cache the plan."""
        plan = build_route_plan(
            self.dispatch,
            self.queries,
            edge.label,
            self._endpoint_label(edge.source),
            self._endpoint_label(edge.target),
        )
        self.dispatch.plans[route_key] = plan
        self.dispatch.plans_built += 1
        return plan

    def process_stream(self, stream: Iterable[StreamEdge]) -> List[MatchEvent]:
        """Ingest an entire stream; returns all events (also kept in ``collector``).

        With event-time ingestion configured the buffered tail is flushed
        once the stream is exhausted, so the returned events are complete.
        """
        events: List[MatchEvent] = []
        for record in stream:
            events.extend(self.process_record(record))
        events.extend(self.flush())
        return events

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> Dict[str, Any]:
        """Write an atomic snapshot of the engine's full state to ``path``.

        The snapshot covers everything the resume contract needs: the
        window store (index iteration orders included), every matcher's
        partial-match collections and duplicate-suppression memory, the
        reorder buffer (contents, watermark, late counters), the stream
        summarizer (its live triad legs are not stored: restore recounts
        them from the window store), registered queries with
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
        must be re-attached (:meth:`add_sink`) after restore.  Raises
        :class:`~repro.persistence.snapshot.SnapshotCorruptError` on any
        torn or damaged snapshot and
        :class:`~repro.persistence.snapshot.SnapshotVersionError` on a
        format-version mismatch -- never a silent partial load.
        """
        from ..persistence.snapshot import read_snapshot
        from ..persistence.state import ENGINE_KIND, load_engine_sections

        manifest, sections = read_snapshot(path, kind=ENGINE_KIND)
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
        result: Dict[str, Any] = {
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
                "per_record_path": self.records_per_record,
                "dead_on_arrival": self.records_dead_on_arrival,
            },
            # on the direct ingest path nothing stamps the attribute, so the
            # horizon is the stream clock itself (largest timestamp offered);
            # a stamped value (reorder path, or a sharded parent's dispatch)
            # is always >= this engine's own clock
            "event_time_watermark": max(self.event_time_watermark, self.graph.current_time)
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
            "sketch": self._sketch_metrics(),
            "columnar": self._columnar_metrics(),
        }
        return result

    def _columnar_metrics(self) -> Dict[str, Any]:
        """Aggregate compiled hot-path counters for ``metrics()["columnar"]``.

        ``range_scans`` / ``range_scan_fallbacks`` are process-local like
        the latency samples: they restart from zero after a restore.
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

    def _sketch_metrics(self) -> Dict[str, Any]:
        """Aggregate sketch counters for ``metrics()["sketch"]``.

        Always present (zeros when the sketches are off) so dashboards and
        the sharded parent's rollup see a uniform shape.  Dedup counters sum
        the identity and structural stores across every registered matcher;
        the per-store split is diagnostic-only and not surfaced.
        """
        dedup: Dict[str, Any] = {
            "budget": self.config.dedup_memory_budget,
            "entries": 0,
            "peak_entries": 0,
            "probes": 0,
            "front_negatives": 0,
            "front_false_positives": 0,
            "confirms": 0,
            "evictions_budget": 0,
            "evictions_horizon": 0,
        }
        for registration in self.queries.values():
            for memory in registration.matcher.dedup_memories():
                stats = memory.stats()
                for key in dedup:
                    if key == "budget":
                        continue
                    dedup[key] += stats[key]
        return {
            "dedup_memory": dedup,
            "stats_backend": "countmin" if self.config.sketch_stats else "exact",
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
