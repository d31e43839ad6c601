"""Query-sharded parallel engine: N shard engines behind one façade.

The single :class:`~repro.core.engine.StreamWorksEngine` already makes
multi-query ingest sub-linear in the number of registered queries (the
shared dispatch index only touches the (query, leaf) pairs an edge can
bind).  This engine partitions the registered queries across N shards
instead, each shard owning a full private engine -- graph window store,
summarizer, dispatch index, matchers -- so shards share no mutable state.
The shards run one after another in the calling thread; a shard count above
one costs routing and a merge and buys no parallelism.

Correctness is by construction:

* **Partitioning** is greedy balance over estimated plan cost
  (:func:`repro.stats.plan_cost.plan_cost` over the
  :class:`~repro.core.planner.QueryPlanner`'s plan), so heavy standing
  queries spread across shards instead of piling onto one.
* **Routing**: a merged label->shard map
  (:class:`~repro.streaming.partition.BatchRouter`) fans each incoming
  batch out only to the shards whose queries could bind it; a record no
  query can bind is dropped before any shard sees it.  Every shard receives
  *every* record its own queries could match, so no shard needs another
  shard's state.
* **Merging**: every emitted event carries the local index of the edge that
  triggered it (:attr:`~repro.streaming.events.MatchEvent.trigger_index`);
  the router tags each routed record with its global stream index, so the
  per-shard event streams merge back into exactly the order the single
  engine would have produced -- (global trigger index, query registration
  order, per-shard emission order) -- and are then renumbered with global
  sequence numbers.  Feeding the same batches to a sharded engine (any
  shard count) and to a single engine yields identical event lists.

The parent shares its ingest front with the single engine
(:class:`~repro.core.ingest.IngestFront`): with ``allowed_lateness`` set on
the :class:`EngineConfig` template, one reorder buffer lives in front of
the router, re-sorts the *global* stream within the lateness horizon, and
fans watermark-closed prefixes out as in-order batches (shards never buffer
again -- their config copies strip the lateness).  Every batch the front
hands over -- a single record included -- is routed as it is; the parent
tags each record with the global stream clock its ordered run began at,
the one thing a shard cannot know by itself (see :func:`_execute_sub_batch`).

Conformance envelope: routing by label is necessary-condition filtering and
never changes the match set, given the data model's rule that a vertex
identity has exactly one type -- a stream that names the same vertex id
with *different* vertex labels on different records is malformed (the
explicit ``add_vertex`` path rejects it), and under label routing the
shards and the single engine may resolve such a conflict to different
first writers.  The one in-model caveat is vertex *attributes*: they are
shared mutable state conveyed by whichever records carry
``source_attrs``/``target_attrs``, and they live as long as the vertex has
a stored edge -- store state outside the window rule.  Those records are
broadcast to every shard, and every shard evicts at the global clock, but
a shard may still evict a vertex (with its merged attributes) earlier than
the single engine would if the vertex's only remaining edges were never
routed to that shard.  Queries whose predicates read vertex attributes
written by records *outside* their own label set should use
``routing="broadcast"``, which gives every shard the full stream and makes
shard state bit-identical to the single engine's.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..graph.interning import InternTable
from ..graph.window import TimeWindow
from ..query.query_graph import QueryGraph
from ..stats.plan_cost import plan_cost
from ..streaming.edge_stream import StreamEdge
from ..streaming.events import (
    CallbackSink,
    CollectingSink,
    EventSink,
    MatchEvent,
    MultiSink,
    QueryFilterSink,
)
from ..streaming.metrics import ThroughputMeter
from ..streaming.partition import (
    BatchRouter,
    Routing,
    ShardBatch,
    greedy_partition,
    least_loaded_shard,
)
from ..streaming.reorder import ordered_run_slices
from .decomposition import Strategy
from .engine import (
    RETIRED_DEDUP_METRICS,
    EngineConfig,
    StreamWorksEngine,
    intern_query_vocabulary,
    required_retention,
)
from .ingest import IngestFront
from .planner import PlannerConfig, QueryPlanner

__all__ = ["ShardConfig", "ShardedQuery", "ShardedStreamEngine"]


class ShardConfig:
    """Tunables of the sharded engine.

    Parameters
    ----------
    shard_count:
        Number of query shards (each owns a private engine).
    workers:
        Accepted for compatibility and must be ``0``: every shard runs
        serially in the calling thread.  Any other value raises
        ``ValueError`` (the worker-process pool was removed).
    routing:
        :attr:`Routing.LABELS` (default) or :attr:`Routing.BROADCAST`; see
        the module docstring for the conformance envelope of each.
    engine:
        :class:`EngineConfig` template applied to every shard engine (each
        shard gets its own shallow copy).  ``replan_threshold`` /
        ``replan_check_every`` (selectivity-drift replanning) are supported:
        the parent paces the checks on the global record count and each
        shard applies them at its post-batch boundary (see
        :class:`~repro.streaming.partition.ShardBatch`).
    default_window:
        Convenience override for ``engine.default_window``.
    """

    def __init__(
        self,
        shard_count: int = 1,
        workers: int = 0,
        routing: str = Routing.LABELS,
        engine: Optional[EngineConfig] = None,
        default_window: Optional[float] = None,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if workers != 0:
            raise ValueError(
                f"workers={workers!r} is not supported: the shard worker pool was "
                "removed and every shard runs serially in-process (workers=0)"
            )
        if routing not in Routing.ALL:
            raise ValueError(f"unknown routing mode {routing!r}")
        if engine is None:
            engine = EngineConfig(default_window=default_window)
        elif default_window is not None:
            # never mutate a caller-owned config: it may also drive an
            # unrelated engine
            engine = copy.copy(engine)
            engine.default_window = EngineConfig.validate_default_window(default_window)
        self.shard_count = shard_count
        self.routing = routing
        self.engine = engine


class ShardedQuery:
    """Registration handle for one query on the sharded engine.

    The parent-side record of where a query lives and how it is accounted:
    its assigned ``shard_id``, the global registration ``order`` (which
    ties merged event ordering to single-engine query iteration order),
    the plan ``cost`` used for greedy balancing, its resolved ``window``,
    and the running ``match_count``.  Obtained from
    :meth:`ShardedStreamEngine.register_query`; not constructed directly.
    """

    def __init__(
        self,
        name: str,
        query: QueryGraph,
        shard_id: int,
        order: int,
        cost: float,
        window: Optional[TimeWindow] = None,
    ):
        self.name = name
        self.query = query
        #: Query time window (as resolved by the owning shard engine).
        self.window = window if window is not None else TimeWindow(None)
        #: Shard the query was assigned to.
        self.shard_id = shard_id
        #: Global registration order (ties the merged event order to the
        #: order the unsharded engine would iterate its queries in).
        self.order = order
        #: Estimated plan cost used for greedy balancing.
        self.cost = cost
        self.match_count = 0
        #: Parent-level sinks owned by this registration (``on_match``).
        self.sinks: List[EventSink] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedQuery({self.name!r}, shard={self.shard_id}, "
            f"cost={self.cost:.1f}, matches={self.match_count})"
        )


def _execute_sub_batch(engine: StreamWorksEngine, batch: ShardBatch) -> List[MatchEvent]:
    """Run one routed sub-batch through a shard engine; return its events.

    A shard sees only the records routed to it, so its own stream clock
    lags the global one whenever the newest records went elsewhere.  The
    window rule reads the clock at a record below it
    (:meth:`StreamWorksEngine._dispatch_run` and the dead-on-arrival skip),
    and vertex attributes live exactly as long as the store keeps their
    vertex, so the shard must both judge and evict at the global clock.
    Each entry carries the global clock its ordered run of the parent batch
    began at (``batch.run_clock``): wherever that clock moves on, the shard
    ends its current run, advances its clock there and evicts, as the
    single engine did at the end of the runs in between.  Every record of
    a run below that clock is late against it, every other one is at or
    above it, so the shard's own runs then judge each record exactly as the
    single engine does.  After its records the shard evicts at the clock
    the whole batch ended at (``batch.end_clock``), so its store enters
    the replan checks and the next batch as the single engine's does.
    A sub-batch of a sorted parent batch (``batch.ordered``) has one run
    clock and is sorted itself, so it runs as one run, unscanned.

    ``batch.replan_checks`` is the number of selectivity-drift checks the
    parent's *global* cadence (``EngineConfig.replan_check_every`` against
    the global record count) declares due at the end of this sub-batch.
    The shard runs them itself against its own monitor and statistics --
    parent decides when, shards apply -- at the same quiescent post-batch
    boundary the single engine uses, so any replan the check triggers
    migrates state between complete batches, never mid-run.
    """
    records = batch.records()
    events: List[MatchEvent] = []
    start = 0
    previous = float("-inf")
    for position, clock in enumerate(batch.run_clock):
        if clock <= previous:
            continue
        if position > start:
            events.extend(engine._run_batch(records[start:position], batch.ordered))
        engine.graph.advance_time(clock)
        engine.evict_expired(clock)
        start = position
        previous = clock
    if start < len(records):
        events.extend(engine._run_batch(records[start:], batch.ordered))
    engine.graph.advance_time(batch.end_clock)
    engine.evict_expired(batch.end_clock)
    for _ in range(batch.replan_checks):
        engine.run_replan_check()
    # the parent's collector is authoritative; dropping the shard-local copy
    # keeps shard memory bounded
    engine.collector.clear()
    return events


class ShardedStreamEngine(IngestFront):
    """Continuous multi-query matching with queries partitioned across shards.

    Mirrors the :class:`StreamWorksEngine` surface (``register_query`` /
    ``process_record`` / ``process_batch`` / ``process_stream`` / ``events``
    / ``metrics``) and produces, batch for batch, the identical event list a
    single engine would -- same matches, same order, same sequence numbers,
    same detection timestamps.
    """

    def __init__(
        self,
        config: Optional[ShardConfig] = None,
        shard_count: Optional[int] = None,
        default_window: Optional[float] = None,
        routing: Optional[str] = None,
    ):
        if config is None:
            config = ShardConfig(
                shard_count=shard_count if shard_count is not None else 1,
                routing=routing if routing is not None else Routing.LABELS,
                default_window=default_window,
            )
        else:
            if shard_count is not None and shard_count != config.shard_count:
                raise ValueError("pass shard_count either via config or directly, not both")
            if default_window is not None:
                engine_config = copy.copy(config.engine)
                engine_config.default_window = EngineConfig.validate_default_window(
                    default_window
                )
                config = ShardConfig(
                    shard_count=config.shard_count,
                    routing=config.routing,
                    engine=engine_config,
                )
            if routing is not None and routing != config.routing:
                raise ValueError("pass routing either via config or directly, not both")
        # event-time ingestion happens once, in the parent's front, *before*
        # routing: its reorder buffer re-sorts the global stream and the
        # watermark-closed prefixes fan out as in-order batches, so the
        # per-shard engines must not buffer again (their copy of the config
        # has the lateness -- and the idle-source timeout, which only means
        # anything next to a buffer -- stripped)
        super().__init__(config.engine)
        self.config = config
        shard_engine_config = copy.copy(config.engine)
        shard_engine_config.allowed_lateness = None
        shard_engine_config.idle_source_timeout = None
        # replan cadence is a parent-level concern: the parent's front counts
        # the *global* stream and tells each shard how many checks are due
        # per batch (ShardBatch.replan_checks); a shard pacing itself on its own
        # shard-local edge count would drift from the single engine's
        # check boundaries.  The threshold stays: shards own the monitors
        # and score their own queries when told to check.
        shard_engine_config.replan_check_every = None
        # autosave is a parent-level concern: a shard checkpointing itself
        # mid-batch would race the parent's snapshot and clobber its path
        shard_engine_config.checkpoint_every = None
        shard_engine_config.checkpoint_path = None
        #: One private engine per shard.
        self.shards: List[StreamWorksEngine] = [
            StreamWorksEngine(config=copy.copy(shard_engine_config))
            for _ in range(config.shard_count)
        ]
        self.router = BatchRouter(config.shard_count, mode=config.routing)
        self.queries: Dict[str, ShardedQuery] = {}
        #: Parent intern table: the full registered vocabulary, pushed to
        #: every shard at registration (:meth:`InternTable.adopt`) so the
        #: per-shard tables agree on query-label ids regardless of which
        #: shard a query landed on.  Stream labels admitted mid-stream may
        #: still differ per shard -- harmless, ids are engine-internal.
        self.interning = InternTable()
        self._shard_loads: List[float] = [0.0] * config.shard_count
        self._registration_seq = 0
        self.collector = CollectingSink()
        self._sinks = MultiSink([self.collector])
        self._sequence = 0
        self.throughput = ThroughputMeter()
        #: Records sent to each shard so far -- maps a shard event's
        #: ``trigger_index`` back into the in-flight sub-batch.
        self._records_sent: List[int] = [0] * config.shard_count
        #: Global stream time (largest timestamp offered so far): the clock a
        #: late record is tagged with, since a shard's own clock does not see
        #: the records routed elsewhere.
        self._clock = float("-inf")

    # ------------------------------------------------------------------
    # query registration / partitioning
    # ------------------------------------------------------------------
    def register_query(
        self,
        query: QueryGraph,
        name: Optional[str] = None,
        window: Optional[float] = None,
        strategy: Optional[str] = None,
        on_match: Optional[callable] = None,
        shard: Optional[int] = None,
        _cost: Optional[float] = None,
    ) -> ShardedQuery:
        """Register a continuous query, assigning it to a shard.

        The shard is chosen greedily: the query's plan is costed with
        :func:`~repro.stats.plan_cost.plan_cost` and the query goes to the
        currently least-loaded shard (``shard`` overrides the choice).
        ``on_match`` callbacks run in the parent, after the merge, so they
        observe globally ordered events.

        Every query must be registered before the first batch is processed.
        Label routing means a shard only holds the
        history *its* queries needed; a query registered mid-stream would
        land on a shard missing the in-window edges routing skipped, and
        silently miss matches the single engine would report.  (The single
        engine supports live registration because its one graph holds
        everything; supporting it here would require a history backfill.)
        """
        query_name = name or query.name
        if query_name in self.queries:
            raise ValueError(f"a query named {query_name!r} is already registered")
        # the missing-history problem is about records already routed past
        # the new query's shard
        if self.edges_processed > 0:
            raise RuntimeError(
                "register_query is not allowed once the sharded engine has "
                "processed records: the new query's shard would be missing the "
                "graph history that routing skipped for it; register every "
                "query up front (or build a new engine)"
            )
        if shard is not None and not 0 <= shard < self.config.shard_count:
            raise ValueError(f"shard must be in [0, {self.config.shard_count})")
        if self.config.engine.checkpoint_every is not None:
            # parent-level autosave: the shard configs are stripped, so the
            # shard engine's own registration check never fires
            StreamWorksEngine._check_checkpointable(query, query_name)

        if _cost is None:
            _cost = self._plan_cost_of(query, strategy)
        cost = _cost
        if shard is None:
            shard = least_loaded_shard(self._shard_loads)
        shard_registration = self.shards[shard].register_query(
            query,
            name=query_name,
            window=window,
            strategy=strategy,
        )
        self.router.add_query(shard, query)
        # push the parent table to ALL shards, not just the owner, keeping
        # query-label ids aligned
        intern_query_vocabulary(self.interning, query)
        adopted = self.interning.labels()
        for shard_engine in self.shards:
            shard_engine.interning.adopt(adopted)
        registration = ShardedQuery(
            query_name, query, shard, self._registration_seq, cost,
            window=shard_registration.window,
        )
        self._registration_seq += 1
        self._shard_loads[shard] += cost
        self.queries[query_name] = registration
        self._sync_retention()
        if on_match is not None:
            sink = QueryFilterSink(query_name, CallbackSink(on_match))
            registration.sinks.append(sink)
            self._sinks.add(sink)
        return registration

    def register_queries(self, queries: Sequence) -> List[ShardedQuery]:
        """Register several queries at once with offline (LPT) balancing.

        ``queries`` is a sequence of :class:`QueryGraph` objects or
        ``(query, kwargs)`` pairs, where ``kwargs`` are forwarded to
        :meth:`register_query` (``name``, ``window``, ``strategy``,
        ``on_match``).  Unlike one-at-a-time
        registration -- which greedily places each arrival on the currently
        lightest shard -- the whole set is costed first and partitioned with
        :func:`~repro.streaming.partition.greedy_partition` (sorted by
        descending cost), which balances skewed cost mixes noticeably
        better.  Event ordering follows the sequence order, exactly as if
        each query had been registered individually.
        """
        allowed_kwargs = {"name", "window", "strategy", "on_match"}
        specs: List[Tuple[QueryGraph, Dict[str, Any]]] = []
        for item in queries:
            if isinstance(item, tuple):
                query, kwargs = item
                kwargs = dict(kwargs)
            else:
                query, kwargs = item, {}
            # validate before registering anything so a bad spec mid-batch
            # cannot leave the batch half-registered
            unknown = set(kwargs) - allowed_kwargs
            if unknown:
                raise ValueError(
                    f"unsupported register_queries kwargs for {kwargs.get('name') or query.name!r}: "
                    f"{sorted(unknown)} (shard assignment is computed by the batch)"
                )
            specs.append((query, kwargs))
        costs: Dict[str, float] = {}
        for query, kwargs in specs:
            query_name = kwargs.get("name") or query.name
            if query_name in costs:
                raise ValueError(f"duplicate query name {query_name!r} in batch registration")
            if query_name in self.queries:
                # check the whole batch up front so a collision cannot leave
                # it half-registered
                raise ValueError(f"a query named {query_name!r} is already registered")
            costs[query_name] = self._plan_cost_of(query, kwargs.get("strategy"))
        # seed the partition with the current loads so batch registration
        # composes with queries that are already registered
        assignment = greedy_partition(
            costs, self.config.shard_count, initial_loads=self._shard_loads
        )
        registered: List[ShardedQuery] = []
        try:
            for query, kwargs in specs:
                query_name = kwargs.get("name") or query.name
                registered.append(
                    self.register_query(
                        query,
                        shard=assignment[query_name],
                        _cost=costs[query_name],
                        **kwargs,
                    )
                )
        except Exception:
            # a per-query rejection (e.g. a bad window value) must not leave
            # the batch half-registered: roll back what already landed
            for handle in registered:
                self.unregister_query(handle.name)
            raise
        return registered

    def _plan_cost_of(self, query: QueryGraph, strategy: Optional[str]) -> float:
        """Plan the query (statistics-free) and score it for balancing.

        The shard engine plans again inside its own ``register_query`` --
        deliberately: forwarding this throwaway plan's decomposition would
        force the shard's plan to record the MANUAL strategy, corrupting
        plan metadata, and registration is not a hot path.
        """
        planner = QueryPlanner(config=PlannerConfig(strategy=strategy or Strategy.SELECTIVITY))
        return plan_cost(planner.plan(query, strategy=strategy))

    def unregister_query(self, name: str) -> None:
        """Remove a registered query from its shard (partial matches discarded)."""
        if name not in self.queries:
            raise KeyError(name)
        registration = self.queries.pop(name)
        self.shards[registration.shard_id].unregister_query(name)
        self.router.remove_query(registration.shard_id, registration.query)
        self._shard_loads[registration.shard_id] -= registration.cost
        self._sync_retention()
        for sink in registration.sinks:
            self._sinks.remove(sink)
        registration.sinks.clear()

    def _sync_retention(self) -> None:
        """Pin every shard's graph retention to the *global* retention window.

        The single engine retains ``max`` over every registered query's
        window (unbounded if any query is unbounded).  Each shard engine
        computes that maximum over its own queries only, which would let a
        shard with short-windowed queries evict -- and on duplicate edges,
        re-create -- graph state earlier than the single engine does.
        Retention only prunes -- every match over an edge it evicts fails
        the window rule of the query that would use it -- so that never
        changes the match set, but it perturbs vertex-attribute retention,
        so every shard is pinned to the global window instead, computed
        with the single engine's own formula.
        """
        retention = required_retention(
            (q.window for q in self.queries.values()), self.config.engine.default_window
        )
        for engine in self.shards:
            engine.graph.window = retention

    def assignments(self) -> Dict[str, int]:
        """Return ``{query name: shard id}`` for every registered query."""
        return {name: registration.shard_id for name, registration in self.queries.items()}

    def shard_loads(self) -> List[float]:
        """Return the summed estimated plan cost assigned to each shard.

        One float per shard id -- the balancing objective the greedy
        assignment minimises the spread of; compare with
        ``metrics()["shards"]`` for how estimates matched reality.
        """
        return list(self._shard_loads)

    def add_sink(self, sink: EventSink) -> None:
        """Attach an additional event sink (delivered merged, in global order).

        Sinks run in the parent after the deterministic merge, so they
        observe the exact single-engine event order.  Not serialised by
        :meth:`checkpoint`; re-attach after :meth:`restore`.
        """
        self._sinks.add(sink)

    def close(self) -> None:
        """Release nothing: a no-op kept so callers that close engines still work.

        Every shard lives in-process, so the engine stays usable after it.
        """

    # ------------------------------------------------------------------
    # stream processing
    # ------------------------------------------------------------------
    def _run_batch(self, records: List[StreamEdge], ordered: bool = False) -> List[MatchEvent]:
        """Route one batch to the shards, run it there, merge the events.

        Every ingest entry point of the front ends here
        (:mod:`repro.core.ingest`), a single record included.  A shard runs
        only when the batch routed it records or a replan check is due;
        each record carries the global stream clock its ordered run began
        at (see :func:`_execute_sub_batch`); a reorder-buffer release
        (``ordered``) is one run.  The throughput meter stops also when a
        shard raises.
        """
        self.throughput.start()
        try:
            base_index = self.edges_processed
            self.edges_processed += len(records)
            # the parent decides WHEN replan checks run (the front's global
            # record cadence); every shard applies that many checks at its
            # quiescent post-batch boundary, including shards this batch routed
            # nothing to -- the single engine checks every registered query
            # regardless of which records arrived
            replan_checks = self._due_replan_checks()
            # the global stream clock each ordered run starts at: what a shard
            # whose own clock lags must judge and evict against (see
            # _execute_sub_batch)
            clock = self._clock
            run_clock: List[float] = []
            for start, end in [(0, len(records))] if ordered else ordered_run_slices(records):
                run_clock.extend([clock] * (end - start))
                clock = max(clock, records[end - 1].timestamp)
            self._clock = clock
            per_shard = self.router.route(records, base_index)
            #: ``(global trigger index, query registration order, event)``
            tagged: List[Tuple[int, int, MatchEvent]] = []
            for shard_id in range(self.config.shard_count):
                entries = per_shard.get(shard_id, [])
                if not entries and not replan_checks:
                    continue
                batch = ShardBatch(
                    shard_id,
                    entries,
                    run_clock=[run_clock[index - base_index] for index, _ in entries],
                    end_clock=clock,
                    replan_checks=replan_checks,
                    ordered=ordered,
                )
                # the shard's local record base maps its events' trigger
                # indices back into this sub-batch
                local_base = self._records_sent[shard_id]
                self._records_sent[shard_id] += len(entries)
                tagged.extend(self._run_shard_serial(batch, local_base))
            # a query lives in exactly one shard, so events tied on (trigger,
            # registration order) all come from one shard and the stable sort
            # preserves their emission order -- this is precisely the order the
            # single engine emits in
            tagged.sort(key=lambda item: (item[0], item[1]))
            merged: List[MatchEvent] = []
            for _, _, event in tagged:
                event.sequence = self._sequence
                self._sequence += 1
                self.queries[event.query_name].match_count += 1
                self._sinks.deliver(event)
                merged.append(event)
            self.throughput.add(len(records))
        finally:
            self.throughput.stop()
        return merged

    def _run_shard_serial(
        self, batch: ShardBatch, local_base: int
    ) -> List[Tuple[int, int, MatchEvent]]:
        events = _execute_sub_batch(self.shards[batch.shard_id], batch)
        return self._tag_events(events, batch.entries, local_base)

    def _tag_events(
        self,
        events: List[MatchEvent],
        sub_batch: List[Tuple[int, StreamEdge]],
        local_base: int,
    ) -> List[Tuple[int, int, MatchEvent]]:
        tagged = []
        for event in events:
            global_index = sub_batch[event.trigger_index - local_base][0]
            event.trigger_index = global_index
            tagged.append((global_index, self.queries[event.query_name].order, event))
        return tagged

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> Dict[str, Any]:
        """Write an atomic snapshot of the whole sharded engine to ``path``.

        Captures the parent state (reorder buffer, registrations, clocks,
        counters, collected events) plus a full per-shard engine snapshot
        under one manifest.  Returns the snapshot manifest (monotone
        ``epoch`` included).  See :meth:`restore` for the resume contract.
        """
        from ..persistence.snapshot import write_snapshot
        from ..persistence.state import SHARDED_KIND, engine_sections, sharded_sections

        shard_states = [engine_sections(engine) for engine in self.shards]
        self.checkpoint_epoch += 1
        return write_snapshot(
            path, SHARDED_KIND, self.checkpoint_epoch, sharded_sections(self, shard_states)
        )

    @classmethod
    def restore(cls, path: str) -> "ShardedStreamEngine":
        """Reconstruct a sharded engine from a :meth:`checkpoint` snapshot.

        The restored engine resumes exactly at its watermark: feeding it
        the remainder of the stream yields byte-for-byte the events
        (matches, order, sequence numbers) of the uninterrupted run.  An
        older snapshot is upgraded first (:mod:`repro.persistence.upgrade`;
        one a worker-pool engine wrote restores serially).  ``on_match``
        callbacks and custom sinks are not serialisable and must be
        re-attached via :meth:`add_sink`.  Raises
        :class:`~repro.persistence.snapshot.SnapshotCorruptError` on any
        torn or damaged snapshot and
        :class:`~repro.persistence.snapshot.SnapshotVersionError` on a
        format it cannot read -- never a silent partial load.
        """
        from ..persistence.snapshot import SNAPSHOT_FORMAT_VERSION, read_snapshot
        from ..persistence.state import SHARDED_KIND, load_sharded_sections
        from ..persistence.upgrade import upgrade

        manifest, sections = read_snapshot(path, kind=SHARDED_KIND)
        if manifest["format_version"] < SNAPSHOT_FORMAT_VERSION:
            sections = upgrade(SHARDED_KIND, sections, manifest["format_version"])
        engine = load_sharded_sections(sections)
        engine.checkpoint_epoch = manifest["epoch"]
        return engine

    # ------------------------------------------------------------------
    # results and introspection
    # ------------------------------------------------------------------
    def events(self, query_name: Optional[str] = None) -> List[MatchEvent]:
        """Return collected merged events, optionally filtered by query name."""
        if query_name is None:
            return list(self.collector.events)
        return self.collector.for_query(query_name)

    def match_counts(self) -> Dict[str, int]:
        """Return ``{query name: complete matches emitted so far}`` across all
        shards (counted at the parent, so identical to the single engine's)."""
        return {name: registration.match_count for name, registration in self.queries.items()}

    def metrics(self) -> Dict[str, Any]:
        """Return merged metrics: routing, throughput, per-shard engine metrics.

        Shard-level totals (edges, graph sizes, stored partial matches) are
        folded into ``totals``.
        """
        shard_metrics = {
            shard_id: engine.metrics() for shard_id, engine in enumerate(self.shards)
        }
        # a shard hears only of the batches routed to it, so its horizon is
        # the parent's: the last release's watermark, or the global clock
        horizon = self._clock if self.reorder is None else self.event_time_watermark
        for shard in shard_metrics.values():
            shard["event_time_watermark"] = max(shard["event_time_watermark"], horizon)
        # replan rollup: counters sum over the per-shard monitors (a cadence
        # tick runs one check on EVERY shard, so checks_run counts
        # shard-checks); last_errors / plan_versions merge cleanly because a
        # query lives in exactly one shard
        shard_replans = [m["replan"] for m in shard_metrics.values()]
        error_count = sum(r["error_count"] for r in shard_replans)
        mean_error = (
            sum(r["mean_error"] * r["error_count"] for r in shard_replans) / error_count
            if error_count
            else 0.0
        )
        last_errors: Dict[str, float] = {}
        plan_versions: Dict[str, int] = {}
        for shard_replan in shard_replans:
            last_errors.update(shard_replan["last_errors"])
            plan_versions.update(shard_replan["plan_versions"])
        replan = {
            "enabled": self._next_replan_check is not None,
            "threshold": self.config.engine.replan_threshold,
            "check_every": self.config.engine.replan_check_every,
            "checks_run": sum(r["checks_run"] for r in shard_replans),
            "triggers_fired": sum(r["triggers_fired"] for r in shard_replans),
            "plans_applied": sum(r["plans_applied"] for r in shard_replans),
            "partials_migrated": sum(r["partials_migrated"] for r in shard_replans),
            "partials_dropped": sum(r["partials_dropped"] for r in shard_replans),
            "max_error_seen": max((r["max_error_seen"] for r in shard_replans), default=0.0),
            "mean_error": mean_error,
            "error_count": error_count,
            "last_errors": last_errors,
            "plan_versions": plan_versions,
        }
        # columnar rollup: the hot-path counters sum cleanly over shards
        # (each shard owns a private intern table and route-plan cache);
        # interned_labels reports the PARENT table -- the registered
        # vocabulary every shard agrees on -- not a sum, because the same
        # label interned on four shards is one label, not four
        shard_columnars = [m["columnar"] for m in shard_metrics.values()]
        columnar_keys = (
            "compiled_queries",
            "compiled_checks",
            "batches_vectorized",
            "records_prefiltered",
            "dispatch_memo_hits",
            "leaves_pruned",
            "range_scans",
            "range_scan_fallbacks",
        )
        columnar = dict(
            {"interned_labels": len(self.interning)},
            **{
                key: sum(c[key] for c in shard_columnars)
                for key in columnar_keys
            },
        )
        totals = {
            "shard_edges_processed": sum(m["edges_processed"] for m in shard_metrics.values()),
            "graph_vertices": sum(m["graph_vertices"] for m in shard_metrics.values()),
            "graph_edges": sum(m["graph_edges"] for m in shard_metrics.values()),
            "edges_evicted": sum(m["edges_evicted"] for m in shard_metrics.values()),
            "cold": sum(m["ingest_paths"]["cold"] for m in shard_metrics.values()),
            "cold_retained": sum(
                m["ingest_paths"]["cold_retained"] for m in shard_metrics.values()
            ),
            "stored_partial_matches": sum(
                sum(m["stored_partial_matches"].values()) for m in shard_metrics.values()
            ),
        }
        return {
            "shard_count": self.config.shard_count,
            "edges_processed": self.edges_processed,
            "events_emitted": self._sequence,
            "reorder": self.reorder.stats() if self.reorder is not None else None,
            "routing": self.router.stats(),
            "throughput": self.throughput.summary(),
            "shard_loads": self.shard_loads(),
            "assignments": self.assignments(),
            "replan": replan,
            "sketch": {"dedup_memory": dict(RETIRED_DEDUP_METRICS)},
            "columnar": columnar,
            "totals": totals,
            "shards": {shard_id: shard_metrics[shard_id] for shard_id in sorted(shard_metrics)},
        }

    def describe(self) -> str:
        """Return a human-readable status report of the sharded engine."""
        lines = [
            f"ShardedStreamEngine: {self.config.shard_count} shards (serial), "
            f"{len(self.queries)} queries, {self.edges_processed} records offered, "
            f"{self._sequence} events emitted",
        ]
        for shard_id in range(self.config.shard_count):
            names = sorted(
                name for name, registration in self.queries.items()
                if registration.shard_id == shard_id
            )
            lines.append(
                f"  shard {shard_id}: load={self._shard_loads[shard_id]:.1f}, "
                f"queries={names}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedStreamEngine(shards={self.config.shard_count}, "
            f"queries={len(self.queries)})"
        )
