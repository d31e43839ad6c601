"""Query-sharded parallel engine: N shard engines behind one façade.

The single :class:`~repro.core.engine.StreamWorksEngine` already makes
multi-query ingest sub-linear in the number of registered queries (the
shared dispatch index only touches the (query, leaf) pairs an edge can
bind).  The next scaling axis is *parallelism*: registered queries are
partitioned across N shards, each shard owning a full private engine --
graph window store, summarizer, dispatch index, matchers -- so shards share
no mutable state and can run on separate cores.

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
hands over -- a single record included -- is split at its global inversion
points and every shard processes per-run segments; see
:func:`_execute_sub_batch` for why the segment boundaries must follow the
global runs.

Two schedulers are provided, selected by :class:`ShardConfig`:

* ``workers=0`` (default): shards execute serially in-process -- zero
  dependencies, deterministic, what the conformance tests run;
* ``workers=N``: shards execute in a pool of N persistent worker processes
  (``multiprocessing``, fork-based where available), one message round-trip
  per worker per batch with pickle-safe :class:`StreamEdge` sub-batches.
  Register every query *before* the first batch; the pool is started
  lazily on first use and shard state then lives in the workers.

Conformance envelope: routing by label is necessary-condition filtering and
never changes the match set, given the data model's rule that a vertex
identity has exactly one type -- a stream that names the same vertex id
with *different* vertex labels on different records is malformed (the
explicit ``add_vertex`` path rejects it), and under label routing the
shards and the single engine may resolve such a conflict to different
first writers.  The one in-model caveat is vertex *attributes*: they are
shared mutable state conveyed by whichever records carry
``source_attrs``/``target_attrs``.  Those records are broadcast to every
shard, but a shard may still evict a vertex (with its merged attributes)
earlier than the single engine would if the vertex's only remaining edges
were never routed to that shard.  Queries whose predicates read vertex
attributes written by records *outside* their own label set should use
``routing="broadcast"``, which gives every shard the full stream and makes
shard state bit-identical to the single engine's.
"""

from __future__ import annotations

import copy
import multiprocessing
import traceback
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
        ``0`` runs every shard serially in-process; ``N > 0`` runs the
        shards inside ``min(N, shard_count)`` persistent worker processes
        (round-robin shard ownership).
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
        if workers < 0:
            raise ValueError("workers must be >= 0")
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
        self.workers = workers
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


def _execute_sub_batch(
    engine: StreamWorksEngine,
    records: List[StreamEdge],
    clock,
    watermark: float = float("-inf"),
    replan_checks: int = 0,
) -> List[MatchEvent]:
    """Run one routed sub-batch through a shard engine, mirroring the parent.

    ``clock`` aligns the shard's eviction horizon with the *global* stream
    time the single engine would be at: a shard only sees the records routed
    to it, so its own ``current_time`` can lag behind the stream whenever
    the newest records were routed elsewhere, and a lagging eviction horizon
    would let a late edge match history the single engine had already
    evicted.  ``clock`` is a ``(pre, [(count, anchor, post), ...])`` pair:
    ``pre`` (global time before the parent batch) catches the shard up on
    the end-of-batch sweeps it missed while the stream went to other
    shards, and each subsequent entry describes one *ordered run* of the
    parent batch (the parent splits internally out-of-order batches at
    their global inversion points; a one-record batch is one run).
    ``count`` is how many of this shard's records fall inside the run --
    the shard runs that segment as one fast-path run, or, when the run
    routed it nothing, still sweeps every matcher's partials (the single
    engine sweeps all matchers once per run, and with late records legal
    across batches the sweep *sequence* decides what survives).
    ``anchor`` is the run's global minimum timestamp (where the single
    engine anchors that sweep) and ``post`` the global running maximum
    after the run (the deferred eviction the single engine applies there).
    Aligning shard segments to the global run boundaries -- rather than
    re-splitting the shard's own sub-batch, which is often *coarser*
    because routing removed the inverting records -- is what keeps events
    byte-identical: a coarser segment would pre-ingest edges across a
    global run boundary and detect cross-run matches on earlier trigger
    edges than the single engine does.

    ``watermark`` is the parent's event-time horizon at dispatch (the
    reorder buffer's watermark, or the global stream clock without one);
    it is stamped onto the shard engine so per-shard ``metrics()`` expose
    it even when shard state lives in a worker process.

    ``replan_checks`` is the number of selectivity-drift checks the parent's
    *global* cadence (``EngineConfig.replan_check_every`` against the global
    record count) declares due at the end of this sub-batch.  The shard runs
    them itself against its own monitor and statistics -- parent decides
    when, shards apply -- at the same quiescent post-batch boundary the
    single engine uses, so any replan the check triggers migrates state
    between complete batches, never mid-run.
    """
    engine.event_time_watermark = watermark
    pre_clock, run_slices = clock
    if pre_clock != float("-inf"):
        engine.evict_expired(pre_clock)
    events: List[MatchEvent] = []
    offset = 0
    run_start_clock = pre_clock
    for count, anchor, post_clock in run_slices:
        segment = records[offset : offset + count]
        offset += count
        if run_start_clock != float("-inf"):
            # pin the shard's stream clock to the global clock at the run's
            # start: the dead-on-arrival skip (records already outside
            # retention at ingest) tests against the stream clock, and a
            # shard whose own clock lags (its newest records were routed
            # elsewhere) would keep -- and match -- a record the single
            # engine kills.  Within a run deadness depends only on the
            # run-start clock (in-run predecessors are themselves
            # non-decreasing and cannot make a successor dead), so pinning
            # per run reproduces the single engine's determination exactly.
            engine.graph.advance_time(run_start_clock)
        if segment:
            events.extend(engine._run_batch(segment, watermark, anchor))
        else:
            engine.expire_all_partials(anchor)
        engine.evict_expired(post_clock)
        run_start_clock = post_clock
    for _ in range(replan_checks):
        engine.run_replan_check()
    # the parent's collector is authoritative; dropping the shard-local copy
    # keeps shard memory bounded
    engine.collector.clear()
    return events


def _shard_worker_main(conn, engines: Dict[int, StreamWorksEngine]) -> None:
    """Worker-process loop: own a set of shard engines, serve batch requests.

    Messages from the parent are tuples tagged by their first element:
    ``("batch", [ShardBatch, ...])`` processes each shard batch and replies
    ``("events", [(shard id, events), ...])``;
    ``("metrics",)`` replies with every owned shard's metrics;
    ``("state",)`` replies with every owned shard's serialised engine state
    (snapshot section payloads, used by parent-level checkpointing);
    ``("stop",)`` acknowledges and exits.  Any exception is reported back as
    ``("error", traceback)`` instead of killing the worker silently.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            return
        kind = message[0]
        try:
            if kind == "batch":
                replies: List[Tuple[int, List[MatchEvent]]] = []
                for batch in message[1]:
                    events = _execute_sub_batch(
                        engines[batch.shard_id],
                        batch.records(),
                        batch.clock,
                        batch.watermark,
                        batch.replan_checks,
                    )
                    replies.append((batch.shard_id, events))
                conn.send(("events", replies))
            elif kind == "metrics":
                conn.send(
                    ("metrics", {shard_id: engine.metrics() for shard_id, engine in engines.items()})
                )
            elif kind == "state":
                from ..persistence.state import engine_sections

                conn.send(
                    ("state", {shard_id: engine_sections(engine) for shard_id, engine in engines.items()})
                )
            elif kind == "stop":
                conn.send(("stopped",))
                return
            else:
                conn.send(("error", f"unknown message kind {kind!r}"))
        except Exception:
            conn.send(("error", traceback.format_exc()))


class _WorkerHandle:
    """Parent-side handle on one worker process."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn


class ShardedStreamEngine(IngestFront):
    """Continuous multi-query matching with queries partitioned across shards.

    Mirrors the :class:`StreamWorksEngine` surface (``register_query`` /
    ``process_record`` / ``process_batch`` / ``process_stream`` / ``events``
    / ``metrics``) and produces, batch for batch, the identical event list a
    single engine would -- same matches, same order, same sequence numbers,
    same detection timestamps.

    Usable as a context manager; :meth:`close` shuts the worker pool down
    (a no-op for the serial scheduler).
    """

    def __init__(
        self,
        config: Optional[ShardConfig] = None,
        shard_count: Optional[int] = None,
        workers: Optional[int] = None,
        default_window: Optional[float] = None,
        routing: Optional[str] = None,
    ):
        if config is None:
            config = ShardConfig(
                shard_count=shard_count if shard_count is not None else 1,
                workers=workers if workers is not None else 0,
                routing=routing if routing is not None else Routing.LABELS,
                default_window=default_window,
            )
        else:
            if shard_count is not None and shard_count != config.shard_count:
                raise ValueError("pass shard_count either via config or directly, not both")
            if workers is not None and workers != config.workers:
                raise ValueError("pass workers either via config or directly, not both")
            if default_window is not None:
                engine_config = copy.copy(config.engine)
                engine_config.default_window = EngineConfig.validate_default_window(
                    default_window
                )
                config = ShardConfig(
                    shard_count=config.shard_count,
                    workers=config.workers,
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
        #: One private engine per shard (state moves into the worker
        #: processes once a pool scheduler starts).
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
        #: Global stream time (largest timestamp offered so far); shards are
        #: evicted against this clock so their windows behave exactly as the
        #: single engine's would, even for records routed elsewhere.
        self._clock = float("-inf")
        self._started = False
        self._closed = False
        self._workers: Optional[List[_WorkerHandle]] = None
        self._worker_of: Dict[int, int] = {}

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
        dedupe_structural: Optional[bool] = None,
        shard: Optional[int] = None,
        _cost: Optional[float] = None,
    ) -> ShardedQuery:
        """Register a continuous query, assigning it to a shard.

        The shard is chosen greedily: the query's plan is costed with
        :func:`~repro.stats.plan_cost.plan_cost` and the query goes to the
        currently least-loaded shard (``shard`` overrides the choice).
        ``on_match`` callbacks run in the parent, after the merge, so they
        observe globally ordered events regardless of the scheduler.

        Every query must be registered before the first batch is processed,
        under either scheduler.  Label routing means a shard only holds the
        history *its* queries needed; a query registered mid-stream would
        land on a shard missing the in-window edges routing skipped, and
        silently miss matches the single engine would report.  (The single
        engine supports live registration because its one graph holds
        everything; supporting it here would require a history backfill.)
        """
        query_name = name or query.name
        if query_name in self.queries:
            raise ValueError(f"a query named {query_name!r} is already registered")
        self._check_mutable("register_query")
        # keyed on ingest, not on scheduler state: close() resets _started
        # on serial engines, but the missing-history problem is about
        # records already routed past the new query's shard
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
            dedupe_structural=dedupe_structural,
        )
        self.router.add_query(shard, query)
        # registration precedes any pool start (enforced above), so the
        # shard engines are still in-process: push the parent table to ALL
        # shards, not just the owner, keeping query-label ids aligned
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
        ``on_match``, ``dedupe_structural``).  Unlike one-at-a-time
        registration -- which greedily places each arrival on the currently
        lightest shard -- the whole set is costed first and partitioned with
        :func:`~repro.streaming.partition.greedy_partition` (sorted by
        descending cost), which balances skewed cost mixes noticeably
        better.  Event ordering follows the sequence order, exactly as if
        each query had been registered individually.
        """
        allowed_kwargs = {"name", "window", "strategy", "on_match", "dedupe_structural"}
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
        planner = QueryPlanner(
            config=PlannerConfig(
                strategy=strategy or self.config.engine.plan_strategy,
                primitive_size=self.config.engine.primitive_size,
            ),
        )
        return plan_cost(planner.plan(query, strategy=strategy))

    def unregister_query(self, name: str) -> None:
        """Remove a registered query from its shard (partial matches discarded)."""
        if name not in self.queries:
            raise KeyError(name)
        self._check_mutable("unregister_query")
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
        re-create -- graph state earlier than the single engine does.  That
        never changes the match set (admissibility is checked per query
        window) but it perturbs enumeration order and vertex-attribute
        retention, so every shard is pinned to the global window instead,
        computed with the single engine's own formula.
        """
        retention = required_retention(
            (q.window for q in self.queries.values()), self.config.engine.default_window
        )
        for engine in self.shards:
            # pre-fork only by design: register/unregister call _check_mutable
            # first, which refuses once the worker pool has started, so this
            # write never happens after the shards were shipped to workers
            engine.graph.window = retention  # repro-lint: ignore[fork-safety]

    def _check_mutable(self, operation: str) -> None:
        if self._closed:
            raise RuntimeError(f"{operation} is not allowed on a closed sharded engine")
        if self._started and self.config.workers > 0:
            raise RuntimeError(
                f"{operation} is not allowed after the worker pool has started: "
                "shard state lives in the worker processes; close() the engine "
                "and build a new one to change the registered queries"
            )

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
        observe the exact single-engine event order under either
        scheduler.  Not serialised by :meth:`checkpoint`; re-attach after
        :meth:`restore`.
        """
        self._sinks.add(sink)

    # ------------------------------------------------------------------
    # scheduler lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def fork_available() -> bool:
        """Return ``True`` when fork-based worker processes are supported."""
        return "fork" in multiprocessing.get_all_start_methods()

    def start(self) -> None:
        """Start the scheduler (lazy; called automatically on first batch).

        The worker pool prefers the ``fork`` start method -- the workers
        inherit the fully-registered shard engines with no pickling.  On
        platforms without fork the engines are pickled to spawned workers.
        """
        if self._closed:
            raise RuntimeError(
                "this sharded engine has been closed: its stream state was "
                "lost with the worker pool; build a new engine"
            )
        if self._started:
            return
        self._started = True
        if self.config.workers <= 0:
            return
        method = "fork" if self.fork_available() else None
        context = multiprocessing.get_context(method)
        worker_count = min(self.config.workers, self.config.shard_count)
        self._worker_of = {
            shard_id: shard_id % worker_count for shard_id in range(self.config.shard_count)
        }
        self._workers = []
        for worker_index in range(worker_count):
            owned = {
                shard_id: self.shards[shard_id]
                for shard_id, owner in self._worker_of.items()
                if owner == worker_index
            }
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, owned),
                daemon=True,
                name=f"shard-worker-{worker_index}",
            )
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(process, parent_conn))

    def close(self) -> None:
        """Shut down the worker pool (no-op for the serial scheduler).

        Closing a pool-mode engine (``workers > 0``) makes it unusable --
        whether or not the pool had started -- because a started pool's
        shard state dies with the workers, and allowing reuse of a
        never-started one would silently spawn a fresh pool outside the
        caller's lifecycle management.  Further ingest or metrics calls
        raise.  Serial engines keep all state in-process and stay usable.
        """
        if self.config.workers > 0:
            self._closed = True
        workers, self._workers = self._workers, None
        self._started = False
        if not workers:
            return
        for handle in workers:
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in workers:
            try:
                if handle.conn.poll(1.0):
                    handle.conn.recv()
            except (EOFError, OSError):
                pass
            handle.conn.close()
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - defensive
                handle.process.terminate()
                handle.process.join(timeout=1.0)

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # stream processing
    # ------------------------------------------------------------------
    def _run_batch(
        self, records: List[StreamEdge], watermark: Optional[float]
    ) -> List[MatchEvent]:
        """Route one batch to the shards, run it there, merge the events.

        Every ingest entry point of the front ends here
        (:mod:`repro.core.ingest`), a single record included, so the
        shards see exactly the run structure the single engine runs: the
        batch is split at its global inversion points and every shard gets
        its per-run segments (see :func:`_execute_sub_batch`).
        ``watermark`` is the release's (``None`` without a reorder buffer:
        the global stream clock is shipped instead).
        """
        self.start()
        self.throughput.start()
        base_index = self.edges_processed
        self.edges_processed += len(records)
        # the parent decides WHEN replan checks run (the front's global
        # record cadence); every shard applies that many checks at its
        # quiescent post-batch boundary, including shards this batch routed
        # nothing to -- the single engine checks every registered query
        # regardless of which records arrived
        replan_checks = self._due_replan_checks()
        # global stream clock: shards evict against the whole stream's time,
        # not just the sub-stream routed to them -- at the running maximum
        # after each ordered run (the single engine's deferred sweeps)
        pre_batch_clock = self._clock
        run_meta: List[Tuple[int, float, float]] = []
        post_clock = pre_batch_clock
        for start, end in ordered_run_slices(records):
            if records[end - 1].timestamp > post_clock:
                post_clock = records[end - 1].timestamp
            run_meta.append((base_index + end, records[start].timestamp, post_clock))
        self._clock = post_clock
        if watermark is None:
            watermark = self._clock
        per_shard = self.router.route(records, base_index)
        # the single engine sweeps EVERY matcher's partials once per run, so
        # every shard joins the fan-out (an empty segment still delivers
        # that sweep -- with late records legal across batches the sweep
        # sequence decides what survives), and the segment boundaries follow
        # the global runs, not the shard's own (often coarser) inversion
        # structure (see _execute_sub_batch)
        dispatch: List[Tuple[ShardBatch, int]] = []
        for shard_id in range(self.config.shard_count):
            entries = per_shard.get(shard_id, [])
            run_slices: List[Tuple[int, float, float]] = []
            pointer = 0
            for end_index, anchor, run_post in run_meta:
                count = 0
                while (
                    pointer + count < len(entries)
                    and entries[pointer + count][0] < end_index
                ):
                    count += 1
                pointer += count
                run_slices.append((count, anchor, run_post))
            batch = ShardBatch(
                shard_id,
                entries,
                watermark=watermark,
                clock=(pre_batch_clock, run_slices),
                replan_checks=replan_checks,
            )
            # the shard's local record base maps its events' trigger
            # indices back into this sub-batch
            dispatch.append((batch, self._records_sent[shard_id]))
            self._records_sent[shard_id] += len(entries)
        #: ``(global trigger index, query registration order, event)``
        tagged: List[Tuple[int, int, MatchEvent]] = []
        if self._workers is None:
            for batch, local_base in dispatch:
                tagged.extend(self._run_shard_serial(batch, local_base))
        else:
            tagged.extend(self._run_shards_pooled(dispatch))
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
        self.throughput.stop()
        return merged

    def _run_shard_serial(
        self, batch: ShardBatch, local_base: int
    ) -> List[Tuple[int, int, MatchEvent]]:
        events = _execute_sub_batch(
            self.shards[batch.shard_id], batch.records(), batch.clock, batch.watermark,
            batch.replan_checks,
        )
        return self._tag_events(events, batch.entries, local_base)

    def _run_shards_pooled(
        self, dispatch: List[Tuple[ShardBatch, int]]
    ) -> List[Tuple[int, int, MatchEvent]]:
        by_worker: Dict[int, List[Tuple[ShardBatch, int]]] = {}
        for batch, local_base in dispatch:
            by_worker.setdefault(self._worker_of[batch.shard_id], []).append(
                (batch, local_base)
            )
        pending: List[Tuple[int, List[Tuple[ShardBatch, int]]]] = []
        for worker_index in sorted(by_worker):
            items = by_worker[worker_index]
            self._workers[worker_index].conn.send(("batch", [batch for batch, _ in items]))
            pending.append((worker_index, items))
        tagged: List[Tuple[int, int, MatchEvent]] = []
        for worker_index, items in pending:
            reply = self._receive(worker_index)
            for (batch, local_base), (reply_shard, events) in zip(items, reply[1]):
                if reply_shard != batch.shard_id:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"worker {worker_index} replied for shard {reply_shard}, "
                        f"expected {batch.shard_id}"
                    )
                tagged.extend(self._tag_events(events, batch.entries, local_base))
        return tagged

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

    def _receive(self, worker_index: int):
        try:
            reply = self._workers[worker_index].conn.recv()
        except (EOFError, OSError) as exc:
            self.close()
            raise RuntimeError(f"shard worker {worker_index} died mid-request") from exc
        if reply[0] == "error":
            # other workers may still have replies queued for this request;
            # the pipe protocol is desynchronized, so tear the pool down and
            # leave the engine closed rather than let a later metrics() or
            # process_batch() read a stale reply
            self.close()
            raise RuntimeError(f"shard worker {worker_index} failed:\n{reply[1]}")
        return reply

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> Dict[str, Any]:
        """Write an atomic snapshot of the whole sharded engine to ``path``.

        Captures the parent state (reorder buffer, registrations, clocks,
        counters, collected events) plus a full per-shard engine snapshot
        under one manifest.  With a running worker pool the shard states
        are fetched from the workers, so a pool-mode engine checkpoints
        exactly like a serial one.  Returns the snapshot manifest (monotone
        ``epoch`` included).  See :meth:`restore` for the resume contract.
        """
        from ..persistence.snapshot import write_snapshot
        from ..persistence.state import SHARDED_KIND, engine_sections, sharded_sections

        if self._closed:
            raise RuntimeError(
                "checkpoint is not allowed on a closed sharded engine: its "
                "shard state died with the worker pool"
            )
        if self._workers:
            by_shard: Dict[int, Dict[str, Any]] = {}
            for handle in self._workers:
                handle.conn.send(("state",))
            for worker_index in range(len(self._workers)):
                reply = self._receive(worker_index)
                by_shard.update(reply[1])
            shard_states = [by_shard[shard_id] for shard_id in range(self.config.shard_count)]
        else:
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
        (matches, order, sequence numbers) of the uninterrupted run, under
        either scheduler -- a pool-configured engine restores its shard
        state in-process and re-forks the pool lazily on the next batch.
        ``on_match`` callbacks and custom sinks are not serialisable and
        must be re-attached via :meth:`add_sink`.  Raises
        :class:`~repro.persistence.snapshot.SnapshotCorruptError` on any
        torn or damaged snapshot and
        :class:`~repro.persistence.snapshot.SnapshotVersionError` on a
        format-version mismatch -- never a silent partial load.
        """
        from ..persistence.snapshot import read_snapshot
        from ..persistence.state import SHARDED_KIND, load_sharded_sections

        manifest, sections = read_snapshot(path, kind=SHARDED_KIND)
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

        Per-shard metrics are fetched from the worker processes when a pool
        scheduler is running; shard-level totals (edges, graph sizes,
        stored partial matches) are folded into ``totals``.  Collect them
        before :meth:`close` on a pool engine -- the shard state dies with
        the workers.
        """
        if self._closed:
            raise RuntimeError(
                "this sharded engine has been closed: per-shard metrics were "
                "lost with the worker pool; collect metrics before close()"
            )
        if self._workers:
            shard_metrics: Dict[int, Dict[str, Any]] = {}
            for handle in self._workers:
                handle.conn.send(("metrics",))
            for worker_index in range(len(self._workers)):
                reply = self._receive(worker_index)
                shard_metrics.update(reply[1])
        else:
            shard_metrics = {
                shard_id: engine.metrics() for shard_id, engine in enumerate(self.shards)
            }
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
        # sketch rollup: configuration facts from the shared engine config
        sketch = {
            "dedup_memory": dict(RETIRED_DEDUP_METRICS),
            "stats_backend": "countmin" if self.config.engine.sketch_stats else "exact",
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
            "workers": len(self._workers) if self._workers else 0,
            "edges_processed": self.edges_processed,
            "events_emitted": self._sequence,
            "reorder": self.reorder.stats() if self.reorder is not None else None,
            "routing": self.router.stats(),
            "throughput": self.throughput.summary(),
            "shard_loads": self.shard_loads(),
            "assignments": self.assignments(),
            "replan": replan,
            "sketch": sketch,
            "columnar": columnar,
            "totals": totals,
            "shards": {shard_id: shard_metrics[shard_id] for shard_id in sorted(shard_metrics)},
        }

    def describe(self) -> str:
        """Return a human-readable status report of the sharded engine."""
        scheduler = (
            f"pool({len(self._workers)} workers)" if self._workers else "serial"
        )
        lines = [
            f"ShardedStreamEngine: {self.config.shard_count} shards ({scheduler}), "
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
            f"workers={self.config.workers}, queries={len(self.queries)})"
        )
