"""Whole-engine state capture and reconstruction (the snapshot payloads).

This module turns a live :class:`~repro.core.engine.StreamWorksEngine` (or
:class:`~repro.core.sharded.ShardedStreamEngine`) into the section payloads
of a snapshot file and back.  The contract is *exact resume*:

    ``restore(checkpoint(E))`` followed by the rest of the stream produces
    byte-for-byte the events (matches, order, sequence numbers) and the
    deterministic metrics the uninterrupted run produces.

Everything that influences future behaviour is therefore captured
explicitly: the window store with its index iteration orders, the cold
ring of records kept out of it (in stream order: a late registration
promotes from it), every SJ-Tree's partial-match collections (bucket order
included -- it decides join candidate enumeration), the multi-source
reorder buffer's pending tail, per-source clocks and monotone watermark
floor, and every deterministic counter.  State that is a pure function of
other sections is recounted instead -- the expiry queue from the window
store -- and the planning statistics are never stored: they are computed
from the window store whenever a plan is made.  Two things are
deliberately *not* captured:

* process-local counters (the latency recorder, the throughput meter and
  the route-plan cache hits): a restored engine starts fresh ones, so two
  runs of one stream write byte-identical snapshots;
* ``on_match`` callbacks and custom sinks are arbitrary Python callables --
  the caller re-attaches them after ``restore()`` (the engine-owned
  collector, with its full event history, *is* restored).

The loaders read the shape the writers here write (snapshot format 4) and
no other: every key is read as written.  An older snapshot's sections
reach them through :func:`repro.persistence.upgrade.upgrade`, the one
place that knows the older shapes.

Because the collector is append-only and fully captured, the ``events``
section -- and therefore autosave cost -- grows with every match ever
emitted, not with the window.  Long-running deployments that drain events
downstream should ``engine.collector.clear()`` periodically; future
matching is unaffected (in-flight state lives in the matchers).

Queries are persisted through :mod:`repro.query.serialize`; a query whose
predicates cannot round-trip (``CustomPredicate``) makes the engine
un-checkpointable and raises a :class:`~repro.persistence.snapshot.SnapshotError`
naming the query.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Mapping

from ..core.decomposition import Decomposition
from ..core.dispatch import DispatchIndex
from ..core.engine import (
    EngineConfig,
    RegisteredQuery,
    StreamWorksEngine,
    intern_query_vocabulary,
)
from ..core.matcher import ContinuousQueryMatcher
from ..core.planner import QueryPlan
from ..query.query_graph import QueryGraph
from ..graph.dynamic_graph import DynamicGraph
from ..graph.interning import InternTable
from ..graph.window import TimeWindow
from ..isomorphism.match import Match
from ..query.serialize import QuerySerializationError, query_from_dict, query_to_dict
from ..stats.plan_monitor import PlanMonitor
from ..stats.summarizer import StreamSummarizer
from ..streaming.edge_stream import StreamEdge
from ..streaming.events import MatchEvent
from ..streaming.reorder import ReorderBuffer
from .snapshot import SnapshotCorruptError, SnapshotError

if TYPE_CHECKING:  # imported lazily at runtime to avoid a circular import
    from ..core.sharded import ShardedStreamEngine

__all__ = [
    "ENGINE_KIND",
    "SHARDED_KIND",
    "engine_sections",
    "load_engine_sections",
    "sharded_sections",
    "load_sharded_sections",
]

#: Snapshot ``kind`` written by the single engine.
ENGINE_KIND = "streamworks-engine"
#: Snapshot ``kind`` written by the sharded engine.
SHARDED_KIND = "streamworks-sharded-engine"


# ----------------------------------------------------------------------
# small shared codecs
# ----------------------------------------------------------------------
def _config_state(config: EngineConfig) -> Dict[str, Any]:
    """Every ``EngineConfig`` constructor parameter, read back under its own name.

    The field list is the constructor's signature, so a new knob is
    persisted without a second list to keep in step with it.
    """
    return {
        name: getattr(config, name) for name in inspect.signature(EngineConfig).parameters
    }


def _window_state(window: TimeWindow) -> Dict[str, Any]:
    return {"duration": window.duration if window.bounded else None}


def _window_from_state(state: Mapping[str, Any]) -> TimeWindow:
    return TimeWindow(state["duration"])


def _query_to_dict_checked(query: QueryGraph, owner: str) -> Dict[str, Any]:
    try:
        return query_to_dict(query)
    except QuerySerializationError as error:
        raise SnapshotError(
            f"registered query {owner!r} cannot be checkpointed: {error} "
            f"(CustomPredicate-bearing queries do not round-trip; re-register "
            f"them after restore instead)"
        ) from error


def _plan_state(plan: QueryPlan, owner: str) -> Dict[str, Any]:
    decomposition = plan.decomposition
    return {
        "strategy": plan.strategy,
        "decomposition_strategy": decomposition.strategy,
        "tree_shape": decomposition.tree_shape,
        "primitives": [
            _query_to_dict_checked(primitive, owner) for primitive in decomposition.primitives
        ],
        "estimates": [[name, value] for name, value in plan.estimates.items()],
        "summary_edge_count": plan.summary_edge_count,
    }


def _plan_from_state(query: QueryGraph, state: Mapping[str, Any]) -> QueryPlan:
    primitives = [query_from_dict(payload) for payload in state["primitives"]]
    estimates = {name: value for name, value in state["estimates"]}
    decomposition = Decomposition(
        query,
        primitives,
        strategy=state["decomposition_strategy"],
        tree_shape=state["tree_shape"],
        estimates=dict(estimates),
    )
    return QueryPlan(
        query=query,
        decomposition=decomposition,
        strategy=state["strategy"],
        estimates=estimates,
        summary_edge_count=state["summary_edge_count"],
    )


def _event_state(event: MatchEvent) -> Dict[str, Any]:
    return {
        "q": event.query_name,
        "m": event.match.state_dict(),
        "t": event.detected_at,
        "s": event.sequence,
        "i": event.trigger_index,
    }


def _event_from_state(state: Mapping[str, Any]) -> MatchEvent:
    return MatchEvent(
        query_name=state["q"],
        match=Match.from_state(state["m"]),
        detected_at=state["t"],
        sequence=state["s"],
        trigger_index=state["i"],
    )


@contextmanager
def loading() -> Iterator[None]:
    """Raise a structural error in the block (a missing key, a value of the
    wrong type) as :class:`SnapshotCorruptError`."""
    try:
        yield
    except SnapshotError:
        raise
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as error:
        raise SnapshotCorruptError(
            f"snapshot payload is structurally valid but not loadable: {error!r}"
        ) from error


def _dispatch_counters(dispatch: DispatchIndex) -> Dict[str, int]:
    # Only the counters travel: the index itself is rebuilt by the
    # register() calls the loader replays (same queries, same order).
    return {
        "lookups": dispatch.lookups,
        "entries_matched": dispatch.entries_matched,
        "entries_skipped": dispatch.entries_skipped,
    }


# ----------------------------------------------------------------------
# single engine
# ----------------------------------------------------------------------
def engine_sections(engine: StreamWorksEngine) -> Dict[str, Any]:
    """Capture a single engine's full state as ordered snapshot sections."""
    # the matchers' edges_processed counters are exact only once the route
    # plans' deferred owner visits are replayed
    engine.dispatch.replay_owner_visits()
    queries = []
    for name, registration in engine.queries.items():
        matcher = registration.matcher
        queries.append(
            {
                "name": name,
                "query": _query_to_dict_checked(registration.query, name),
                "window": _window_state(registration.window),
                "plan": _plan_state(registration.plan, name),
                "match_count": registration.match_count,
                "plan_version": registration.plan_version,
                # shape marker only: compiled closures are never serialised.
                # Restore rebuilds the matcher, and matcher construction is
                # the compile point, so the loader recompiles and checks the
                # fresh tables against this marker.
                "compiled_plan": matcher.compiled.marker(),
                "matcher": matcher.state_dict(),
            }
        )
    return {
        "config": _config_state(engine.config),
        "interning": engine.interning.state_dict(),
        "graph": engine.graph.state_dict(),
        "summarizer": engine.summarizer.state_dict() if engine.summarizer is not None else None,
        # `is not None`, not truthiness: an EMPTY reorder buffer is falsy
        # (it has __len__), and dropping it would silently disable
        # event-time ingestion on the restored engine
        "reorder": engine.reorder.state_dict() if engine.reorder is not None else None,
        "queries": queries,
        # the cold ring, in stream order: what a late registration promotes
        "cold": [record.to_dict() for record in engine.cold],
        "events": [_event_state(event) for event in engine.collector.events],
        "counters": {
            "sequence": engine._sequence,
            "edges_processed": engine.edges_processed,
            "records_batched": engine.records_batched,
            "records_dead_on_arrival": engine.records_dead_on_arrival,
            "records_cold": engine.records_cold,
            "event_time_watermark": engine.event_time_watermark,
            "batches_processed": engine.batches_processed,
            "checkpoint_epoch": engine.checkpoint_epoch,
            "dispatch": _dispatch_counters(engine.dispatch),
            "plan_monitor": engine.plan_monitor.state_dict(),
            "replan_next_check": engine._next_replan_check,
            "batches_vectorized": engine.batches_vectorized,
            "records_prefiltered": engine.records_prefiltered,
            "leaves_pruned": engine.leaves_pruned,
        },
    }


def load_engine_sections(sections: Mapping[str, Any]) -> StreamWorksEngine:
    """Rebuild a single engine from :func:`engine_sections` payloads."""
    with loading():
        engine = StreamWorksEngine(config=EngineConfig(**sections["config"]))
        engine.graph = DynamicGraph.from_state(sections["graph"])
        engine.summarizer = None
        if sections["summarizer"] is not None:
            engine.summarizer = StreamSummarizer.from_state(sections["summarizer"], engine.graph)
        reorder = sections["reorder"]  # `None`: written without event-time ingestion
        engine.reorder = None if reorder is None else ReorderBuffer.from_state(reorder)
        # the table holds the registered vocabulary and every label the
        # stream admitted, with the ids the pre-crash engine assigned
        engine.interning = InternTable.from_state(sections["interning"])
        for payload in sections["queries"]:
            query = query_from_dict(payload["query"])
            window = _window_from_state(payload["window"])
            plan = _plan_from_state(query, payload["plan"])
            matcher = ContinuousQueryMatcher(
                query=query,
                decomposition=plan.decomposition,
                graph=engine.graph,
                window=window,
                dedupe_structural=engine.config.dedupe_structural,
            )
            # construction is the compile point: the restored matcher runs on
            # freshly compiled tables, never deserialised ones
            if matcher.compiled.marker() != payload["compiled_plan"]:
                raise SnapshotCorruptError(
                    f"query {payload['name']!r}: recompiled predicate "
                    f"tables {matcher.compiled.marker()} do not match the "
                    f"snapshot's compiled-plan marker {payload['compiled_plan']}"
                )
            matcher.load_state(payload["matcher"])
            registration = RegisteredQuery(payload["name"], query, window, plan, matcher)
            registration.match_count = payload["match_count"]
            registration.plan_version = payload["plan_version"]
            engine.add_registration(registration)
            engine.dispatch.register(payload["name"], matcher.tree.leaves())
        engine.reset_cold([StreamEdge.from_dict(payload) for payload in sections["cold"]])
        counters = sections["counters"]
        engine._sequence = counters["sequence"]
        engine.edges_processed = counters["edges_processed"]
        engine.records_batched = counters["records_batched"]
        engine.records_dead_on_arrival = counters["records_dead_on_arrival"]
        engine.records_cold = counters["records_cold"]
        engine.event_time_watermark = float(counters["event_time_watermark"])
        engine.batches_processed = counters["batches_processed"]
        engine.checkpoint_epoch = counters["checkpoint_epoch"]
        dispatch_counters = counters["dispatch"]
        engine.dispatch.lookups = dispatch_counters["lookups"]
        engine.dispatch.entries_matched = dispatch_counters["entries_matched"]
        engine.dispatch.entries_skipped = dispatch_counters["entries_skipped"]
        engine.plan_monitor = PlanMonitor.from_state(counters["plan_monitor"])
        engine._next_replan_check = counters["replan_next_check"]
        engine.batches_vectorized = counters["batches_vectorized"]
        engine.records_prefiltered = counters["records_prefiltered"]
        engine.leaves_pruned = counters["leaves_pruned"]
        engine.collector.events.extend(
            _event_from_state(payload) for payload in sections["events"]
        )
    return engine


# ----------------------------------------------------------------------
# sharded engine
# ----------------------------------------------------------------------
def sharded_sections(
    engine: "ShardedStreamEngine", shard_states: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Capture a sharded engine's parent state plus its shard states.

    ``shard_states`` is one :func:`engine_sections` payload per shard, in
    shard-id order.
    """
    registrations = sorted(engine.queries.values(), key=lambda reg: reg.order)
    sections: Dict[str, Any] = {
        "config": {
            "shard_count": engine.config.shard_count,
            "routing": engine.config.routing,
            "engine": _config_state(engine.config.engine),
        },
        "queries": [
            {
                "name": registration.name,
                "query": _query_to_dict_checked(registration.query, registration.name),
                "shard_id": registration.shard_id,
                "order": registration.order,
                "cost": registration.cost,
                "window": _window_state(registration.window),
                "match_count": registration.match_count,
            }
            for registration in registrations
        ],
        # `is not None`: an empty parent buffer is falsy (see engine_sections)
        "reorder": engine.reorder.state_dict() if engine.reorder is not None else None,
        "events": [_event_state(event) for event in engine.collector.events],
        "counters": {
            "sequence": engine._sequence,
            "edges_processed": engine.edges_processed,
            "clock": engine._clock,
            "records_sent": list(engine._records_sent),
            "shard_loads": list(engine._shard_loads),
            "registration_seq": engine._registration_seq,
            "batches_processed": engine.batches_processed,
            "checkpoint_epoch": engine.checkpoint_epoch,
            "replan_next_check": engine._next_replan_check,
            "router": {
                "records_seen": engine.router.records_seen,
                "records_dropped": engine.router.records_dropped,
                "records_broadcast": engine.router.records_broadcast,
                "fanout_total": engine.router.fanout_total,
            },
        },
    }
    for shard_id, shard_state in enumerate(shard_states):
        sections[f"shard_{shard_id}"] = shard_state
    return sections


def load_sharded_sections(sections: Mapping[str, Any]) -> "ShardedStreamEngine":
    """Rebuild a sharded engine from :func:`sharded_sections` payloads."""
    from ..core.sharded import ShardConfig, ShardedQuery, ShardedStreamEngine

    with loading():
        config_state = sections["config"]
        config = ShardConfig(
            shard_count=config_state["shard_count"],
            routing=config_state["routing"],
            engine=EngineConfig(**config_state["engine"]),
        )
        engine = ShardedStreamEngine(config=config)
        engine.shards = [
            load_engine_sections(sections[f"shard_{shard_id}"])
            for shard_id in range(config.shard_count)
        ]
        for payload in sections["queries"]:
            query = query_from_dict(payload["query"])
            registration = ShardedQuery(
                payload["name"],
                query,
                payload["shard_id"],
                payload["order"],
                payload["cost"],
                window=_window_from_state(payload["window"]),
            )
            registration.match_count = payload["match_count"]
            engine.queries[payload["name"]] = registration
            engine.router.add_query(payload["shard_id"], query)
            # the parent table holds only query vocabulary (never stream
            # labels), so re-interning in registration order rebuilds it
            # exactly; the shards' own tables were restored verbatim above
            intern_query_vocabulary(engine.interning, query)
        reorder = sections["reorder"]  # `None`: written without event-time ingestion
        engine.reorder = None if reorder is None else ReorderBuffer.from_state(reorder)
        counters = sections["counters"]
        engine._sequence = counters["sequence"]
        engine.edges_processed = counters["edges_processed"]
        engine._clock = float(counters["clock"])
        engine._records_sent = list(counters["records_sent"])
        engine._shard_loads = [float(load) for load in counters["shard_loads"]]
        engine._registration_seq = counters["registration_seq"]
        engine.batches_processed = counters["batches_processed"]
        engine.checkpoint_epoch = counters["checkpoint_epoch"]
        engine._next_replan_check = counters["replan_next_check"]
        router_counters = counters["router"]
        engine.router.records_seen = router_counters["records_seen"]
        engine.router.records_dropped = router_counters["records_dropped"]
        engine.router.records_broadcast = router_counters["records_broadcast"]
        engine.router.fanout_total = router_counters["fanout_total"]
        engine.collector.events.extend(
            _event_from_state(payload) for payload in sections["events"]
        )
    return engine
