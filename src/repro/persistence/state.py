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
promotes from it; snapshots older than the ring load with it empty), every
SJ-Tree's partial-match collections (bucket order included -- it decides
join candidate enumeration), the reorder buffer's pending tail and
watermark (including every per-source clock and the monotone watermark
floor of the multi-source buffer -- the ``kind`` tag in its payload picks
the right class on load), and every deterministic counter.  State that is
a pure function of other sections is recounted instead -- the expiry
queue from the window store -- and the planning statistics are never
stored: they are computed from the window store whenever a plan is made.  Two things are deliberately *not*
captured:

* wall-clock measurements (the latency recorder and the throughput
  meter) are process-local: a restored engine starts fresh ones, so two
  runs of one stream write byte-identical snapshots;
* ``on_match`` callbacks and custom sinks are arbitrary Python callables --
  the caller re-attaches them after ``restore()`` (the engine-owned
  collector, with its full event history, *is* restored).

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
import logging
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

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
from ..streaming.sources import reorder_buffer_from_state
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

_LOG = logging.getLogger("repro.persistence")

#: Knobs that earlier versions persisted and that no longer exist; a
#: snapshot carrying them loads with the key ignored.  A snapshot written
#: on the retired exhaustive scan therefore resumes on the dispatch index,
#: one written with blind periodic replanning resumes without it, one
#: written on the interpreted path resumes on the compiled one, one with a
#: duplicate-memory budget resumes with no duplicate memory, and one with
#: count-min statistics resumes on exact counts
#: (``tests/fixtures/persistence/README.md``).  Each config section that
#: carries one logs a warning naming them on ``repro.persistence``.
_RETIRED_CONFIG_FIELDS = (
    "triad_sample_cap",
    "auto_replan_interval",
    "use_dispatch_index",
    "sketch_dispatch",
    "columnar",
    "dedup_memory_budget",
    "sketch_stats",
    "store_complete_matches",
    "latency_sample_cap",
)


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


#: Summarizer fields that earlier versions persisted and that are derivable
#: from the window store: the folded label, signature and degree counts,
#: the cumulative triad census and the label memo.  A section carrying them
#: loads with them ignored, and logs a warning naming them.
_DERIVED_SUMMARIZER_FIELDS = (
    "vertex_labels",
    "edge_labels",
    "signatures",
    "degree_tracker",
    "triads",
    "known_vertices",
    "observed_through",
    "sketch_stats",
)


def _summarizer_from_state(state: Mapping[str, Any], graph: DynamicGraph) -> StreamSummarizer:
    derived = sorted(name for name in state if name in _DERIVED_SUMMARIZER_FIELDS)
    if derived:
        _LOG.warning(
            "snapshot summarizer carries derived fields, ignored on load: %s", ", ".join(derived)
        )
    return StreamSummarizer.from_state(state, graph)


def _config_from_state(state: Mapping[str, Any]) -> EngineConfig:
    retired = sorted(name for name in state if name in _RETIRED_CONFIG_FIELDS)
    if retired:
        _LOG.warning(
            "snapshot config carries retired fields, ignored on load: %s", ", ".join(retired)
        )
    return EngineConfig(
        **{name: value for name, value in state.items() if name not in _RETIRED_CONFIG_FIELDS}
    )


#: Event-time values that earlier versions accepted.  A snapshot written
#: with per-source adaptive horizons restores with one fixed horizon, the
#: largest its buffer recorded; one written with the degraded late policy
#: restores on ``"drop"``.  Each config section that carries one logs a
#: warning naming what changed on ``repro.persistence``.
_ADAPTIVE_LATENESS = "adaptive"
_PROCESS_DEGRADED = "process_degraded"


def _event_time_from_state(
    config: Mapping[str, Any], reorder: Optional[Mapping[str, Any]]
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Return the config and reorder payloads with retired event-time values replaced.

    The adaptive-only keys of the reorder payload (the tuning, the per-source
    ``lateness`` / ``samples`` / ``since_refresh``) and its
    ``records_late_degraded`` counter are left for the buffer's loader to
    ignore.
    """
    config_state = dict(config)
    reorder_state = dict(reorder) if reorder is not None else None
    if config_state.get("allowed_lateness") == _ADAPTIVE_LATENESS:
        horizon = 0.0
        if reorder_state is not None:
            # a buffer with no source yet would have started one at the floor
            horizon = max(
                (float(source["lateness"]) for _, source in reorder_state["sources"]),
                default=float(reorder_state["adaptive_floor"]),
            )
            reorder_state["allowed_lateness"] = horizon
        config_state["allowed_lateness"] = horizon
        _LOG.warning(
            "snapshot config sets allowed_lateness=%r, restored with the largest "
            "per-source horizon it recorded: allowed_lateness=%s",
            _ADAPTIVE_LATENESS,
            horizon,
        )
    if config_state.get("late_policy") == _PROCESS_DEGRADED:
        config_state["late_policy"] = "drop"
        _LOG.warning(
            "snapshot config sets late_policy=%r, restored on 'drop': late records are dropped",
            _PROCESS_DEGRADED,
        )
    return config_state, reorder_state


def _window_state(window: TimeWindow) -> Dict[str, Any]:
    return {
        "duration": window.duration if window.bounded else None,
        "strict": window.strict,
    }


def _window_from_state(state: Mapping[str, Any]) -> TimeWindow:
    return TimeWindow(state["duration"], strict=state["strict"])


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


#: Wall-clock meters that earlier versions persisted in the ``counters``
#: section.  They are process-local now (a restored engine starts fresh
#: ones), so two runs of one stream write byte-identical snapshots; a
#: section carrying them loads with them ignored, and logs a warning naming
#: them.
_PROCESS_LOCAL_COUNTERS = ("latency", "throughput")


def _warn_process_local_meters(counters: Mapping[str, Any]) -> None:
    meters = [name for name in _PROCESS_LOCAL_COUNTERS if name in counters]
    if meters:
        _LOG.warning(
            "snapshot counters section carries process-local meters, ignored on load: %s",
            ", ".join(meters),
        )


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
                "dedupe_structural": matcher.dedupe_structural,
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
    try:
        config_state, reorder_state = _event_time_from_state(
            sections["config"], sections["reorder"]
        )
        config = _config_from_state(config_state)
        engine = StreamWorksEngine(config=config)
        engine.graph = DynamicGraph.from_state(sections["graph"])
        engine.summarizer = None
        if sections["summarizer"] is not None:
            engine.summarizer = _summarizer_from_state(sections["summarizer"], engine.graph)
        engine.reorder = (
            # dispatch on the payload's "kind"; pre-multisource snapshots
            # are upgraded so the restored engine owns the multi-source
            # buffer a fresh engine would (register_source keeps working)
            reorder_buffer_from_state(reorder_state)
            if reorder_state is not None
            else None
        )
        for payload in sections["queries"]:
            query = query_from_dict(payload["query"])
            window = _window_from_state(payload["window"])
            plan = _plan_from_state(query, payload["plan"])
            matcher = ContinuousQueryMatcher(
                query=query,
                decomposition=plan.decomposition,
                graph=engine.graph,
                window=window,
                dedupe_structural=payload["dedupe_structural"],
            )
            # construction is the compile point: the restored matcher runs on
            # freshly compiled tables, never deserialised ones.  Snapshots
            # written on the interpreted path carry a None marker (and older
            # ones none at all); they resume compiled with nothing to check.
            marker = payload.get("compiled_plan")
            if marker is not None and matcher.compiled.marker() != marker:
                raise SnapshotCorruptError(
                    f"query {payload['name']!r}: recompiled predicate "
                    f"tables {matcher.compiled.marker()} do not match the "
                    f"snapshot's compiled-plan marker {marker}"
                )
            matcher.load_state(payload["matcher"])
            registration = RegisteredQuery(payload["name"], query, window, plan, matcher)
            registration.match_count = payload["match_count"]
            # pre-replan snapshots carry no version: they are plan version 0
            registration.plan_version = payload.get("plan_version", 0)
            engine.add_registration(registration)
            engine.dispatch.register(payload["name"], matcher.tree.leaves())
            intern_query_vocabulary(engine.interning, query)
        interning_state = sections.get("interning")
        if interning_state is not None:
            # authoritative: includes stream-admitted labels with the exact
            # ids the pre-crash engine assigned
            engine.interning = InternTable.from_state(interning_state)
        else:
            # pre-columnar snapshot: no table was persisted.  Ids are
            # engine-internal (never serialised into events or matcher
            # state), so they need not match what the pre-crash engine
            # would have assigned live -- they only need to be deterministic,
            # which query vocabulary in registration order (above) plus
            # graph edge labels in insertion order gives.
            for edge in engine.graph.edges():
                engine.interning.intern(edge.label)
        counters = sections["counters"]
        _warn_process_local_meters(counters)
        engine._sequence = counters["sequence"]
        engine.edges_processed = counters["edges_processed"]
        engine.records_batched = counters["records_batched"]
        # the retired per-record path's records_per_record, if present, is
        # ignored: those records were run, and edges_processed counts them
        engine.records_dead_on_arrival = counters["records_dead_on_arrival"]
        # snapshots from before the cold ring stored every record: empty ring
        engine.records_cold = counters.get("records_cold", 0)
        engine.reset_cold([StreamEdge.from_dict(payload) for payload in sections.get("cold", ())])
        engine.event_time_watermark = float(counters["event_time_watermark"])
        engine.batches_processed = counters["batches_processed"]
        engine.checkpoint_epoch = counters["checkpoint_epoch"]
        dispatch_counters = counters["dispatch"]
        engine.dispatch.lookups = dispatch_counters["lookups"]
        engine.dispatch.entries_matched = dispatch_counters["entries_matched"]
        engine.dispatch.entries_skipped = dispatch_counters["entries_skipped"]
        # the retired Bloom front's front_* counters, if present, are ignored
        # pre-replan snapshots: keep the fresh monitor / constructor cadence
        if "plan_monitor" in counters:
            engine.plan_monitor = PlanMonitor.from_state(counters["plan_monitor"])
        if "replan_next_check" in counters:
            engine._next_replan_check = counters["replan_next_check"]
        # pre-columnar snapshots: the hot path started from zero there too
        engine.batches_vectorized = counters.get("batches_vectorized", 0)
        engine.records_prefiltered = counters.get("records_prefiltered", 0)
        # an older snapshot's dispatch_memo_hits is ignored: it counts the
        # writing process's route-plan cache hits, and a restored engine
        # starts with no plans
        engine.leaves_pruned = counters.get("leaves_pruned", 0)
        engine.collector.events.extend(
            _event_from_state(payload) for payload in sections["events"]
        )
    except SnapshotError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise SnapshotCorruptError(
            f"snapshot payload is structurally valid but not loadable: {error!r}"
        ) from error
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
    """Rebuild a sharded engine from sections.

    Snapshots written while the engine had a worker-process pool carry
    ``workers``; one with ``workers > 0`` restores as the serial engine it
    is today and logs one warning on ``repro.persistence``.
    """
    from ..core.sharded import ShardConfig, ShardedQuery, ShardedStreamEngine

    try:
        config_state = sections["config"]
        if config_state.get("workers", 0) > 0:
            _LOG.warning(
                "snapshot sharded config carries a worker pool, restored serially: workers=%s",
                config_state["workers"],
            )
        engine_state, reorder_state = _event_time_from_state(
            config_state["engine"], sections["reorder"]
        )
        config = ShardConfig(
            shard_count=config_state["shard_count"],
            routing=config_state["routing"],
            engine=_config_from_state(engine_state),
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
        engine.reorder = (
            reorder_buffer_from_state(reorder_state) if reorder_state is not None else None
        )
        counters = sections["counters"]
        _warn_process_local_meters(counters)
        engine._sequence = counters["sequence"]
        engine.edges_processed = counters["edges_processed"]
        engine._clock = float(counters["clock"])
        engine._records_sent = list(counters["records_sent"])
        engine._shard_loads = [float(load) for load in counters["shard_loads"]]
        engine._registration_seq = counters["registration_seq"]
        engine.batches_processed = counters["batches_processed"]
        engine.checkpoint_epoch = counters["checkpoint_epoch"]
        # pre-replan snapshots: keep the constructor's cadence marker
        if "replan_next_check" in counters:
            engine._next_replan_check = counters["replan_next_check"]
        router_counters = counters["router"]
        engine.router.records_seen = router_counters["records_seen"]
        engine.router.records_dropped = router_counters["records_dropped"]
        engine.router.records_broadcast = router_counters["records_broadcast"]
        engine.router.fanout_total = router_counters["fanout_total"]
        engine.collector.events.extend(
            _event_from_state(payload) for payload in sections["events"]
        )
    except SnapshotError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise SnapshotCorruptError(
            f"snapshot payload is structurally valid but not loadable: {error!r}"
        ) from error
    return engine
