"""Differential fuzz harness: the engine vs. the exhaustive reference.

The engine has one production path: records are routed through route plans
(dispatch index, compiled leaf checks, interval index) and only the leaves
that can bind them are searched.  :class:`ExhaustiveReferenceEngine` keeps
the engine's batched skeleton and replaces only the routing -- every leaf of
every matcher runs on every live record -- so it is the executable
specification that routing must reproduce.  This module packages the
machinery the conformance suite (``tests/test_reference_conformance.py``)
drives:

* :func:`build_engine` / :func:`run` — construct single or sharded engines
  (or the reference) over the shared workload/query catalogue (reused from
  ``tests/test_sharded_conformance.py``) and replay a record stream in
  batches, optionally crashing at chosen batch boundaries (checkpoint +
  restore + continue) to exercise the resume contract mid-differential.
* :func:`differential` — the engine under test against the reference.
* :class:`ProbedReferenceEngine` — the same skeleton with the real
  dispatch index probed afresh per record: the reference for the counters
  route plans replay in bulk.
* :func:`skew_expiry`, :func:`drop_a_route_leaf` and
  :func:`sabotage_recompile` — deliberate faults for the *meta*-tests: each
  simulates a realistic implementation bug (an off-by-one window-expiry
  sweep; a route plan that loses a candidate leaf; a replan that installs
  stale/corrupted compiled predicate tables), and the suite asserts the
  differential REJECTS the faulty engine.  A harness that cannot catch the
  bugs it exists for proves nothing.
* :func:`assert_live_legs_exact` — the statistics-side invariant every
  stream shape must leave behind: the triad census's live leg counters equal
  a from-scratch recount over the window store's live edges.

Engine and reference share the matcher, the SJ-tree and the local search,
so a bug there is invisible to this differential; the oracles that share
none of it are ``SubgraphMatcher(graph).find_all(query)`` (interpreted
predicates, no probes) in ``tests/test_property_based.py`` and the
repeated-search baseline.

Everything here is deterministic: same records + same config = same
canonical event list, byte for byte.
"""

from collections import Counter

from test_sharded_conformance import (  # noqa: F401  (re-exported catalogue)
    canonical,
    chain_query,
    drifting_queries,
    drifting_records,
    duplicate_records,
    eviction_heavy_records,
    heavily_disordered_records,
    netflow_queries,
    netflow_records,
    out_of_order_records,
    rmat_queries,
    rmat_records,
)

from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.core.sharded import ShardConfig, ShardedStreamEngine
from repro.query.compile import _never

#: Records per process_batch call -- matches the sharded-conformance suite.
BATCH = 50

#: The workload axis: name -> (records builder, query-spec builder).  Spans
#: in-order power-law (rmat), semantic netflow, selectivity drift (drives
#: replans), and disorder both inside and beyond the retention horizon.
WORKLOADS = {
    "rmat": (lambda: rmat_records(300), rmat_queries),
    "netflow": (lambda: netflow_records(300), netflow_queries),
    "drifting": (lambda: drifting_records(300), drifting_queries),
    "disordered": (lambda: heavily_disordered_records(300), rmat_queries),
}


def build_engine(
    query_specs,
    *,
    reference=False,
    shard_count=1,
    workers=0,
    sketch=False,
    replan=False,
):
    """Build a registered engine for one cell of the config matrix.

    ``reference`` builds the :class:`ExhaustiveReferenceEngine`.  Otherwise
    ``shard_count == 1`` with no workers builds a plain single engine (the
    fastest differential); anything else builds the sharded engine, serial
    or pool-scheduled.
    """
    engine_config = EngineConfig(
        dedup_memory_budget=4096 if sketch else None,
        sketch_stats=sketch,
        replan_threshold=0.4 if replan else None,
        replan_check_every=BATCH if replan else None,
    )
    if reference:
        engine = ExhaustiveReferenceEngine(config=engine_config)
    elif shard_count == 1 and workers == 0:
        engine = StreamWorksEngine(config=engine_config)
    else:
        engine = ShardedStreamEngine(
            config=ShardConfig(
                shard_count=shard_count, workers=workers, engine=engine_config
            )
        )
    for name, query, window in query_specs():
        engine.register_query(query, name=name, window=window)
    return engine


def _close(engine):
    if isinstance(engine, ShardedStreamEngine):
        engine.close()


def run(
    records,
    query_specs,
    *,
    checkpoint_cuts=(),
    snapshot_dir=None,
    mutate=None,
    **build_kwargs,
):
    """Replay ``records`` in batches; return ``(canonical events, metrics)``.

    ``checkpoint_cuts`` lists batch indices at whose *boundary* the engine
    is checkpointed, discarded, and restored from the snapshot before
    continuing -- the crash-at-boundary resume differential
    (``snapshot_dir`` must then be a writable directory).  ``mutate`` is an
    optional fault-injection hook applied to the freshly built engine (and
    re-applied after every restore, as a real buggy build would be).
    """
    engine = build_engine(query_specs, **build_kwargs)
    if mutate is not None:
        mutate(engine)
    restore_cls = type(engine)
    for batch_index, start in enumerate(range(0, len(records), BATCH)):
        if batch_index in checkpoint_cuts:
            path = str(snapshot_dir / f"cut-{batch_index}.snap")
            engine.checkpoint(path)
            _close(engine)
            engine = restore_cls.restore(path)
            if mutate is not None:
                mutate(engine)
        engine.process_batch(records[start : start + BATCH])
    metrics = engine.metrics()
    # the collector holds the full history across restores, so this is the
    # whole run's event stream regardless of where the cuts fell
    events = canonical(list(engine.collector.events))
    _close(engine)
    return events, metrics


def differential(
    records, query_specs, *, candidate_kwargs=None, shard_count=1, workers=0, **shared_kwargs
):
    """Run the engine (candidate) and the reference (oracle); return both.

    ``shared_kwargs`` (feature switches) apply to both runs; the shard
    layout and ``candidate_kwargs`` (e.g. a ``mutate`` fault hook or
    checkpoint cuts) apply to the candidate only.  The reference is always
    one unsharded engine: sharding must not change the events either.
    """
    candidate, _ = run(
        records,
        query_specs,
        shard_count=shard_count,
        workers=workers,
        **shared_kwargs,
        **(candidate_kwargs or {}),
    )
    oracle, _ = run(records, query_specs, reference=True, **shared_kwargs)
    return candidate, oracle


class ProbedReferenceEngine(StreamWorksEngine):
    """The batched skeleton with the route plans taken out.

    Ingest, statistics fold, one expiry sweep per ordered run and emission
    deferred to a completion's last in-run edge are the engine's own, so
    run-split batching of a disordered stream, and its dead-on-arrival
    records, behave exactly as in the engine.  Routing is not: every live
    record runs :meth:`_collect_matches`, the per-record path's fresh
    dispatch-index probe, with no cached plan, compiled leaf check or
    interval index in front.  The dispatch counters and per-matcher edge
    counters it produces are what the route plans' bulk replay must equal.
    """

    def _dispatch_run(self, ingested, events, used):
        positions = {edge.id: index for index, edge in enumerate(ingested) if edge is not None}
        deferred = {}
        for index, edge in enumerate(ingested):
            if edge is not None:
                found = []
                self._collect_matches(edge, found, expire=False)
                for registration, match in found:
                    # the per-record path completes a match on its last edge
                    last = max(positions.get(e.id, index) for e in match.edge_map.values())
                    deferred.setdefault(max(last, index), []).append((registration, match))
                due = deferred.pop(index, None)
                if due:
                    self._emit_trigger(due, edge.timestamp, self.edges_processed, events)
            self.edges_processed += 1


class ExhaustiveReferenceEngine(ProbedReferenceEngine):
    """Runs every leaf of every registered matcher on every live record.

    The dispatch index, the route plans built on it and their interval
    indexes may only skip leaves that cannot bind a record; this engine
    skips none, so its events are what routing must reproduce.  The
    per-record path (``process_record``, late records under
    ``process_degraded``) searches every leaf as well.  It still sweeps
    expiry only on the matchers the dispatch index routes the record to, as
    the engine's per-record path does: once records may be late, which
    partials a late record can complete depends on that sweep set, so it is
    per-record semantics rather than routing.
    """

    def _collect_matches(self, edge, found, expire):
        if expire and not self.dispatch.front_rejects(edge.label):
            source_label = self._endpoint_label(edge.source)
            target_label = self._endpoint_label(edge.target)
            for owner, _ in self.dispatch.candidates(edge.label, source_label, target_label):
                self.queries[owner].matcher.expire_partials(edge.timestamp)
        for registration in self.queries.values():
            matcher = registration.matcher
            for match in matcher.process_edge_leaves(edge, matcher.tree.leaves()):
                found.append((registration, match))


# ----------------------------------------------------------------------
# deliberate faults (meta-tests: the oracle must catch these)
# ----------------------------------------------------------------------
def recount_live_legs(graph):
    """``{centre: {(edge label, orientation, leaf label): live edges}}`` of a store.

    Recounted from the stored edges and the store's own vertex labels alone
    -- nothing the summarizer remembers takes part.
    """
    incidences = Counter()
    for edge in graph.edges():
        source_label = graph.vertex(edge.source).label
        target_label = graph.vertex(edge.target).label
        incidences[edge.source, (edge.label, "out", target_label)] += 1
        if edge.target != edge.source:
            incidences[edge.target, (edge.label, "in", source_label)] += 1
    legs = {}
    for (center, leg), live in incidences.items():
        legs.setdefault(center, {})[leg] = live
    return legs


def assert_live_legs_exact(engine, context=""):
    """Every (shard) engine's live legs equal the recount; no counter is <= 0."""
    for shard in getattr(engine, "shards", None) or [engine]:
        live = shard.summarizer.triads.live_legs()
        assert live == recount_live_legs(shard.graph), context
        assert all(count > 0 for legs in live.values() for count in legs.values()), context


def skew_expiry(delta=0.05):
    """Fault: every matcher sweeps window expiry at ``now + delta``.

    Models the classic off-by-one in expiry bookkeeping -- partials near
    the window boundary are swept one tick early, silently dropping
    matches the specification requires.
    """

    def mutate(engine):
        for registration in engine.queries.values():
            matcher = registration.matcher
            original = matcher.expire_partials

            def skewed(now, _original=original):
                return _original(now + delta)

            matcher.expire_partials = skewed

    return mutate


def drop_a_route_leaf(engine):
    """Fault: every route plan over several leaves forgets its last one.

    Models the routing bug class the reference exists for: a plan build
    that loses a candidate leaf (a grouping off-by-one, a stale entry
    list), so records routed through it never search that leaf.
    """
    original = engine._build_route_plan

    def patched(route_key, edge):
        plan = original(route_key, edge)
        if len(plan.entries) > 1 and plan.index is None:
            del plan.entries[-1]
        return plan

    engine._build_route_plan = patched


def sabotage_recompile(engine):
    """Fault: replans install a stale/corrupted compiled predicate table.

    Models the recompile-on-replan bug class: the migrated matcher keeps
    running on tables that no longer describe its plan.  The injected table
    inverts one edge check -- an always-true slot becomes never-true.
    Requires ``replan=True`` so a replan actually fires.
    """
    original = engine.replan_query

    def patched(name, strategy=None):
        registration = original(name, strategy=strategy)
        compiled = registration.matcher.compiled
        for edge_id, check in compiled.edge_checks.items():
            compiled.edge_checks[edge_id] = _never if check is None else None
            break
        return registration

    engine.replan_query = patched
