"""Differential fuzz harness: the columnar hot path vs. the interpreted oracle.

``EngineConfig(columnar=False)`` keeps the interpreted per-record semantics
verbatim, so it serves as the executable specification of the compiled
columnar path.  This module packages the machinery the conformance suite
(``tests/test_columnar_conformance.py``) drives:

* :func:`build_engine` / :func:`run` — construct single or sharded engines
  over the shared workload/query catalogue (reused from
  ``tests/test_sharded_conformance.py``) and replay a record stream in
  batches, optionally crashing at chosen batch boundaries (checkpoint +
  restore + continue) to exercise the resume contract mid-differential.
* :class:`ExhaustiveReferenceEngine` — the routing-free specification: every
  leaf of every matcher runs on every record, so a dispatch-index or
  route-plan bug that skips a bindable leaf shows up as a missing event.
* :func:`skew_expiry` and :func:`sabotage_recompile` — deliberate faults
  for the *meta*-tests: each simulates a realistic implementation bug (an
  off-by-one window-expiry sweep; a replan that installs stale/corrupted
  compiled predicate tables), and the suite asserts the differential
  oracle REJECTS the faulty engine.  A harness that cannot catch the bugs
  it exists for proves nothing.

* :func:`assert_live_legs_exact` — the statistics-side invariant every
  stream shape must leave behind: the triad census's live leg counters equal
  a from-scratch recount over the window store's live edges.

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
    columnar,
    shard_count=1,
    workers=0,
    sketch=False,
    replan=False,
):
    """Build a registered engine for one cell of the config matrix.

    ``shard_count == 1`` with no workers builds a plain single engine (the
    fastest differential); anything else builds the sharded engine, serial
    or pool-scheduled.
    """
    engine_config = EngineConfig(
        columnar=columnar,
        dedup_memory_budget=4096 if sketch else None,
        sketch_stats=sketch,
        replan_threshold=0.4 if replan else None,
        replan_check_every=BATCH if replan else None,
    )
    if shard_count == 1 and workers == 0:
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


def differential(records, query_specs, *, candidate_kwargs=None, **shared_kwargs):
    """Run columnar-on (candidate) and columnar-off (oracle) and return both.

    ``shared_kwargs`` apply to both runs; ``candidate_kwargs`` (e.g. a
    ``mutate`` fault hook) apply to the candidate only.
    """
    candidate_kwargs = dict(candidate_kwargs or {})
    candidate, _ = run(
        records, query_specs, columnar=True, **shared_kwargs, **candidate_kwargs
    )
    oracle, _ = run(records, query_specs, columnar=False, **shared_kwargs)
    return candidate, oracle


class ExhaustiveReferenceEngine(StreamWorksEngine):
    """Runs every leaf of every registered matcher on every record.

    The dispatch index and the route plans built on it may only skip leaves
    that cannot bind a record; this engine skips none, so its events are
    what routing must reproduce.  Batches run record by record, each through
    the per-record path.
    """

    def _collect_matches(self, edge, found, expire):
        for registration in self.queries.values():
            matches = registration.matcher.process_edge(edge)
            found.extend((registration, match) for match in matches)

    def _process_batch_direct(self, records, expiry_anchor=None):
        events = []
        for record in records:
            events.extend(self._process_record_direct(record))
        return events


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


def sabotage_recompile(engine):
    """Fault: replans install a stale/corrupted compiled predicate table.

    Models the recompile-on-replan bug class: the migrated matcher keeps
    running on tables that no longer describe its plan.  (Merely *skipping*
    the compile degrades to the interpreted checks and stays conformant,
    so the injected table actively inverts one edge check -- an always-true
    slot becomes never-true.)  Requires ``replan=True`` so a replan
    actually fires.
    """
    original = engine.replan_query

    def patched(name, strategy=None):
        registration = original(name, strategy=strategy)
        compiled = registration.matcher.compiled
        if compiled is not None:
            for edge_id, check in compiled.edge_checks.items():
                compiled.edge_checks[edge_id] = (
                    _never if check is None else None
                )
                break
        return registration

    engine.replan_query = patched
