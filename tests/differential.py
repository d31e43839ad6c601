"""Differential fuzz harness: the engine vs. the exhaustive reference.

The engine has one production path: records are routed through route plans
(dispatch index, compiled leaf checks, interval index) *before* they are
stored; only the leaves that can bind a record are searched, and a record
no registered query edge can bind is kept out of the window store (the cold
gate).  :class:`ExhaustiveReferenceEngine` stores, counts and evicts every
record, as the engine did before the gate, and runs every leaf of every
matcher on every live record -- so it is the executable specification that
routing and the gate must reproduce.  This module packages the machinery
the conformance suite (``tests/test_reference_conformance.py``) drives:

* :func:`build_engine` / :func:`run` — construct single or sharded engines
  (or the reference) over the shared workload/query catalogue (reused from
  ``tests/test_sharded_conformance.py``) and replay a record stream in
  batches, optionally crashing at chosen batch boundaries (checkpoint +
  restore + continue) to exercise the resume contract mid-differential.
* :func:`differential` — the engine under test against the reference.
* :class:`ProbedReferenceEngine` — the same store-everything skeleton with
  the real dispatch index probed afresh per record: the reference for the
  counters route plans replay in bulk.
* :func:`skew_expiry`, :func:`drop_a_route_leaf`, :func:`gate_last_survivor`,
  :func:`memo_by_survivor_count` and :func:`sabotage_recompile` — deliberate
  faults for the *meta*-tests: each simulates a realistic implementation bug
  (an off-by-one window-expiry sweep; a route plan that loses a candidate
  leaf; a gate that keeps a bindable record out of the store; a route memo
  that tells survivor sets apart by their size only; a replan that installs
  stale/corrupted compiled predicate tables), and the suite asserts the differential
  REJECTS the faulty engine.  A harness that cannot catch the bugs it
  exists for proves nothing.
* :func:`mutant_admit` -- the reorder buffer's admission loop
  recompiled with source edits: the loop keeps its state in locals, so its
  meta-tests' faults cannot be patched in from outside.
* :func:`lazy_run` and :func:`repeated_search` -- the lazy-leaf leg: the
  engine, free to mark SJ-tree leaves lazy, against
  :class:`~repro.baselines.RepeatedSearchEngine` (a full re-search of the
  window after every record), which shares no matcher, SJ-tree or
  local-search code with it.  :func:`exfil_records`
  is a stream on which one leaf really goes lazy and comes back;
  :func:`flippy_marking` makes the marking flip on any stream; and
  :func:`skip_directed_search`, :func:`directed_past_newest` and
  :func:`lazy_keeps_bucket` are the faults its meta-tests must catch.
* :func:`assert_statistics_describe_the_window` — the statistics-side
  invariant every stream shape must leave behind: the planner's summary
  equals a from-scratch one (quadratic wedge census included) over the
  window store.

Engine and reference share the matcher, the SJ-tree and the local search,
so a bug there is invisible to this differential; the oracles that share
none of it are ``SubgraphMatcher(graph).find_all(query)`` (interpreted
predicates, no probes) in ``tests/test_property_based.py`` and the
repeated-search baseline (:func:`repeated_search`).  The reference keeps
every leaf eager (:meth:`ExhaustiveReferenceEngine._collect_matches`), so
the engine's lazy leaves are held against eager search here as well.

Everything here is deterministic: same records + same config = same
canonical event list, byte for byte.
"""

import inspect
import random
import textwrap
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

from repro.baselines import RepeatedSearchEngine
from repro.core import matcher as matcher_module
from repro.core import route_plan as route_plan_module
from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.core.route_plan import RoutePlan
from repro.core.sjtree import EARLIEST
from repro.core.sharded import ShardConfig, ShardedStreamEngine
from repro.query.builder import QueryBuilder
from repro.query.compile import _never
from repro.query.predicates import And, AttrCompare, AttrEquals, AttrIn, AttrRange
from repro.stats import GraphSummary
from repro.streaming import reorder as reorder_module
from repro.streaming.edge_stream import StreamEdge

#: Records per process_batch call -- matches the sharded-conformance suite.
BATCH = 50

#: The banded shape (the benchmark's ``multiquery_banded``, small): chain
#: queries over one label alphabet, told apart by a ``bytes`` band.
HOT = ["hot_0", "hot_1", "hot_2"]
BAND_WINDOW = 0.4


def band_query(index, name=None):
    builder = QueryBuilder(name or f"band{index}")
    for position in range(len(HOT) + 1):
        builder.vertex(f"v{position}", "Host")
    for position, label in enumerate(HOT):
        builder.edge(
            f"v{position}", f"v{position + 1}", label,
            predicate=And([
                AttrIn("proto", ["tcp", "udp"]),
                AttrCompare("port", "<=", 1024),
                AttrRange("bytes", low=index * 1000, high=index * 1000 + 60),
            ]),
        )
    return builder.build()


def banded_records(count, bands, seed=5, cold_share=0.5):
    """Cold labels, hot out-of-band records, and planted in-band chains.

    Only the planted chains can bind a band query: every other record is
    cold (an unbound label, or a hot label above every band).
    """
    rng = random.Random(seed)
    records, pending, clock = [], [], 0.0
    while len(records) < count:
        clock += 0.01
        if pending and rng.random() < 0.5:
            source, target, label, attrs = pending.pop(0)
        elif rng.random() < 0.12:
            chosen = rng.randrange(bands)
            hosts = [f"h{rng.randrange(40)}" for _ in range(len(HOT) + 1)]
            pending.extend(
                (hosts[position], hosts[position + 1], label,
                 {"proto": "tcp", "port": 80, "bytes": chosen * 1000 + rng.randrange(61)})
                for position, label in enumerate(HOT)
            )
            continue
        elif rng.random() < cold_share:
            source, target = f"h{rng.randrange(40)}", f"h{rng.randrange(40)}"
            label, attrs = f"cold_{rng.randrange(500)}", {"bytes": rng.randrange(100_000)}
        else:
            source, target = f"h{rng.randrange(40)}", f"h{rng.randrange(40)}"
            label = rng.choice(HOT)
            attrs = {"proto": rng.choice(["tcp", "udp"]), "port": rng.randrange(1, 1025),
                     "bytes": bands * 1000 + 500 + rng.randrange(1000)}
        records.append(
            StreamEdge(source, target, label, clock, attrs,
                       source_label="Host", target_label="Host")
        )
    return records


def banded_queries(bands=4):
    return [(f"band{index}", band_query(index), BAND_WINDOW) for index in range(bands)]


#: The workload axis: name -> (records builder, query-spec builder).  Spans
#: in-order power-law (rmat), semantic netflow, selectivity drift (drives
#: replans), disorder both inside and beyond the retention horizon, and a
#: banded stream where most records are cold (kept out of the store).
WORKLOADS = {
    "banded": (lambda: banded_records(300, 4), banded_queries),
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
    replan=False,
    unbounded=False,
):
    """Build a registered engine for one cell of the config matrix.

    ``reference`` builds the :class:`ExhaustiveReferenceEngine`.  Otherwise
    ``shard_count == 1`` builds a plain single engine (the fastest
    differential); anything else builds the sharded engine.  ``unbounded``
    registers every query with no window, so nothing expires and every
    completion stays derivable to the end.
    """
    engine_config = EngineConfig(
        replan_threshold=0.4 if replan else None,
        replan_check_every=BATCH if replan else None,
    )
    if reference:
        engine = ExhaustiveReferenceEngine(config=engine_config)
    elif shard_count == 1:
        engine = StreamWorksEngine(config=engine_config)
    else:
        engine = ShardedStreamEngine(
            config=ShardConfig(shard_count=shard_count, engine=engine_config)
        )
    for name, query, window in query_specs():
        engine.register_query(query, name=name, window=None if unbounded else window)
    return engine


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
            engine = restore_cls.restore(path)
            if mutate is not None:
                mutate(engine)
        engine.process_batch(records[start : start + BATCH])
    metrics = engine.metrics()
    # the collector holds the full history across restores, so this is the
    # whole run's event stream regardless of where the cuts fell
    events = canonical(list(engine.collector.events))
    return events, metrics


def differential(
    records, query_specs, *, candidate_kwargs=None, shard_count=1, **shared_kwargs
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
        **shared_kwargs,
        **(candidate_kwargs or {}),
    )
    oracle, _ = run(records, query_specs, reference=True, **shared_kwargs)
    return candidate, oracle


class ProbedReferenceEngine(StreamWorksEngine):
    """The batched skeleton before routing moved in front of the store.

    Each ordered run is handled as the engine did before its cold gate:
    every record is ingested (dead-on-arrival ones evicted at once), the
    whole run is counted in the statistics, partial-match expiry is swept
    once per matcher at the stream clock, and only then is each live record
    routed; its completions that fit the window as of the stream clock emit
    at it (the rule is applied here, not borrowed from the engine).  So
    this engine stores, counts and evicts every record -- the store the gate
    must be indistinguishable from.  The run's live records pass the
    engine's own front gate (``_gate_run``: label and label guard, each
    turned-away record one ``lookups`` tick); what follows it is not the
    engine's: every record the gate passes runs :meth:`_collect_matches`,
    a fresh dispatch-index probe, with no cached plan, compiled leaf check
    or interval index in front.  The dispatch counters and per-matcher edge
    counters it produces are what the route plans' bulk replay must equal.
    Every ingest entry point reaches this run loop, a single record as a
    one-record run, as in the engine.
    """

    def _run_fast_path(self, records, events):
        clock = max(self.graph.current_time, records[0].timestamp)
        ingested = []
        window = self.graph.window
        for record in records:
            edge = self._ingest(record)
            if window.bounded and window.is_expired(edge.timestamp, self.graph.current_time):
                self.graph.evict_expired()
                self.records_dead_on_arrival += 1
                ingested.append(None)
            else:
                ingested.append(edge)
        self.records_batched += len(records)
        if self.summarizer is not None:
            self.summarizer.observe_batch([edge for edge in ingested if edge is not None])
        for registration in self.queries.values():
            if not registration.matcher.idle:
                registration.matcher.expire_partials(clock)
        self.batches_vectorized += 1
        passed = iter(self._gate_run([r for r, e in zip(records, ingested) if e is not None]))
        for edge in ingested:
            if edge is not None and next(passed):
                found = []
                self._collect_matches(edge, found)
                # the window rule, stated on its own: a completion's interval,
                # stretched to the stream clock at its newest edge, must be
                # shorter than the (strict) query window
                now = max(clock, edge.timestamp)
                found = [
                    (registration, completion)
                    for registration, completion in found
                    if now - completion[EARLIEST] < registration.window.duration
                ]
                if found:
                    self._emit_trigger(found, edge.timestamp, self.edges_processed, events)
            self.edges_processed += 1
        self.graph.evict_expired()

    def _collect_matches(self, edge, found):
        """Append ``(registration, completion)`` for every completion ``edge`` makes.

        The dispatch index is probed afresh for this one edge: only the
        (query, leaf) pairs it names are searched.
        """
        source_label = self.graph.graph.vertex_label(edge.source)
        target_label = self.graph.graph.vertex_label(edge.target)
        for owner, leaf_ids in self.dispatch.candidates(edge.label, source_label, target_label):
            registration = self.queries[owner]
            matcher = registration.matcher
            leaves = [matcher.tree.node(leaf_id) for leaf_id in leaf_ids]
            for completion in matcher.process_edge_leaves(edge, leaves):
                found.append((registration, completion))


class ExhaustiveReferenceEngine(ProbedReferenceEngine):
    """Stores every record; runs every leaf of every registered matcher on every live one.

    The dispatch index, the route plans built on it and their interval
    indexes may only skip leaves that cannot bind a record, and the cold
    gate may only keep such records out of the store; this engine skips
    and gates nothing, so its events are what routing must reproduce.
    """

    def _gate_run(self, live):
        return [True] * len(live)

    def _collect_matches(self, edge, found):
        for registration in self.queries.values():
            matcher = registration.matcher
            # every leaf stays eager: no marking epoch ever closes
            matcher.epoch_end = float("inf")
            for completion in matcher.process_edge_leaves(edge, matcher.tree.leaves()):
                found.append((registration, completion))


# ----------------------------------------------------------------------
# deliberate faults (meta-tests: the oracle must catch these)
# ----------------------------------------------------------------------
def summary_facts(summary):
    """Every count a :class:`GraphSummary` holds, as comparable plain data."""
    return {
        "vertex_count": summary.vertex_count,
        "edge_count": summary.edge_count,
        "vertex_labels": summary.vertex_labels.to_dict(),
        "edge_labels": summary.edge_labels.to_dict(),
        "signatures": summary.signatures.to_dict(),
        "degrees": summary.degrees.histogram(),
        "triads": dict(summary.triads.most_common()),
        "wedges": summary.triads.total_wedges(),
    }


def assert_statistics_describe_the_window(engine, context=""):
    """Every (shard) engine's summary equals one recounted from its store alone."""
    for shard in getattr(engine, "shards", None) or [engine]:
        expected = summary_facts(GraphSummary.from_graph(shard.graph))
        assert summary_facts(shard.statistics_summary()) == expected, context


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

    def patched(route_key, *labels):
        plan = original(route_key, *labels)
        if len(plan.entries) > 1 and plan.index is None:
            del plan.entries[-1]
        return plan

    engine._build_route_plan = patched


class _LastSurvivorGatedPlan(RoutePlan):
    """A route plan whose record loses its searches when only the last entry survives."""

    __slots__ = ()

    def route(self, attrs):
        searches = RoutePlan.route(self, attrs)
        if len(searches) == 1 and searches[0][1] == [self.entries[-1][1]]:
            return []
        return searches


def gate_last_survivor(engine):
    """Fault: the cold gate also takes records whose only survivor is the plan's last entry.

    Models a gate bug (an off-by-one over the plan's entries): such a
    record is routed as if nothing could bind it, so it is neither searched
    nor stored, and later records cannot find it as a partner either.
    """
    original = engine._build_route_plan

    def patched(route_key, *labels):
        plan = original(route_key, *labels)
        plan.__class__ = _LastSurvivorGatedPlan
        return plan

    engine._build_route_plan = patched


def memo_by_survivor_count(engine):
    """Fault: route plans key their routed-list memo by how many entries survive.

    Models a memo keyed by a summary of the survivor set instead of the set
    itself: a record whose survivors differ from an earlier record's, but
    number the same, is sent to the earlier record's leaves.  Built from
    ``RoutePlan.route``'s own source with the key replaced, so the fault
    follows the real method.
    """
    source = textwrap.dedent(inspect.getsource(RoutePlan.route))
    for old, new in (
        ("memo.get(survived)", "memo.get(survivors)"),
        ("memo[survived] = searches", "memo[survivors] = searches"),
    ):
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = {}
    exec(compile(source, "<mutant route>", "exec"), vars(route_plan_module), namespace)
    plan_class = type("_CountKeyedPlan", (RoutePlan,), {"__slots__": (), "route": namespace["route"]})
    original = engine._build_route_plan

    def patched(route_key, *labels):
        plan = original(route_key, *labels)
        plan.__class__ = plan_class
        return plan

    engine._build_route_plan = patched


def sabotage_recompile(engine):
    """Fault: replans install a stale/corrupted compiled predicate table.

    Models the recompile-on-replan bug class: the migrated matcher keeps
    running on tables that no longer describe its plan.  The injected table
    inverts one edge check -- an always-true slot becomes never-true.
    Requires ``replan=True`` so a replan actually fires.
    """
    original = engine._replan

    def patched(registration, planner, strategy):
        registration = original(registration, planner, strategy)
        compiled = registration.matcher.compiled
        for edge_id, check in compiled.edge_checks.items():
            compiled.edge_checks[edge_id] = _never if check is None else None
            break
        return registration

    engine._replan = patched


def mutant_admit(*edits):
    """``ReorderBuffer._admit`` recompiled with ``(old, new)`` source edits.

    Each ``old`` must occur exactly once in the method's source, so a
    mutant never silently stops applying when the loop changes.
    """
    source = textwrap.dedent(inspect.getsource(reorder_module.ReorderBuffer._admit))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = {}
    exec(compile(source, "<mutant _admit>", "exec"), vars(reorder_module), namespace)
    return namespace["_admit"]


# ----------------------------------------------------------------------
# lazy leaves: the engine against the repeated-search baseline
# ----------------------------------------------------------------------
#: Window of the exfil-shaped query: one marking epoch, 100 records of
#: :func:`exfil_records` (they are 0.01 apart), off the timestamp grid.
EXFIL_WINDOW = 1.0 + 0.005


def exfil_query():
    """The benchmark's ``exfil`` shape: a login and an internal connection, then a big upload.

    The planner puts the selective upload in one leaf and the login /
    internal-connection pair in the other, joined on ``staging``.
    """
    return (
        QueryBuilder("exfil")
        .vertex("user", "User")
        .vertex("staging", "IP")
        .vertex("internal", "IP")
        .vertex("external", "IP")
        .edge("user", "staging", "loginTo", attrs={"success": True})
        .edge("staging", "internal", "connectsTo")
        .edge(
            "staging",
            "external",
            "connectsTo",
            predicate=AttrEquals("external", True) & AttrCompare("bytes", ">=", 1_000_000),
        )
        .build()
    )


def exfil_queries():
    return [("exfil", exfil_query(), EXFIL_WINDOW)]


def exfil_records(count, seed=3, calm=None, hosts=20, strays=0.03):
    """A busy login / internal-connection background with rare planted exfiltrations.

    Records are 0.01 apart.  The background keeps the login /
    connection leaf routed many times as often as the upload leaf, which
    goes lazy after the first epoch.  ``calm`` is a ``(start, stop)``
    record range in which uploads dominate instead, so the lazy leaf
    turns eager again, and lazy once more after it.  Each plant's three
    edges come in a random order within a few records, so the upload is
    sometimes older and sometimes newer than its login and connection;
    stray uploads from any of the ``hosts`` servers (a ``strays`` share of
    the records) join the background too.
    """
    rng = random.Random(seed)
    servers = [f"10.0.0.{index}" for index in range(hosts)]
    hubs = servers[:4]
    users = [f"user{index}" for index in range(30)]
    records, pending = [], []
    for position in range(count):
        timestamp = (position + 1) * 0.01
        in_calm = calm is not None and calm[0] <= position < calm[1]
        if pending and rng.random() < 0.6:
            source, target, label, attrs, labels = pending.pop(0)
        elif not pending and rng.random() < (0.0 if in_calm else 0.006):
            staging = rng.choice(servers[4:])
            plant = [
                (rng.choice(users), staging, "loginTo", {"success": True}, ("User", "IP")),
                (staging, rng.choice(hubs), "connectsTo",
                 {"bytes": 9000, "external": False}, ("IP", "IP")),
                (staging, f"203.0.113.{rng.randrange(8)}", "connectsTo",
                 {"bytes": 1_000_000 + rng.randrange(9_000_000), "external": True}, ("IP", "IP")),
            ]
            rng.shuffle(plant)
            pending.extend(plant)
            source, target, label, attrs, labels = pending.pop(0)
        elif rng.random() < (0.75 if in_calm else strays):
            source, label = rng.choice(servers), "connectsTo"
            target = f"203.0.113.{rng.randrange(8)}"
            attrs, labels = {"bytes": 2_000_000, "external": True}, ("IP", "IP")
        elif rng.random() < 0.25:
            source, target, label = rng.choice(users), rng.choice(servers), "loginTo"
            attrs, labels = {"success": rng.random() < 0.8}, ("User", "IP")
        else:
            source = rng.choice(servers)
            target = rng.choice(servers)
            if target == source:
                target = hubs[0] if source != hubs[0] else hubs[1]
            label, labels = "connectsTo", ("IP", "IP")
            attrs = {"bytes": rng.randrange(200, 60_000), "external": False}
        records.append(StreamEdge(source, target, label, timestamp, attrs, *labels))
    return records


def flippy_marking(monkeypatch):
    """Make the marking flip on any stream: lazy at any majority, eager again at any minority."""
    monkeypatch.setattr(matcher_module, "LAZY_MIN", 1)
    monkeypatch.setattr(matcher_module, "LAZY_ENTER", 1)
    monkeypatch.setattr(matcher_module, "LAZY_EXIT", 1)


def _edge_set(match):
    edges = match.edge_map.values()
    return tuple(sorted((edge.source, edge.target, edge.label, edge.timestamp) for edge in edges))


def _identity(match, dedupe_structural):
    # with dedupe_structural each side keeps one variant per edge set, not
    # necessarily the same one: compare the edge sets
    return _edge_set(match) if dedupe_structural else match.portable_identity()


def lazy_run(records, query_specs, *, batch_size, dedupe_structural=False, mutate=None):
    """The engine, free to mark leaves lazy; return ``(event multiset, engine)``."""
    engine = StreamWorksEngine(config=EngineConfig(dedupe_structural=dedupe_structural))
    for name, query, window in query_specs():
        engine.register_query(query, name=name, window=window)
    if mutate is not None:
        mutate(engine)
    events = []
    for start in range(0, len(records), batch_size):
        events.extend(engine.process_batch(records[start : start + batch_size]))
    events.extend(engine.flush())
    found = Counter(
        (event.query_name, _identity(event.match, dedupe_structural), event.detected_at)
        for event in events
    )
    return found, engine


def repeated_search(records, query_specs, *, dedupe_structural=False):
    """The baseline: every query re-searched over its window after every record.

    A match is reported at the record that completes it, judged against
    the window as of the stream clock there: the engine's rule, whatever
    batch size :func:`lazy_run` feeds it.
    """
    found = Counter()
    for name, query, window in query_specs():
        baseline = RepeatedSearchEngine(query, window=window, dedupe_structural=dedupe_structural)
        for record in records:
            for match in baseline.process_batch([record]):
                found[(name, _identity(match, dedupe_structural), record.timestamp)] += 1
    return found


def skip_directed_search(engine):
    """Fault: a partial stored beside a lazy leaf joins nothing the leaf would have held.

    Models forgetting the other half of lazy search: a pair whose lazy
    side is the older one never joins.
    """
    for registration in engine.queries.values():
        registration.matcher._join_directed = lambda *args: None


def directed_past_newest(engine):
    """Fault: the directed search binds edges at or above the stored partial's newest edge.

    Models dropping the ingest-id bound: an embedding whose newest edge is
    younger than the partial is joined by the search and again when its own
    record probes the partial's bucket.
    """
    for registration in engine.queries.values():
        searcher = registration.matcher.local_searcher
        original = searcher.find_directed

        def unbounded(primitive, key_vertices, key, id_bound, low, high, _original=original):
            return _original(primitive, key_vertices, key, 1 << 62, low, high)

        searcher.find_directed = unbounded


def lazy_keeps_bucket(engine):
    """Fault: a leaf goes lazy without dropping its bucket.

    The sibling still joins what the bucket holds, and the directed search
    finds the same embeddings again.
    """
    for registration in engine.queries.values():
        matcher = registration.matcher

        def keep(leaf, _matcher=matcher):
            leaf.work.mode_flips += 1
            _matcher.tree.set_lazy(leaf, True)

        matcher._go_lazy = keep
