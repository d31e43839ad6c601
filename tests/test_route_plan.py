"""Route plans: the interval index never changes what the prune loop decides.

A route plan (``repro.core.route_plan``) caches, per ``(label, endpoint
labels)`` key, the candidate leaves the dispatch index returns plus their
compiled checks, and may put an interval index in front of those checks.
The index is a necessary-condition prefilter, so the contract is equality
with the loop it replaced -- kept verbatim below as the oracle:

* **index == exhaustive prune**: over random predicate trees and random
  attribute maps, the ``(owner, leaves)`` searches the engine performs equal
  those of the all-leaves loop, order included; every record the front
  gate's label guard turns away is one the loop prunes every leaf of, and
  ``leaves_pruned`` equals the loop's count over the records it passes;
* **mutation meta-tests**: narrowing one extracted interval, or sending a
  value that sits exactly on a bound to the neighbouring open segment, makes
  that differential fail -- a harness that cannot catch the bugs it exists
  for proves nothing;
* **label guard soundness**: whenever a label's guard rejects attrs, the
  loop prunes every leaf for every endpoint-label pair, and flipping one
  accepting segment or opening an inclusive bound breaks that property;
* **work pins** (FO+MOD): with the guard off, compiled checks evaluated per
  out-of-band record stay flat while the registered band queries grow 8 ->
  64, and the same pin fails against the all-leaves loop; with it on, an
  out-of-band record resolves no endpoint label, interns nothing and is
  routed through no plan;
* **plan lifetime**: plans survive runs and are dropped on register /
  unregister / replan / restore -- events, ``metrics()["dispatch"]`` and the
  per-query edge counters stay byte-identical to an engine that runs the
  same front gate and then probes the dispatch index afresh for every
  record it passes, the
  prefilter counters identical to an engine whose plan cache is emptied
  before every run, and plans are built per route key and index version,
  not per run.
"""

import math
import random
import types
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from differential import (
    BAND_WINDOW,
    HOT,
    ProbedReferenceEngine,
    band_query,
    banded_records,
    drop_a_route_leaf,
)
from test_sharded_conformance import canonical

from repro.core import route_plan
from repro.core.engine import UNBOUND_LABEL, EngineConfig, StreamWorksEngine
from repro.core.matcher import ContinuousQueryMatcher
from repro.core.route_plan import build_route_plan
from repro.graph.interning import InternTable
from repro.graph.property_graph import PropertyGraph
from repro.query.builder import QueryBuilder
from repro.query.compile import key_intervals
from repro.query.predicates import (
    And,
    AttrCompare,
    AttrEquals,
    AttrExists,
    AttrIn,
    AttrRange,
    CustomPredicate,
    Not,
    Or,
    TruePredicate,
)
from repro.streaming.edge_stream import StreamEdge

SUPPRESS = [HealthCheck.too_slow]
INF = float("inf")


# ----------------------------------------------------------------------
# the oracle: the per-run route build and all-leaves prune loop this PR
# replaced, verbatim from ``_run_fast_path`` (counter replay elided)
# ----------------------------------------------------------------------
def legacy_route(engine, edge_label, source_label, target_label):
    groups = []
    for owner, leaf_ids in engine.dispatch.candidates(edge_label, source_label, target_label):
        owner_registration = engine.queries.get(owner)
        matcher = owner_registration.matcher
        tree = matcher.tree
        compiled = matcher.compiled
        leaf_checks = []
        for leaf_id in leaf_ids:
            leaf = tree.node(leaf_id)
            checks = None
            if compiled is not None:
                checks = []
                for query_edge in leaf.subgraph.edges():
                    if query_edge.label is None or query_edge.label == edge_label:
                        check = compiled.edge_checks[query_edge.id]
                        if check is None:
                            checks = None
                            break
                        checks.append(check)
            leaf_checks.append((leaf, checks))
        groups.append((owner_registration, leaf_checks))
    return groups


def legacy_prune(route_groups, attrs):
    """Return ``([(owner name, [leaf ids])], leaves pruned)`` for one record."""
    searches = []
    leaves_pruned = 0
    for owner_registration, leaf_checks in route_groups:
        survivors = []
        for leaf, checks in leaf_checks:
            if checks is None:
                survivors.append(leaf)
                continue
            for check in checks:
                if check(attrs):
                    survivors.append(leaf)
                    break
            else:
                leaves_pruned += 1
        if survivors:
            searches.append((owner_registration.name, [leaf.id for leaf in survivors]))
    return searches, leaves_pruned


# ----------------------------------------------------------------------
# differential driver
# ----------------------------------------------------------------------
LABEL = "link"


def build_queries(edge_predicates, ends=(("Host", "Host"),)):
    """One query per entry; a pair of predicates makes a two-check leaf.

    ``primitive_size`` is 2, so a two-edge path over one label decomposes to
    a single leaf with two label-compatible query edges: the leaf survives
    when *either* check accepts the record.  Query ``n``'s first and last
    vertex take the labels ``ends[n % len(ends)]``, the others ``Host``.
    """
    queries = []
    for number, predicates in enumerate(edge_predicates):
        builder = QueryBuilder(f"q{number}")
        first, last = ends[number % len(ends)]
        labels = [first] + ["Host"] * (len(predicates) - 1) + [last]
        for position, predicate in enumerate(predicates):
            builder.vertex(f"v{position}", labels[position])
            builder.vertex(f"v{position + 1}", labels[position + 1])
            builder.edge(f"v{position}", f"v{position + 1}", LABEL, predicate=predicate)
        queries.append(builder.build())
    return queries


def fresh_engine(queries, **config):
    config.setdefault("collect_statistics", False)
    engine = StreamWorksEngine(config=EngineConfig(**config))
    for query in queries:
        engine.register_query(query, window=INF)
    return engine


def records_for(attr_maps):
    return [
        StreamEdge(
            f"s{position}", f"t{position}", LABEL, float(position), dict(attrs),
            source_label="Host", target_label="Host",
        )
        for position, attrs in enumerate(attr_maps)
    ]


@contextmanager
def spied_searches(log):
    """Record every ``process_edge_leaves`` call as ``(timestamp, owner, leaf ids)``.

    Keyed on the record's timestamp (its stream position in
    :func:`records_for`), not the edge id: ids are store-local, and a cold
    record takes none.
    """
    original = ContinuousQueryMatcher.process_edge_leaves

    def spy(self, edge, leaves):
        log.append((edge.timestamp, self.query.name, [leaf.id for leaf in leaves]))
        return original(self, edge, leaves)

    ContinuousQueryMatcher.process_edge_leaves = spy
    try:
        yield
    finally:
        ContinuousQueryMatcher.process_edge_leaves = original


@contextmanager
def always_index():
    """Index whatever can be indexed: the differential is about exactness."""
    saved = route_plan._MIN_LEAVES_SPARED, route_plan._MAX_SEGMENT_FANOUT
    route_plan._MIN_LEAVES_SPARED, route_plan._MAX_SEGMENT_FANOUT = -INF, 10**9
    try:
        yield
    finally:
        route_plan._MIN_LEAVES_SPARED, route_plan._MAX_SEGMENT_FANOUT = saved


def log_gate(engine, log):
    """Append the engine's front-gate verdicts (``_gate_run``) to ``log``."""
    gate = engine._gate_run

    def logged(live):
        passed = gate(live)
        log.extend(passed)
        return passed

    engine._gate_run = logged


def assert_engine_matches_all_leaves_loop(edge_predicates, attr_maps):
    """The differential: real engine, real plans, against the verbatim loop.

    The front gate's label guard turns records away before any plan: each
    one must be a record the loop prunes every leaf of, and the plans'
    ``leaves_pruned`` counts the records the gate passed.
    """
    queries = build_queries(edge_predicates)
    engine = fresh_engine(queries)
    oracle_engine = fresh_engine(queries)  # same leaf ids: planning is deterministic
    groups = legacy_route(oracle_engine, LABEL, "Host", "Host")
    leaves = sum(len(leaf_checks) for _, leaf_checks in groups)
    expected, pruned_per_record = [], []
    for position, attrs in enumerate(attr_maps):
        searches, pruned = legacy_prune(groups, attrs)
        expected.extend((position, owner, leaf_ids) for owner, leaf_ids in searches)
        pruned_per_record.append(pruned)
    observed, passed = [], []
    log_gate(engine, passed)
    with always_index(), spied_searches(observed):
        engine.process_batch(records_for(attr_maps))
    assert observed == expected
    assert len(passed) == len(attr_maps)
    assert all(pruned == leaves for pruned, ok in zip(pruned_per_record, passed) if not ok)
    assert engine.leaves_pruned == sum(
        pruned for pruned, ok in zip(pruned_per_record, passed) if ok
    )
    return next(iter(engine.dispatch.plans.values()), None)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
KEYS = st.sampled_from(["x", "y"])
BOUNDS = st.one_of(
    st.integers(-2, 6),
    st.integers(-2, 6).map(lambda value: value + 0.5),
    st.integers(-2, 6).map(float),
    st.sampled_from([INF, -INF]),
)
OPTIONAL_BOUND = st.one_of(st.none(), BOUNDS)


@st.composite
def ranges(draw):
    low, high = draw(OPTIONAL_BOUND), draw(OPTIONAL_BOUND)
    if low is None and high is None:
        low = draw(BOUNDS)
    return AttrRange(
        draw(KEYS), low=low, high=high,
        low_exclusive=draw(st.booleans()), high_exclusive=draw(st.booleans()),
    )


LEAF_PREDICATES = st.one_of(
    ranges(),
    st.builds(
        AttrCompare,
        KEYS,
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        st.one_of(BOUNDS, st.sampled_from(["s", True, float("nan")])),
    ),
    st.builds(AttrEquals, KEYS, st.one_of(BOUNDS, st.sampled_from(["s", True, None]))),
    st.builds(AttrIn, KEYS, st.lists(st.one_of(st.integers(-2, 6), st.just("s")), max_size=3)),
    st.builds(AttrExists, KEYS),
    KEYS.map(lambda key: CustomPredicate(lambda attrs, key=key: attrs.get(key) == 3)),
    st.just(TruePredicate()),
)
PREDICATES = st.recursive(
    LEAF_PREDICATES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(And),
        st.lists(inner, max_size=3).map(Or),
        inner.map(Not),
    ),
    max_leaves=6,
)
VALUES = st.one_of(
    BOUNDS,
    st.sampled_from([float("nan"), True, False, "s", "3", None]),
    st.just([1]),
)
ATTR_MAPS = st.dictionaries(st.sampled_from(["x", "y", "z"]), VALUES, max_size=3)
#: What sits on a query edge: mostly trees the extraction can see through (so
#: most examples build a many-segment index), the rest anything at all.
NUMERIC_COMPARE = st.builds(
    AttrCompare, KEYS, st.sampled_from(["==", "<", "<=", ">", ">="]), BOUNDS
)
EDGE_PREDICATES = st.one_of(
    ranges(),
    NUMERIC_COMPARE,
    st.tuples(ranges(), PREDICATES).map(And),
    st.lists(st.one_of(ranges(), NUMERIC_COMPARE), min_size=2, max_size=3).map(Or),
    PREDICATES,
)
QUERY_EDGES = st.lists(st.lists(EDGE_PREDICATES, min_size=1, max_size=2), min_size=1, max_size=8)


@given(edge_predicates=QUERY_EDGES, attr_maps=st.lists(ATTR_MAPS, min_size=1, max_size=10))
@settings(max_examples=150, deadline=None, suppress_health_check=SUPPRESS)
def test_interval_index_equals_the_exhaustive_prune(edge_predicates, attr_maps):
    assert_engine_matches_all_leaves_loop(edge_predicates, attr_maps)


@given(predicate=PREDICATES, attrs=ATTR_MAPS)
@settings(max_examples=300, deadline=None, suppress_health_check=SUPPRESS)
def test_extracted_intervals_are_necessary_conditions(predicate, attrs):
    """``key_intervals`` promise: accepted => key present and, when the value
    is a plain non-NaN number, inside the interval."""
    if not predicate(attrs):
        return
    for key, (low, low_exclusive, high, high_exclusive) in key_intervals(predicate).items():
        assert key in attrs
        value = attrs[key]
        if type(value) not in (int, float) or value != value:
            continue
        if low is not None:
            assert value > low or (value == low and not low_exclusive)
        if high is not None:
            assert value < high or (value == high and not high_exclusive)


def band(low, high=None, key="x", **flags):
    return AttrRange(key, low=low, high=low + 2 if high is None else high, **flags)


def test_overlapping_nested_and_exclusive_intervals_index_exactly():
    """Deterministic companion: bounds shared between entries, nested and
    empty intervals, int/float mixes, every special value on every bound."""
    edge_predicates = [
        [band(0)], [band(2)], [band(1, 5)], [band(2, 3)],
        [band(2, 2)], [band(3, 1)],  # a point; an empty interval
        [band(0, 4, low_exclusive=True, high_exclusive=True)],
        [band(0.0, 2.5)], [AttrCompare("x", "<", 2)], [AttrCompare("x", ">=", 4.0)],
        [AttrEquals("x", 2)], [AttrRange("x", low=-INF, high=INF)],
        [band(0) & AttrExists("y"), band(4)],  # two checks, one leaf
        [Or([band(0, 1), band(4, 5)])], [Not(band(0))], [AttrExists("x")],
    ]
    specials = [-INF, -1, 0, 0.0, 0.5, 1, 2, 2.0, 2.5, 3, 4, 4.5, 5, 6, INF,
                float("nan"), True, False, "2", None, [2]]
    attr_maps = [{"x": value} for value in specials] + [{}, {"y": 1}, {"x": 2, "y": 1}]
    plan = assert_engine_matches_all_leaves_loop(edge_predicates, attr_maps)
    assert plan.index is not None and plan.index.key == "x"


# ----------------------------------------------------------------------
# mutation meta-tests: the differential must reject a wrong index
# ----------------------------------------------------------------------
BANDS = [[band(index * 10, index * 10 + 6)] for index in range(8)]
ON_AND_AROUND_BOUNDS = [{"x": value} for value in (-1, 0, 3, 6, 7, 10, 15.5, 16, 76, 77)]


def test_the_differential_accepts_the_real_index():
    plan = assert_engine_matches_all_leaves_loop(BANDS, ON_AND_AROUND_BOUNDS)
    assert plan.index is not None and len(plan.index.segments) == 2 * 16 + 1


def test_mutation_narrowed_interval_is_caught(monkeypatch):
    def narrowed(predicate):
        return {
            key: (low, low_exclusive, high - 1, high_exclusive)
            for key, (low, low_exclusive, high, high_exclusive) in key_intervals(predicate).items()
        }

    monkeypatch.setattr(route_plan, "key_intervals", narrowed)
    with pytest.raises(AssertionError):
        assert_engine_matches_all_leaves_loop(BANDS, ON_AND_AROUND_BOUNDS)


def test_mutation_bound_sent_to_the_neighbouring_open_segment_is_caught(monkeypatch):
    # bisect_right steps over an equal bound: a value exactly on an inclusive
    # endpoint then reads the open segment above it instead of the point's own
    from bisect import bisect_right

    monkeypatch.setattr(route_plan, "bisect_left", bisect_right)
    with pytest.raises(AssertionError):
        assert_engine_matches_all_leaves_loop(BANDS, ON_AND_AROUND_BOUNDS)


def test_mutation_inclusive_bound_treated_as_exclusive_is_caught(monkeypatch):
    original = route_plan._covers_point

    def open_ended(interval, point):
        low, _, high, _ = interval
        return original((low, True, high, True), point)

    monkeypatch.setattr(route_plan, "_covers_point", open_ended)
    with pytest.raises(AssertionError):
        assert_engine_matches_all_leaves_loop(BANDS, ON_AND_AROUND_BOUNDS)


# ----------------------------------------------------------------------
# the label guard: a rejection must hold for every route key of the label
# ----------------------------------------------------------------------
ENDPOINT_PAIRS = (("Host", "Host"), ("Other", "Host"), ("Host", "Other"))


def assert_label_guard_sound(edge_predicates, attr_maps):
    """Whenever ``LABEL``'s guard rejects attrs, the all-leaves loop prunes
    every leaf of every endpoint-label pair; return the rejection count."""
    engine = fresh_engine(build_queries(edge_predicates, ends=ENDPOINT_PAIRS))
    before = engine.dispatch.stats()
    guard = route_plan.label_guard(engine.dispatch, engine.queries, LABEL)
    assert engine.dispatch.stats() == before  # building is not stream work
    assert engine.dispatch.label_guards == {LABEL: guard}
    routes = [legacy_route(engine, LABEL, source, target) for source, target in ENDPOINT_PAIRS]
    rejected = 0
    for attrs in attr_maps:
        if guard is not None and guard.rejects(attrs):
            rejected += 1
            for groups in routes:
                assert legacy_prune(groups, attrs)[0] == []
    return rejected


@given(edge_predicates=QUERY_EDGES, attr_maps=st.lists(ATTR_MAPS, min_size=1, max_size=10))
@settings(max_examples=150, deadline=None, suppress_health_check=SUPPRESS)
def test_a_label_guard_rejects_only_what_every_route_key_prunes(edge_predicates, attr_maps):
    assert_label_guard_sound(edge_predicates, attr_maps)


def test_the_guard_property_accepts_the_real_guard():
    # below, between and above the bands; every value on a bound is accepted
    assert assert_label_guard_sound(BANDS, ON_AND_AROUND_BOUNDS) == 3


def test_guard_mutation_accepting_segment_flipped_to_reject_is_caught(monkeypatch):
    original = route_plan.IntervalIndex.build

    def flipped(cls, *args):
        index = original(*args)
        if index is not None:
            first = next(at for at, members in enumerate(index.segments) if members)
            index.segments[first] = []
        return index

    monkeypatch.setattr(route_plan.IntervalIndex, "build", classmethod(flipped))
    with pytest.raises(AssertionError):
        assert_label_guard_sound(BANDS, ON_AND_AROUND_BOUNDS)


def test_guard_mutation_inclusive_bound_treated_as_exclusive_is_caught(monkeypatch):
    original = route_plan._covers_point

    def open_ended(interval, point):
        low, _, high, _ = interval
        return original((low, True, high, True), point)

    monkeypatch.setattr(route_plan, "_covers_point", open_ended)
    with pytest.raises(AssertionError):
        assert_label_guard_sound(BANDS, ON_AND_AROUND_BOUNDS)


# ----------------------------------------------------------------------
# FO+MOD work pin: per-record check work independent of the query count
# ----------------------------------------------------------------------
def checks_per_out_of_band_record(bands, record_count=60):
    """Compiled edge checks the engine evaluates per hot, out-of-band record."""
    engine = fresh_engine([band_query(index) for index in range(bands)])
    calls = [0]

    def counting(check):
        def counted(attrs):
            calls[0] += 1
            return check(attrs)

        return counted

    # plans are built lazily, so wrapping the compiled tables now is seen by them
    for registration in engine.queries.values():
        table = registration.matcher.compiled.edge_checks
        for edge_id, check in table.items():
            table[edge_id] = counting(check)
    rng = random.Random(3)
    records = [
        StreamEdge(f"a{position}", f"b{position}", rng.choice(HOT), position * 0.01,
                   {"proto": "tcp", "port": 80, "bytes": bands * 1000 + 500 + position},
                   source_label="Host", target_label="Host")
        for position in range(record_count)
    ]
    engine.process_batch(records)
    assert engine.leaves_pruned == bands * record_count  # every leaf pruned, either way
    selected = sum(
        plan.index.leaves_selected for plan in engine.dispatch.plans.values() if plan.index
    )
    return calls[0] / record_count, selected / record_count, engine


def unguarded(monkeypatch):
    """No label guards: every hot record reaches its route plan (the index's pins)."""
    monkeypatch.setattr(route_plan.LabelGuard, "build", classmethod(lambda cls, *args: None))


def test_work_pin_checks_per_record_do_not_grow_with_registered_queries(monkeypatch):
    unguarded(monkeypatch)
    few, few_selected, _ = checks_per_out_of_band_record(8)
    many, many_selected, engine = checks_per_out_of_band_record(64)
    assert all(plan.index is not None for plan in engine.dispatch.plans.values())
    assert few == many == 0.0
    assert few_selected == many_selected == 0.0


def test_work_pin_fails_against_the_all_leaves_loop(monkeypatch):
    unguarded(monkeypatch)
    monkeypatch.setattr(route_plan, "_MIN_LEAVES_SPARED", INF)  # never index
    few, _, _ = checks_per_out_of_band_record(8)
    many, _, engine = checks_per_out_of_band_record(64)
    assert all(plan.index is None for plan in engine.dispatch.plans.values())
    assert many >= 8 * few > 0  # one conjunction per registered band, per record


def in_band(record, bands):
    """Whether a band query's checks accept ``record`` (label and attrs alone)."""
    size = record.attrs.get("bytes")
    return record.label in HOT and any(
        band * 1000 <= size <= band * 1000 + 60 for band in range(bands)
    )


def test_work_pin_an_out_of_band_record_resolves_no_endpoint_and_routes_nowhere(monkeypatch):
    """Guards before lookups: the front gate turns a hot record outside every
    band away on its own attrs.  Before the guard each one cost two
    ``vertex_label``, two ``intern`` and one ``RoutePlan.route`` call."""
    engine = fresh_engine([band_query(index) for index in range(8)])
    calls = {"vertex_label": 0, "intern": 0, "route": 0}
    for owner in (PropertyGraph, InternTable, route_plan.RoutePlan):
        for name in calls:
            if hasattr(owner, name):
                original = getattr(owner, name)

                def counted(*args, _original=original, _name=name):
                    calls[_name] += 1
                    return _original(*args)

                monkeypatch.setattr(owner, name, counted)
    rng = random.Random(4)
    records = [
        StreamEdge(f"a{position}", f"b{position}", label, position * 0.01,
                   {"proto": "tcp", "port": 80, "bytes": 8500 + position}
                   if label in HOT else {"bytes": 30},
                   source_label="Host", target_label="Host")
        for position, label in enumerate(rng.choice(HOT + ["cold"]) for _ in range(80))
    ]
    engine.process_batch(records)
    assert calls == {"vertex_label": 0, "intern": 0, "route": 0}
    assert engine.records_prefiltered == engine.records_cold == len(records)
    assert engine.dispatch.lookups == len(records) and not engine.dispatch.plans
    # a stream with in-band chains: the gate passes exactly those, and only
    # those are routed
    records = banded_records(600, 8)
    engine = fresh_engine([band_query(index) for index in range(8)])
    calls["route"] = 0
    engine.process_batch(records)
    routed = sum(in_band(record, 8) for record in records)
    assert 0 < routed < len(records)
    assert calls["route"] == routed
    assert engine.records_prefiltered == len(records) - routed


# ----------------------------------------------------------------------
# index choice: sparsest key, and no index that does not pay
# ----------------------------------------------------------------------
def test_index_key_is_chosen_by_mean_segment_population():
    engine = fresh_engine([band_query(index) for index in range(32)])
    plan = build_route_plan(engine.dispatch, engine.queries, "hot_0", "Host", "Host")
    # ``port <= 1024`` is constrained by every leaf too, but its three
    # segments hold 32, 32 and 0 leaves; ``bytes`` holds at most one
    assert plan.index.key == "bytes"
    assert len(plan.index.segments) == 129
    assert max(len(members) for members in plan.index.segments) == 1


def test_no_index_when_it_cannot_beat_the_plain_list():
    few = fresh_engine([band_query(index) for index in range(3)])
    assert build_route_plan(few.dispatch, few.queries, "hot_0", "Host", "Host").index is None
    # wide overlapping intervals: every segment would repeat most leaves
    overlapping = fresh_engine(
        build_queries([[AttrRange("x", low=index, high=index + 1000)] for index in range(40)])
    )
    plan = build_route_plan(overlapping.dispatch, overlapping.queries, LABEL, "Host", "Host")
    assert plan.index is None and len(plan.entries) == 40
    # nothing numeric to index on
    opaque = fresh_engine(build_queries([[AttrIn("x", [index])] for index in range(12)]))
    assert build_route_plan(opaque.dispatch, opaque.queries, LABEL, "Host", "Host").index is None


# ----------------------------------------------------------------------
# plan lifetime
# ----------------------------------------------------------------------
BANDS_REGISTERED = 12


def lifetime_engine(kind, **config):
    """``kind``: ``"plans"`` (the product), ``"oracle"`` (every record
    stored, then a fresh dispatch probe per record, no plans: the run of
    ``differential.ProbedReferenceEngine``), ``"cleared"`` (plans rebuilt
    every run, as the per-run memo was) or ``"dropped"`` (the
    ``drop_a_route_leaf`` fault)."""
    config.setdefault("default_window", BAND_WINDOW)
    engine = StreamWorksEngine(config=EngineConfig(**config))
    arm(engine, kind)
    return engine


def arm(engine, kind):
    # armed per instance, so a restored engine (always a plain one) is
    # re-armed the same way
    if kind == "oracle":
        for name in ("_run_fast_path", "_collect_matches"):
            setattr(engine, name, types.MethodType(getattr(ProbedReferenceEngine, name), engine))
    elif kind == "cleared":
        run = engine._run_fast_path

        def cleared_first(*args):
            engine.dispatch.plans.clear()
            return run(*args)

        engine._run_fast_path = cleared_first
    elif kind == "dropped":
        drop_a_route_leaf(engine)


def play(kind, script, tmp_path, **config):
    """Run a script of batches and registration changes; return the evidence."""
    engine = lifetime_engine(kind, **config)
    for index in range(BANDS_REGISTERED):
        engine.register_query(band_query(index), window=BAND_WINDOW)
    runs = 0
    for step, argument in script:
        if step == "batch":
            engine.process_batch(argument)
            runs += 1
        elif step == "register":
            engine.register_query(argument, window=BAND_WINDOW)
        elif step == "unregister":
            engine.unregister_query(argument)
        elif step == "replan":
            engine.replan_query(argument)
        elif step == "restore":
            path = str(tmp_path / f"{kind}-{runs}.snap")
            engine.checkpoint(path)
            engine = StreamWorksEngine.restore(path)
            arm(engine, kind)
    engine.flush()
    metrics = engine.metrics()
    return {
        "events": canonical(list(engine.collector.events)),
        "dispatch": metrics["dispatch"],
        "edges_processed": {
            name: stats["edges_processed"] for name, stats in metrics["queries"].items()
        },
        "prefilter": (
            metrics["columnar"]["records_prefiltered"], metrics["columnar"]["leaves_pruned"]
        ),
        "engine": engine,
        "runs": runs,
    }


def assert_lifetime_contract(script, tmp_path, **config):
    plans = play("plans", script, tmp_path, **config)
    oracle = play("oracle", script, tmp_path, **config)
    cleared = play("cleared", script, tmp_path, **config)
    assert plans["events"], "vacuous scenario: nothing matched"
    assert plans["events"] == oracle["events"]
    assert plans["dispatch"] == oracle["dispatch"]
    assert plans["edges_processed"] == oracle["edges_processed"]
    assert plans["prefilter"] == cleared["prefilter"]
    assert plans["prefilter"][1] > 0, "vacuous scenario: nothing pruned"
    return plans, cleared


def batches(records, size=40):
    return [("batch", records[start : start + size]) for start in range(0, len(records), size)]


def route_keys(records, labels):
    return {(r.label, r.source_label, r.target_label) for r in records if r.label in labels}


def test_the_lifetime_oracle_catches_a_plan_missing_a_leaf(tmp_path, monkeypatch):
    """Mutation: plans that lose their last candidate leaf (the last band)
    must diverge from the store-everything, probe-per-record oracle."""
    monkeypatch.setattr(route_plan, "_MIN_LEAVES_SPARED", INF)  # plain lists: the fault bites
    steps = batches(banded_records(600, BANDS_REGISTERED))
    dropped = play("dropped", steps, tmp_path)
    oracle = play("oracle", steps, tmp_path)
    assert oracle["events"] and dropped["events"] != oracle["events"]


def test_plans_are_built_per_route_key_not_per_run(tmp_path):
    records = banded_records(600, BANDS_REGISTERED)
    plans, cleared = assert_lifetime_contract(batches(records), tmp_path)
    dispatch = plans["engine"].dispatch
    assert plans["runs"] == 15
    assert dispatch.plans_built == len(route_keys(records, HOT)) == 3
    assert all(plan.index is not None for plan in dispatch.plans.values())
    # the old per-run lifetime, for contrast: one build per key per run
    assert cleared["engine"].dispatch.plans_built == 3 * plans["runs"]


def test_register_unregister_and_replan_between_batches_drop_the_plans(tmp_path):
    records = banded_records(800, BANDS_REGISTERED + 1)
    steps = batches(records)
    late_band = band_query(BANDS_REGISTERED, name="late")
    script = (
        steps[:5] + [("register", late_band)] + steps[5:9] + [("unregister", "band3")]
        + steps[9:13] + [("replan", "band5"), ("replan", "late")] + steps[13:]
    )
    plans, _ = assert_lifetime_contract(script, tmp_path)
    dispatch = plans["engine"].dispatch
    assert any(name == "late" for name, *_ in plans["events"])
    assert dispatch.plans_built <= len(route_keys(records, HOT)) * dispatch.version
    assert dispatch.plans_built < plans["runs"]
    for plan in dispatch.plans.values():  # rebuilt against the final query set
        owners = [owner.registration.name for owner in plan.owners]
        assert "late" in owners and "band3" not in owners
    # so are the label guards: the replanned "late" band is no longer rejected
    assert set(dispatch.label_guards) == set(HOT)
    late_bytes = {"proto": "tcp", "port": 80, "bytes": BANDS_REGISTERED * 1000 + 30}
    assert not any(guard.rejects(late_bytes) for guard in dispatch.label_guards.values())
    assert all(guard.rejects({"proto": "tcp", "port": 80, "bytes": 3030})
               for guard in dispatch.label_guards.values())  # band3 is gone


def test_automatic_replans_invalidate_plans(tmp_path):
    records = banded_records(800, BANDS_REGISTERED)
    plans, _ = assert_lifetime_contract(
        batches(records), tmp_path,
        collect_statistics=True, replan_threshold=0.2, replan_check_every=80,
    )
    engine = plans["engine"]
    assert engine.metrics()["replan"]["plans_applied"] > 0, "vacuous: no replan fired"
    assert engine.dispatch.plans_built <= 3 * engine.dispatch.version


def test_plans_are_rebuilt_not_restored_across_checkpoint(tmp_path):
    records = banded_records(600, BANDS_REGISTERED)
    steps = batches(records)
    script = steps[:6] + [("restore", None)] + steps[6:]
    plans, _ = assert_lifetime_contract(script, tmp_path)
    uninterrupted = play("plans", steps, tmp_path)
    assert plans["events"] == uninterrupted["events"]
    assert plans["prefilter"] == uninterrupted["prefilter"]
    # the restored engine starts with an empty cache and builds its own three
    assert plans["engine"].dispatch.plans_built == 3


def test_a_wildcard_query_switches_the_label_gate_off(tmp_path):
    records = banded_records(400, BANDS_REGISTERED, cold_share=0.3)
    wildcard = (
        QueryBuilder("any_big").vertex("a", "Host").vertex("b", "Host")
        .edge("a", "b", None, predicate=AttrCompare("bytes", ">=", 80_000)).build()
    )
    steps = batches(records)
    script = steps[:3] + [("register", wildcard)] + steps[3:]
    plans, _ = assert_lifetime_contract(script, tmp_path)
    engine = plans["engine"]
    assert any(name == "any_big" for name, *_ in plans["events"])
    assert not engine.dispatch.front_rejects("cold_never_seen")
    # every label is now routed, but the labels no query names are not
    # interned: they share one UNBOUND_LABEL plan holding just the wildcard
    # leaf, so the cache does not grow with the cold alphabet either
    assert len({record.label for record in records[120:]}) > 3
    host = engine.interning.lookup("Host")
    assert set(engine.dispatch.plans) == {
        (engine.interning.lookup(label), host, host) for label in HOT
    } | {(UNBOUND_LABEL, host, host)}
    unbound = engine.dispatch.plans[UNBOUND_LABEL, host, host]
    assert [owner.registration.name for owner in unbound.owners] == ["any_big"]
    # guards are kept for the labels the index names only; each includes
    # the wildcard leaf, whose ``bytes >= 80 000`` they must accept
    guards = engine.dispatch.label_guards
    assert set(guards) == set(HOT)
    assert not any(guard.rejects({"proto": "x", "bytes": 90_000}) for guard in guards.values())
    assert all(guard.rejects({"proto": "tcp", "bytes": 50_000}) for guard in guards.values())
    engine.unregister_query("any_big")
    assert engine.dispatch.front_rejects("cold_never_seen") and not engine.dispatch.plans
    assert not engine.dispatch.label_guards


def test_short_watermark_released_runs_share_plans(tmp_path):
    records = banded_records(600, BANDS_REGISTERED)
    rng = random.Random(9)
    shuffled = sorted(records, key=lambda record: record.timestamp + rng.uniform(0.0, 0.05))
    plans, _ = assert_lifetime_contract(
        batches(shuffled, size=16), tmp_path, allowed_lateness=0.06
    )
    engine = plans["engine"]
    assert engine.batches_vectorized >= 30  # many short runs ...
    assert engine.dispatch.plans_built == 3  # ... one build per route key


def test_a_run_that_raises_still_settles_its_plan_tallies():
    """Plans outlive the run, so a run's deferred counters must not leak into
    the next one when a (user-supplied) predicate raises mid-run."""

    def explode(attrs):
        if attrs.get("boom"):
            raise RuntimeError("boom")
        return True

    queries = build_queries([[CustomPredicate(explode)], [band(0)]])
    engine = fresh_engine(queries)
    engine.process_batch(records_for([{"x": 1}, {"x": 9}]))
    with pytest.raises(RuntimeError):
        engine.process_batch(records_for([{"x": 1}, {"boom": True}, {"x": 1}]))
    assert all(plan.uses == 0 for plan in engine.dispatch.plans.values())
    assert all(owner.searched == 0
               for plan in engine.dispatch.plans.values() for owner in plan.owners)
    assert engine.dispatch.lookups == 4  # two clean records + the two that were routed


# ----------------------------------------------------------------------
# satellites riding on the same stage
# ----------------------------------------------------------------------
def test_a_batch_with_an_unhashable_attribute_processes_fully():
    """Regression: ``AttrIn`` raised on a list-valued attribute mid-run and
    left the engine half-applied.  The malformed record now simply fails the
    check; every other event is what the stream without it produces."""
    records = banded_records(300, BANDS_REGISTERED)
    malformed = StreamEdge(
        "h1", "h2", "hot_0", records[150].timestamp, {"proto": ["tcp"], "port": 80, "bytes": 30},
        source_label="Host", target_label="Host",
    )
    outcomes = {}
    for kind in ("plans", "oracle"):
        clean = lifetime_engine(kind)
        dirty = lifetime_engine(kind)
        for engine in (clean, dirty):
            for index in range(BANDS_REGISTERED):
                engine.register_query(band_query(index), window=BAND_WINDOW)
        clean.process_batch(records)
        dirty.process_batch(records[:150] + [malformed] + records[150:])
        assert dirty.edges_processed == len(records) + 1
        assert dirty.metrics()["edges_evicted"] > 0  # the run reached its eviction sweep
        identities = lambda engine: [  # noqa: E731
            (event.query_name, event.match.portable_identity(), event.detected_at)
            for event in engine.collector.events
        ]
        assert identities(dirty) == identities(clean) != []
        outcomes[kind] = identities(dirty)
    assert outcomes["plans"] == outcomes["oracle"]


def test_idle_matchers_skip_the_expiry_sweep():
    """Only a matcher holding a partial expired at the run's anchor is swept:
    neither an idle one nor one whose partials are all still in the window."""
    engine = lifetime_engine("plans")
    for index in range(4):
        engine.register_query(band_query(index), window=BAND_WINDOW)
    calls = []
    original = ContinuousQueryMatcher.expire_partials

    def counted(self, now):
        calls.append(self.query.name)
        return original(self, now)

    ContinuousQueryMatcher.expire_partials = counted
    try:
        hit = {"proto": "tcp", "port": 80, "bytes": 2030}  # band2 only
        # one unconnected in-band edge per label: whichever leaf is a single
        # edge under the chosen decomposition stores a partial
        engine.process_batch([
            StreamEdge(f"a{position}", f"b{position}", label, position * 0.001, hit,
                       source_label="Host", target_label="Host")
            for position, label in enumerate(HOT)
        ])
        assert calls == []  # nothing stored anywhere yet
        assert not engine.queries["band2"].matcher.idle
        engine.process_batch([StreamEdge("c", "d", "cold", 0.1, {},
                                         source_label="Host", target_label="Host")])
        assert calls == []  # band2's partials are still inside its window
        engine.process_batch([StreamEdge("e", "f", "cold", 5.0, {},
                                         source_label="Host", target_label="Host")])
        assert calls == ["band2"]  # this sweep expired band2's partials
        assert engine.queries["band2"].matcher.idle
        engine.process_batch([StreamEdge("g", "h", "cold", 5.1, {},
                                         source_label="Host", target_label="Host")])
        assert calls == ["band2"]
    finally:
        ContinuousQueryMatcher.expire_partials = original
    stats = engine.metrics()["queries"]["band2"]
    assert stats["partial_matches_expired"] >= 1


def test_nan_bounds_and_non_numeric_constants_constrain_nothing():
    assert key_intervals(AttrRange("x", low=float("nan"))) == {}
    assert key_intervals(AttrRange("x", low="a", high="m")) == {}
    assert key_intervals(AttrRange("x", low="a", high=3)) == {"x": (None, False, 3, False)}
    assert key_intervals(AttrEquals("x", True)) == {}
    assert key_intervals(AttrCompare("x", "!=", 3)) == {}
    assert key_intervals(And([AttrCompare("x", ">", 1), AttrCompare("x", ">=", 1)])) == {
        "x": (1, True, None, False)
    }
    assert key_intervals(Or([AttrCompare("x", "<", 1), AttrCompare("x", "<=", 1)])) == {
        "x": (None, False, 1, False)
    }
    assert key_intervals(Or([AttrCompare("x", "<", 1), AttrExists("x")])) == {}
    assert key_intervals(Or([])) == {}
    assert math.isinf(key_intervals(AttrCompare("x", "<", INF))["x"][2])

    class Lenient(AttrRange):
        def __call__(self, attrs):
            return True

    assert key_intervals(Lenient("x", low=1)) == {}  # exact-type dispatch, as compile
