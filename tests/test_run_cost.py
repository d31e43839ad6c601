"""Per-run cost proportional to what the run changes.

A watermark-released stream reaches the engine as many short runs, so any
fixed per-run or per-record cost shows.  Three mechanisms keep that cost in
line with what a run changes, and this suite pins each against a reference
that does the work the old way:

* **Due-only sweeps** -- a run sweeps partial-match expiry only in matchers
  holding a partial expired at the run's stream clock.  The work pin counts the
  ``expire_partials`` calls per run against a brute-force count of such
  matchers, over disordered streams with late ``process_degraded`` records
  and mixed windows; the partials dropped per run equal those of an engine
  that sweeps every matcher; and restoring the every-non-idle sweep fails
  the pin.
* **The bulk cold gate** -- label-rejected records go to the cold ring in
  bulk, plan-rejected ones from the per-record loop, and the ring stays in
  stream order across both kinds; the gate's vertex-check verdict is cached
  per dispatch-index version, and registering, replanning, unregistering
  or restoring-then-registering a vertex-checking query shuts and reopens
  it on the next run.
* **One admission loop** -- a batch offered to the multi-source reorder
  buffer admits exactly as its records offered one at a time through the
  per-record admission the loop replaced (kept here as the reference):
  late lists, releases, ``stats()`` and ``state_dict()`` agree under
  random streams and batchings.  Classifying a batch against the watermark
  it started from fails that property.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from differential import BAND_WINDOW, HOT, band_query, chain_query

from repro.core import engine as engine_module
from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.core.matcher import ContinuousQueryMatcher
from repro.query.builder import QueryBuilder
from repro.query.predicates import AttrEquals
from repro.streaming import (
    ADAPTIVE_LATENESS,
    LatePolicy,
    MultiSourceReorderBuffer,
    StreamEdge,
)
from repro.streaming.sources import DEFAULT_SOURCE, _SourceState

_NEG_INF = float("-inf")


# ----------------------------------------------------------------------
# due-only sweeps: the FO+MOD work pin for partial expiry
# ----------------------------------------------------------------------
def sweep_specs():
    """Chains over a shared alphabet under four different windows, one unbounded."""
    return [
        ("ab", chain_query("ab", ["a", "b"]), 0.5),
        ("bcd", chain_query("bcd", ["b", "c", "d"]), 1.2),
        ("cad", chain_query("cad", ["c", "a", "d"]), float("inf")),
        ("dba", chain_query("dba", ["d", "b", "a"]), 0.3),
    ]


def sweep_records(count=700, seed=23):
    """A disordered stream: local jitter within 0.2, and stragglers far behind."""
    rng = random.Random(seed)
    records = []
    for index in range(count):
        timestamp = index * 0.02
        if rng.random() < 0.3:
            timestamp -= rng.uniform(0.0, 0.2)
        if rng.random() < 0.04:
            timestamp -= rng.uniform(0.3, 1.5)  # beyond the lateness horizon
        source = rng.randrange(12)
        target = (source + 1 + rng.randrange(11)) % 12
        records.append(
            StreamEdge(f"v{source}", f"v{target}", rng.choice("abcd"), max(timestamp, 0.0))
        )
    return records


class EveryMatcherSweep(StreamWorksEngine):
    """Reference: every run sweeps every registered matcher."""

    def expire_all_partials(self, now):
        return sum(
            registration.matcher.expire_partials(now) for registration in self.queries.values()
        )


def every_non_idle_sweep(self, now):
    """The sweep before due-only sweeps: every matcher that stores anything."""
    return sum(
        registration.matcher.expire_partials(now)
        for registration in self.queries.values()
        if not registration.matcher.idle
    )


def holds_an_expired_partial(matcher, anchor):
    return any(
        matcher.window.is_expired(match.earliest, anchor)
        for node in matcher.tree.nodes.values()
        for match in node.all_matches()
    )


def partials_expired(engine):
    return sum(
        registration.matcher.stats.partial_matches_expired
        for registration in engine.queries.values()
    )


FEEDS = {
    # late records are handed back and run alone, swept at the stream clock
    "degraded": dict(allowed_lateness=0.2, late_policy=LatePolicy.PROCESS_DEGRADED),
    # no buffer: each batch runs as its ordered runs
    "runs": dict(),
}


def sweep_log(engine_cls, feed, batch=9):
    """Run the stream; per run, ``(expire_partials calls, matchers due,
    partials dropped, matchers storing a partial)``."""
    engine = engine_cls(config=EngineConfig(**FEEDS[feed]))
    for name, query, window in sweep_specs():
        engine.register_query(query, name=name, window=window)
    log = []
    calls = []
    expire = ContinuousQueryMatcher.expire_partials
    run = StreamWorksEngine._run_fast_path

    def counted_expire(self, now):
        calls.append(self.query.name)
        return expire(self, now)

    def logged_run(self, records, events):
        # the run sweeps at the stream clock
        anchor = max(self.graph.current_time, records[0].timestamp)
        due = sum(
            holds_an_expired_partial(registration.matcher, anchor)
            for registration in self.queries.values()
        )
        before = partials_expired(self)
        non_idle = sum(not registration.matcher.idle for registration in self.queries.values())
        calls.clear()
        run(self, records, events)
        log.append((len(calls), due, partials_expired(self) - before, non_idle))

    records = sweep_records()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ContinuousQueryMatcher, "expire_partials", counted_expire)
        patch.setattr(StreamWorksEngine, "_run_fast_path", logged_run)
        for start in range(0, len(records), batch):
            engine.process_batch(records[start : start + batch])
        engine.flush()
    return log, engine


def events_of(engine):
    return [(e.query_name, e.match.portable_identity(), e.trigger_index) for e in engine.events()]


@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_a_run_sweeps_exactly_the_matchers_holding_an_expired_partial(feed):
    log, engine = sweep_log(StreamWorksEngine, feed)
    assert [calls for calls, _, _, _ in log] == [due for _, due, _, _ in log]
    swept = sum(due for _, due, _, _ in log)
    storing = sum(non_idle for _, _, _, non_idle in log)
    assert swept > 0
    if feed == "degraded":
        assert engine.reorder.records_late_degraded > 0
        # each late record is a one-record run swept at the stream clock, so
        # a partial is more often due there: over a third still are not
        assert 3 * swept < 2 * storing
    else:
        # most matchers storing a partial have nothing due at a given run
        assert 2 * swept < storing


@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_partials_dropped_per_run_equal_the_every_matcher_sweep(feed):
    log, engine = sweep_log(StreamWorksEngine, feed)
    reference_log, reference = sweep_log(EveryMatcherSweep, feed)
    assert len(log) == len(reference_log)
    assert [entry[2] for entry in log] == [entry[2] for entry in reference_log]
    assert sum(entry[2] for entry in log) > 0
    assert events_of(engine) == events_of(reference) != []
    # every run of the reference swept every query
    assert all(entry[0] == len(sweep_specs()) for entry in reference_log)


def test_the_sweep_pin_fails_against_the_every_non_idle_sweep(monkeypatch):
    """Mutation: restoring the every-non-idle sweep fails the work pin."""
    monkeypatch.setattr(StreamWorksEngine, "expire_all_partials", every_non_idle_sweep)
    log, _ = sweep_log(StreamWorksEngine, "degraded")
    assert any(calls != due for calls, due, _, _ in log)


def test_next_expiry_is_the_earliest_stored_partial_after_restore_and_replan(tmp_path):
    """The due test's input is derived state: restore and replan rebuild it."""
    engine = StreamWorksEngine(config=EngineConfig())
    for name, query, window in sweep_specs():
        engine.register_query(query, name=name, window=window)
    records = sorted(sweep_records(300), key=lambda record: record.timestamp)
    engine.process_batch(records[:150])

    def earliest(matcher):
        stored = [m.earliest for node in matcher.tree.nodes.values() for m in node.all_matches()]
        return min(stored, default=float("inf"))

    path = str(tmp_path / "due.snap")
    engine.checkpoint(path)
    restored = StreamWorksEngine.restore(path)
    engine.replan_all()
    for candidate in (engine, restored):
        matchers = [registration.matcher for registration in candidate.queries.values()]
        assert any(not matcher.idle for matcher in matchers)
        for matcher in matchers:
            assert matcher.next_expiry == earliest(matcher)
    for candidate in (engine, restored):
        candidate.process_batch(records[150:])
    assert events_of(engine)[-5:] == events_of(restored)[-5:]


# ----------------------------------------------------------------------
# the bulk cold gate
# ----------------------------------------------------------------------
IN_BAND = {"proto": "tcp", "port": 80, "bytes": 30}
OUT_OF_BAND = {"proto": "tcp", "port": 80, "bytes": 5000}


def interleaved_records(kinds, start=0.0):
    """One record per kind: ``label`` (nothing binds the label), ``plan``
    (a bound label its route plan rejects) or ``hot`` (in band)."""
    records = []
    for index, kind in enumerate(kinds):
        label = f"noise{index % 3}" if kind == "label" else HOT[index % len(HOT)]
        attrs = {"label": {}, "plan": OUT_OF_BAND, "hot": IN_BAND}[kind]
        records.append(StreamEdge(f"x{index}", f"y{index}", label, start + 0.05 * index, attrs,
                                  source_label="Host", target_label="Host"))
    return records


def band_engine():
    engine = StreamWorksEngine(config=EngineConfig())
    engine.register_query(band_query(0), window=BAND_WINDOW)
    return engine


def test_the_cold_ring_keeps_stream_order_across_label_and_plan_rejections():
    kinds = ["label", "plan", "hot", "plan", "label", "label", "plan", "hot", "label", "plan"] * 2
    records = interleaved_records(kinds)
    # a late run (inside the window, so not dead) and a trimming record
    late = interleaved_records(["plan", "label", "hot", "label"], start=0.6)
    trim = [StreamEdge("m", "n", "noise_end", 1.2, {}, source_label="Host", target_label="Host")]
    batched, per_record = band_engine(), band_engine()
    for feed in (records, late, trim):
        batched.process_batch(feed)
        for record in feed:
            per_record.process_record(record)  # one-record runs: trivially in order
        assert [id(record) for record in batched.cold] == [
            id(record) for record in per_record.cold
        ]
    cold = [record for record, kind in zip(records, kinds) if kind != "hot"]
    cold_late = [record for record in late if record.attrs != IN_BAND]
    # the trim drops what the store drops: timestamp <= now - window
    threshold = 1.2 - BAND_WINDOW
    expected = [r for r in cold + cold_late + trim if r.timestamp > threshold]
    assert [id(record) for record in batched.cold] == [id(record) for record in expected]
    assert batched.records_cold == len(cold) + len(cold_late) + 1
    assert batched.records_prefiltered == per_record.records_prefiltered
    assert batched.dispatch.lookups == per_record.dispatch.lookups == len(records) + 5


def admin_query():
    return (
        QueryBuilder("admin_p").vertex("u", predicate=AttrEquals("role", "admin")).vertex("v")
        .edge("u", "v", "p").build()
    )


class GateProbe:
    """Feeds one unbound-label record per run; reports whether it went cold."""

    def __init__(self):
        self.clock = 0.0

    def __call__(self, engine):
        self.clock += 0.1
        before = engine.records_cold
        engine.process_batch([StreamEdge("g", f"h{self.clock}", "unbound", self.clock)])
        return engine.records_cold == before + 1


def test_the_gate_follows_vertex_checking_queries_run_by_run(tmp_path):
    probe = GateProbe()
    engine = StreamWorksEngine(config=EngineConfig())
    engine.register_query(chain_query("pq", ["p", "q"]), name="pq", window=5.0)
    assert probe(engine)
    engine.register_query(admin_query(), name="admin_p", window=5.0)
    assert not probe(engine)
    engine.replan_query("admin_p")
    assert not probe(engine)
    engine.unregister_query("admin_p")
    assert probe(engine)
    engine.replan_query("pq")
    assert probe(engine)
    path = str(tmp_path / "gate.snap")
    engine.checkpoint(path)
    restored = StreamWorksEngine.restore(path)
    assert probe(restored)
    restored.register_query(admin_query(), name="admin_p", window=5.0)
    assert not probe(restored)
    restored.unregister_query("admin_p")
    assert probe(restored)


def test_the_gate_verdict_is_computed_once_per_index_version(monkeypatch):
    verdicts = []
    checks_vertices = engine_module.checks_vertices

    def counted(registrations):
        verdicts.append(True)
        return checks_vertices(registrations)

    monkeypatch.setattr(engine_module, "checks_vertices", counted)
    probe = GateProbe()
    engine = StreamWorksEngine(config=EngineConfig())
    for name, labels in (("pq", ["p", "q"]), ("rs", ["r", "s"])):
        # (a registration promoting from the ring asks about the new query alone)
        engine.register_query(chain_query(name, labels), name=name, window=5.0)
        registered = len(verdicts)
        assert all(probe(engine) for _ in range(20))
        assert len(verdicts) == registered + 1


# ----------------------------------------------------------------------
# one admission loop: batch admission equals per-record admission
# ----------------------------------------------------------------------
class PerRecordReference(MultiSourceReorderBuffer):
    """The per-record admission the batch loop replaced: each record
    re-derives the raw min-watermark, then tests lateness against every
    active source in displacement space."""

    def _admit(self, records):
        handed_back = []
        for record in records:
            late = self._offer_one(record)
            if late is not None:
                handed_back.append(late)
        return handed_back

    def _raw_reference(self):
        if not self._sources or self._max_seen == _NEG_INF:
            return _NEG_INF
        horizon = float("inf")
        any_active = False
        for state in self._sources.values():
            if self._is_idle(state):
                continue
            any_active = True
            candidate = state.max_seen - state.lateness
            if candidate < horizon:
                horizon = candidate
        return horizon if any_active else _NEG_INF

    def _late_reference(self, timestamp):
        raw = self._raw_reference()
        if raw > self._watermark_floor:
            self._watermark_floor = raw
        late = False
        if self._sources and self._max_seen != _NEG_INF:
            any_active = False
            late = True
            for state in self._sources.values():
                if self._is_idle(state):
                    continue
                any_active = True
                if not state.max_seen - timestamp > state.lateness:
                    late = False
                    break
            late = late and any_active
        if not late and self._watermark_floor > raw and timestamp < self._watermark_floor:
            late = True
        return late

    def _offer_one(self, record):
        key = record.source_id if record.source_id is not None else DEFAULT_SOURCE
        state = self._sources.get(key)
        if state is None:
            state = _SourceState(self._initial_lateness())
            self._sources[key] = state
        self.records_seen += 1
        state.records_seen += 1
        timestamp = record.timestamp
        displacement = self._max_seen - timestamp
        if displacement > self.max_displacement_seen:
            self.max_displacement_seen = displacement
        own_displacement = state.max_seen - timestamp
        if own_displacement < 0.0:
            own_displacement = 0.0
        if own_displacement > state.max_displacement_seen:
            state.max_displacement_seen = own_displacement
        if self.adaptive:
            self._observe_displacement(state, own_displacement)
        late = self._late_reference(timestamp)
        if timestamp > state.max_seen:
            state.max_seen = timestamp
        if late:
            self.records_late += 1
            state.records_late += 1
            if self.late_policy == LatePolicy.PROCESS_DEGRADED:
                self.records_late_degraded += 1
                return record
            self.records_late_dropped += 1
            return None
        if displacement > 0:
            self.records_reordered += 1
        if own_displacement > 0:
            state.records_reordered += 1
        self._pending.append(record)
        if timestamp < self._min_pending:
            self._min_pending = timestamp
        if timestamp > self._max_seen:
            first_data = self._max_seen == _NEG_INF
            self._max_seen = timestamp
            if first_data:
                for other in self._sources.values():
                    if other.baseline == _NEG_INF:
                        other.baseline = timestamp
        return None


class BatchStartClock(MultiSourceReorderBuffer):
    """Mutant: the minimum source clock is read once per batch, so a batch
    is classified against the watermark it started from."""

    _in_batch = False

    @property
    def _min_clock(self):
        return self.__dict__["frozen_clock"]

    @_min_clock.setter
    def _min_clock(self, value):
        if value is None and self._in_batch:
            return  # the holder advanced mid-batch: ignored
        self.__dict__["frozen_clock"] = value

    def _admit(self, records):
        self._in_batch = True
        try:
            return super()._admit(records)
        finally:
            self._in_batch = False
            self._min_clock = None


SOURCE_IDS = [None, "s1", "s2", "s3"]


@st.composite
def admission_cases(draw):
    """A random multi-source arrival sequence, buffer settings and batching."""
    sources = draw(st.lists(st.sampled_from(SOURCE_IDS), min_size=1, max_size=4, unique=True))
    registered = draw(st.lists(st.sampled_from(sources), unique=True))
    settings_ = dict(
        allowed_lateness=draw(st.sampled_from([0.0, 0.25, 1.0, ADAPTIVE_LATENESS])),
        late_policy=draw(st.sampled_from(LatePolicy.ALL)),
        idle_timeout=draw(st.sampled_from([None, None, 0.5, 2.0])),
        adaptive_quantile=draw(st.sampled_from([0.5, 0.9, 1.0])),
        adaptive_sample_cap=draw(st.integers(1, 6)),
        adaptive_refresh=draw(st.integers(1, 4)),
        adaptive_floor=draw(st.sampled_from([0.0, 0.25])),
    )
    # per-source clocks on a quarter grid, so displacements hit the horizon exactly
    clocks = {source: draw(st.integers(0, 8)) for source in sources}
    records = []
    steps = draw(st.lists(
        st.tuples(st.sampled_from(sources), st.integers(0, 4), st.integers(0, 12)),
        min_size=1, max_size=50,
    ))
    for position, (source, advance, back) in enumerate(steps):
        clocks[source] += advance
        timestamp = max(clocks[source] - max(back - 4, 0), 0) * 0.25
        records.append(StreamEdge("a", f"b{position}", "rel", timestamp, source_id=source))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=len(records)))
    drains = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    return registered, settings_, records, sizes, drains


def ids(records):
    return [id(record) for record in records]


def assert_batch_admission_matches(case, buffer_cls):
    registered, settings_, records, sizes, drains = case
    batched, reference = buffer_cls(**settings_), PerRecordReference(**settings_)
    for source in registered:
        batched.register_source(source)
        reference.register_source(source)
    position, index = 0, 0
    while position < len(records):
        size = sizes[index % len(sizes)]
        batch = records[position : position + size]
        if len(batch) == 1:
            handed_back = batched.offer(batch[0])
            late = [] if handed_back is None else [handed_back]
        else:
            late = batched.offer_all(batch)
        expected = [r for r in (reference.offer(record) for record in batch) if r is not None]
        assert ids(late) == ids(expected)
        if drains[index % len(drains)]:
            assert ids(batched.drain_ready()) == ids(reference.drain_ready())
        assert batched.stats() == reference.stats()
        assert batched.state_dict() == reference.state_dict()
        position += size
        index += 1
    assert ids(batched.flush()) == ids(reference.flush())
    assert batched.stats() == reference.stats()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(admission_cases())
def test_batch_admission_equals_per_record_admission(case):
    assert_batch_admission_matches(case, MultiSourceReorderBuffer)


def test_classifying_against_the_batch_start_watermark_fails_the_property():
    """Mutation: a batch classified against the watermark it started from."""
    mutated = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                       report_multiple_bugs=False, suppress_health_check=list(HealthCheck))(
        given(admission_cases())(
            lambda case: assert_batch_admission_matches(case, BatchStartClock)
        )
    )
    with pytest.raises(AssertionError):
        mutated()


def test_a_restored_buffer_admits_as_the_original():
    """The cached minimum clock is derived: a restored buffer recomputes it."""
    records = [StreamEdge("a", f"b{i}", "rel", t, source_id=s)
               for i, (t, s) in enumerate([(1.0, "x"), (0.5, "y"), (2.0, "x"), (1.5, "y"),
                                           (0.9, "x"), (3.0, "y"), (1.0, "y"), (2.9, "x")])]
    original = MultiSourceReorderBuffer(0.5, late_policy=LatePolicy.PROCESS_DEGRADED)
    original.offer_all(records[:4])
    restored = MultiSourceReorderBuffer.from_state(original.state_dict())
    assert ids(original.offer_all(records[4:])) == ids(restored.offer_all(records[4:]))
    assert original.state_dict() == restored.state_dict()
    assert original.records_late > 0
