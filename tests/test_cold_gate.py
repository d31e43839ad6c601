"""The cold gate: records no registered query can bind stay out of the store.

The batched path routes each record before storing it; a record its route
plan leaves no surviving leaf (and that carries no vertex attributes, while
no registered query checks vertex attributes) is *cold*: it only advances
the stream clock and waits in the engine's cold ring.  Events must not
notice, so every test here holds the engine to
:class:`~differential.ExhaustiveReferenceEngine`, which stores, folds and
evicts every record:

* **late registration and resume**: a hypothesis differential registers a
  query at a random cut (promotion from the ring) and checkpoints/restores
  at another (the ring round-trips), with structural dedup off and on;
* **regressions**: a late query completed by partners that were cold when
  they arrived; a vertex check keeping the gate open where a vertex's
  lifetime hangs on otherwise-cold edges; vertex attributes always stored;
* **FO+MOD store-work pin**: ingest, eviction and statistics work equal the
  bindable records exactly, at 0 %, 60 % and 96 % cold, and the intern table
  stays flat as the cold alphabet grows -- and the pin fails against the
  store-everything reference.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from differential import BAND_WINDOW, HOT, ExhaustiveReferenceEngine, band_query, chain_query
from test_sharded_conformance import canonical

from repro.core.decomposition import decompose
from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.query.builder import QueryBuilder
from repro.query.predicates import AttrCompare, AttrEquals, AttrRange
from repro.streaming.edge_stream import StreamEdge

SUPPRESS = [HealthCheck.too_slow]
BATCH = 30


def replay(engine_cls, records, upfront, late=None, register_at=None, restore_at=None,
           snapshot_dir=None, **config):
    """Feed ``records`` in batches; register ``late`` / checkpoint-restore at batch cuts.

    The late query is registered on the statistics-free decomposition.  A
    query registered mid-stream completes a match only through partners its
    leaves' local searches bind: a leaf match over edges that arrived before
    registration is never stored.  So its events depend on its plan, and
    the planner reads statistics that -- by design -- describe only the
    bindable sub-stream here and every record in the reference.  With the
    plan pinned, the store is the only difference left to test.
    """
    engine = engine_cls(config=EngineConfig(**config))
    for name, query, window in upfront:
        engine.register_query(query, name=name, window=window)
    for index, start in enumerate(range(0, len(records), BATCH)):
        if index == register_at:
            name, query, window = late
            engine.register_query(
                query, name=name, window=window, decomposition=decompose(query)
            )
        if index == restore_at:
            path = str(snapshot_dir / f"cut-{index}.snap")
            engine.checkpoint(path)
            engine = StreamWorksEngine.restore(path)
        engine.process_batch(records[start : start + BATCH])
    return engine


# ----------------------------------------------------------------------
# late registration and resume: hypothesis differential
# ----------------------------------------------------------------------
_LABELS = ["rel_a", "rel_b", "noise_x", "noise_y", "noise_z"]


def _vertex_label(vertex):
    # one label per vertex id: the stream contract routing relies on
    return "TypeA" if int(vertex) % 3 else "TypeB"


def _records(seed, count):
    rng = random.Random(seed)
    clock = 0.0
    records = []
    for _ in range(count):
        clock += rng.uniform(0.0, 0.05)
        source, target = str(rng.randrange(16)), str(rng.randrange(16))
        records.append(
            StreamEdge(
                source, target, rng.choice(_LABELS),
                # mild disorder: splits runs and appends behind the ring
                max(0.0, clock + rng.uniform(-0.04, 0.0)),
                attrs={"bytes": rng.randrange(0, 2000)},
                source_label=_vertex_label(source), target_label=_vertex_label(target),
            )
        )
    return records


def _query(rng, name, labels):
    length = rng.randint(1, 3)
    vertex_labels = {position: rng.choice(["TypeA", "TypeB"])
                     for position in range(length + 1) if rng.random() < 0.3}
    query = chain_query(name, [rng.choice(labels) for _ in range(length)], vertex_labels)
    edge = rng.choice(list(query.edges()))
    if rng.random() < 0.5:
        edge.predicate = AttrRange("bytes", low=rng.randrange(0, 1500))
    else:
        edge.predicate = AttrCompare("bytes", rng.choice(["<", ">="]), 1000)
    return name, query, rng.choice([0.25, 0.5, None])


def _scenario(seed):
    rng = random.Random(seed)
    upfront = [_query(rng, f"up{index}", ["rel_a", "rel_b"]) for index in range(2)]
    # the late query may bind labels nothing bound before (promotion), or
    # every label at once (a wildcard)
    late = _query(rng, "late", _LABELS + [None])
    return upfront, late


@pytest.mark.parametrize("dedupe", [False, True], ids=["dedupe_off", "dedupe_on"])
@given(seed=st.integers(0, 10_000), register_at=st.integers(0, 5),
       restore_at=st.integers(1, 5))
@settings(max_examples=25, deadline=None, suppress_health_check=SUPPRESS)
def test_late_registration_and_resume_equal_the_store_everything_reference(
    dedupe, seed, register_at, restore_at, tmp_path_factory
):
    records = _records(seed, 180)
    upfront, late = _scenario(seed + 1)
    cuts = dict(late=late, register_at=register_at, dedupe_structural=dedupe)
    engine = replay(StreamWorksEngine, records, upfront, restore_at=restore_at,
                    snapshot_dir=tmp_path_factory.mktemp("cuts"), **cuts)
    reference = replay(ExhaustiveReferenceEngine, records, upfront, **cuts)
    assert canonical(engine.events()) == canonical(reference.events())


# ----------------------------------------------------------------------
# deterministic regressions
# ----------------------------------------------------------------------
def chain(name, *labels, predicate=None):
    query = chain_query(name, list(labels))
    if predicate is not None:
        for edge in query.edges():
            edge.predicate = predicate
    return query


def test_a_late_query_finds_partners_that_were_cold_when_they_arrived(tmp_path):
    """``pq`` registers after its ``p`` edges arrived; nothing bound them
    then, so they waited in the ring.  Registration promotes them, so the
    ``q`` edges complete matches exactly as in a store-everything engine --
    also across a checkpoint taken while they were still cold."""
    records = [StreamEdge(f"a{i}", f"b{i}", "p", 0.1 * i) for i in range(6)]
    records += [StreamEdge(f"x{i}", f"y{i}", "noise", 0.6 + 0.01 * i) for i in range(4)]
    records += [StreamEdge(f"b{i}", f"c{i}", "q", 1.0 + 0.1 * i) for i in range(6)]
    upfront = [("other", chain("other", "r"), 5.0)]
    late = ("pq", chain("pq", "p", "q"), 2.0)

    def run(engine_cls, **kwargs):
        engine = engine_cls(config=EngineConfig())
        for name, query, window in upfront:
            engine.register_query(query, name=name, window=window)
        engine.process_batch(records[:10])
        if kwargs.get("restore"):
            assert len(engine.cold) == 10  # every record so far is cold
            path = str(tmp_path / "cold.snap")
            engine.checkpoint(path)
            engine = StreamWorksEngine.restore(path)
            assert [r.to_dict() for r in engine.cold] == [r.to_dict() for r in records[:10]]
        name, query, window = late
        engine.register_query(query, name=name, window=window)
        engine.process_batch(records[10:])
        return engine

    reference = run(ExhaustiveReferenceEngine)
    for engine in (run(StreamWorksEngine), run(StreamWorksEngine, restore=True)):
        assert canonical(engine.events()) == canonical(reference.events())
        assert len(engine.events("pq")) == 6
        # promotion took the p edges only; the noise stays cold
        assert [record.label for record in engine.cold] == ["noise"] * 4
        assert engine.records_cold == 10
        assert engine.graph.edges_ingested == 12
        # promotion is not stream work: no counter ticks for it
        assert engine.edges_processed == len(records)
        assert engine.records_batched == len(records)


def test_without_promotion_the_late_query_misses_its_partners(monkeypatch):
    """Mutation: a registration that forgets to promote loses the events."""
    monkeypatch.setattr(StreamWorksEngine, "_promote_cold", lambda self, registration: None)
    engine = StreamWorksEngine(config=EngineConfig())
    engine.process_batch([StreamEdge("a", "b", "p", 0.0)])
    engine.register_query(chain("pq", "p", "q"), name="pq", window=2.0)
    engine.process_batch([StreamEdge("b", "c", "q", 1.0)])
    assert engine.events() == []


def test_replan_does_not_promote():
    engine = StreamWorksEngine(config=EngineConfig())
    engine.register_query(chain("ab", "a", "b"), name="ab", window=5.0)
    engine.process_batch([StreamEdge("x", "y", "z", 0.0), StreamEdge("y", "w", "a", 0.1)])
    engine.replan_query("ab")
    assert [record.label for record in engine.cold] == ["z"]
    assert engine.graph.edge_count() == 1


def admin_query():
    return (
        QueryBuilder("admin_p").vertex("u", predicate=AttrEquals("role", "admin")).vertex("v")
        .edge("u", "v", "p").build()
    )


def vertex_lifetime_records():
    """``v`` gets its attributes from a ``p`` edge; only a ``cold``-labelled
    edge keeps ``v`` alive after that ``p`` edge is evicted; a later ``p``
    edge without attributes must still see them."""
    return [
        [StreamEdge("v", "w", "p", 0.0, source_attrs={"role": "admin"})],
        [StreamEdge("v", "u", "cold", 0.5)],
        [StreamEdge("m", "n", "cold", 1.1)],  # advances the clock: evicts the first p
        [StreamEdge("v", "x", "p", 1.2)],
    ]


@pytest.mark.parametrize("engine_cls", [StreamWorksEngine, ExhaustiveReferenceEngine])
def test_a_vertex_check_keeps_the_gate_open(engine_cls):
    engine = engine_cls(config=EngineConfig())
    engine.register_query(admin_query(), name="admin_p", window=1.0)
    for batch in vertex_lifetime_records():
        engine.process_batch(batch)
    # the second p edge matches: v is still alive, attributes included
    assert [event.match.vertex_map["u"] for event in engine.events()] == ["v", "v"]
    assert engine.records_cold == 0 and not engine.cold


def test_a_vertex_check_registered_late_takes_the_whole_ring():
    engine = StreamWorksEngine(config=EngineConfig())
    engine.register_query(chain("other", "r"), name="other", window=5.0)
    engine.process_batch([StreamEdge("a", "b", "cold", 0.0), StreamEdge("c", "d", "p", 0.1)])
    assert len(engine.cold) == 2
    engine.register_query(admin_query(), name="admin_p", window=5.0)
    assert not engine.cold and engine.graph.edge_count() == 2


def test_a_record_with_vertex_attributes_is_always_stored():
    engine = StreamWorksEngine(config=EngineConfig())
    engine.register_query(chain("pq", "p", "q"), name="pq", window=1.0)
    engine.process_batch([
        StreamEdge("a", "b", "unbound", 0.0, source_attrs={"role": "admin"}),
        StreamEdge("c", "d", "unbound", 0.1, target_attrs={"zone": "dmz"}),
        StreamEdge("e", "f", "unbound", 0.2),
    ])
    assert engine.graph.edge_count() == 2
    assert engine.graph.vertex("a").attrs == {"role": "admin"}
    assert [record.source for record in engine.cold] == ["e"]


def test_the_ring_is_trimmed_with_the_store_even_out_of_order():
    """A late run appends behind newer ring records; the trim still removes
    exactly what a store-everything engine evicts."""
    engine = StreamWorksEngine(config=EngineConfig())
    engine.register_query(chain("pq", "p", "q"), name="pq", window=1.0)
    engine.process_batch([StreamEdge("a", "b", "c1", 2.0), StreamEdge("a", "b", "c2", 2.5)])
    engine.process_batch([StreamEdge("a", "b", "c3", 1.8)])  # late, but not dead
    engine.process_batch([StreamEdge("a", "b", "c4", 3.05)])
    assert [record.label for record in engine.cold] == ["c2", "c4"]
    assert engine.metrics()["ingest_paths"]["cold_retained"] == 2
    assert engine.metrics()["ingest_paths"]["cold"] == 4


# ----------------------------------------------------------------------
# FO+MOD store-work pin: storage work per bindable record, not per record
# ----------------------------------------------------------------------
PIN_BANDS = 4


def store_pin_records(count, cold_share, cold_alphabet, seed=17):
    """Banded stream: ``cold_share`` of it cold (60:36 unbound labels to
    out-of-band hot labels, as on the benchmark), the rest in some band.

    Returns ``(records, bindable)``.  A last cold record far in the future
    evicts everything, so eviction work is complete too.
    """
    rng = random.Random(seed)
    records, bindable = [], 0
    for position in range(count):
        source, target = f"h{rng.randrange(60)}", f"h{rng.randrange(60)}"
        roll = rng.random()
        if roll < cold_share * 0.625:
            label, attrs = f"cold_{rng.randrange(cold_alphabet)}", {"bytes": rng.randrange(2000)}
        elif roll < cold_share:
            label = rng.choice(HOT)
            attrs = {"proto": "tcp", "port": 80, "bytes": PIN_BANDS * 1000 + 500}
        else:
            label = rng.choice(HOT)
            attrs = {"proto": "tcp", "port": 80,
                     "bytes": rng.randrange(PIN_BANDS) * 1000 + rng.randrange(61)}
            bindable += 1
        records.append(StreamEdge(source, target, label, position * 0.01, attrs,
                                  source_label="Host", target_label="Host"))
    records.append(StreamEdge("h0", "h1", "cold_end", count * 0.01 + 10 * BAND_WINDOW,
                              {}, source_label="Host", target_label="Host"))
    return records, bindable


def store_work(engine_cls, records):
    engine = engine_cls(config=EngineConfig())
    for index in range(PIN_BANDS):
        engine.register_query(band_query(index), window=BAND_WINDOW)
    for start in range(0, len(records), 64):
        engine.process_batch(records[start : start + 64])
    graph = engine.graph
    return graph.edges_ingested, graph.edges_evicted, engine.summarizer.edges_observed, engine


@pytest.mark.parametrize("cold_share", [0.0, 0.6, 0.96])
def test_store_work_equals_the_bindable_records(cold_share):
    records, bindable = store_pin_records(1200, cold_share, cold_alphabet=500)
    ingested, evicted, observed, engine = store_work(StreamWorksEngine, records)
    assert ingested == evicted == observed == bindable
    assert engine.records_cold == len(records) - bindable
    # everything aged out but the closing record, which is cold itself
    assert engine.graph.edge_count() == 0 and list(engine.cold) == records[-1:]


def test_the_intern_table_stays_flat_as_the_cold_alphabet_grows():
    sizes, alphabets = [], []
    for alphabet in (100, 1_000, 10_000):
        records, _ = store_pin_records(20_000, 0.96, cold_alphabet=alphabet)
        alphabets.append(len({r.label for r in records if r.label.startswith("cold_")}))
        sizes.append(len(store_work(StreamWorksEngine, records)[3].interning))
    assert alphabets[0] == 101 and alphabets[2] > 5_000  # the stream's alphabet grows ...
    vocabulary = len(store_work(StreamWorksEngine, [])[3].interning)  # registration only
    assert sizes == [vocabulary] * 3  # ... the intern table does not


def test_the_store_work_pin_fails_against_the_store_everything_reference():
    records, bindable = store_pin_records(1200, 0.6, cold_alphabet=500)
    ingested, evicted, observed, _ = store_work(ExhaustiveReferenceEngine, records)
    assert ingested == observed == len(records)
    assert evicted == len(records) - 1  # all but the closing record
    assert min(ingested, evicted, observed) > 2 * bindable
