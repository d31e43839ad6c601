"""The window store against a naive reference, and what its eviction costs.

:class:`~repro.graph.dynamic_graph.DynamicGraph` keeps one record per vertex
whose edge slots hold edges in insertion order, with a parallel timestamp
list and a head: in-order eviction advances heads, anything else leaves a
tombstone, and range scans bisect.  This file holds it to

* a reference store kept here -- plain dicts of lists, every removal a list
  removal, every range a filter -- over random mixes of in-order and late
  ingests, window sweeps, out-of-band edge and vertex removals and
  snapshot round trips (with a mutation meta-test: a head that does not
  step over tombstones must fail the property);
* an eviction work pin: on an in-order hub stream, eviction makes no
  tombstone and compacts nothing; with late records, compaction copies at
  most twice the removals (the dead-counter policy it replaced, kept here,
  fails the in-order half); an edge is filed in, and unfiled from, exactly
  two slots (its endpoints');
* the engine-level promise of ``docs/operations.md``: a late degraded record
  makes its slot fall back to the exact walk, events stay equal to the
  exhaustive reference's, and once the record has left the window the
  range scans take the fast path again.
"""

import json
import random

import pytest
from differential import ExhaustiveReferenceEngine
from test_sharded_conformance import canonical

import repro.graph.property_graph as property_graph_module
from repro.core.engine import EngineConfig, StreamWorksEngine
from repro.graph import Direction, DynamicGraph, EdgeNotFoundError, TimeWindow, VertexNotFoundError
from repro.graph.adjacency import EdgeSlot
from repro.query.builder import QueryBuilder
from repro.streaming.edge_stream import StreamEdge

VERTICES = [f"v{index}" for index in range(6)]
EDGE_LABELS = ["p", "q", "r"]
DIRECTIONS = [Direction.OUT, Direction.IN, Direction.BOTH]


def vertex_label(vertex):
    return "A" if int(vertex[1:]) % 2 else "B"


# ----------------------------------------------------------------------
# the reference store
# ----------------------------------------------------------------------
class ReferenceStore:
    """Dicts of lists: what the window store must look like from outside."""

    def __init__(self, window):
        self.window = window
        self.clock = float("-inf")
        self.vertices = {}  # vertex -> label, in creation order
        self.edges = {}  # edge id -> (source, target, label, timestamp), ingest order
        self.slots = {}  # (vertex, direction) -> {label: [edge ids]}, label first-use order
        self.by_label = {}  # label -> [edge ids], ingest order
        # per slot key, whether an append ever went below its predecessor
        # since the slot was created (it dies when the slot empties)
        self.disordered = {}
        self.last_time = {}
        self.pending = []  # (timestamp, id) of every ingested edge
        self.next_id = 0

    def _file(self, key, slots, label, edge_id, timestamp):
        if label not in slots:
            slots[label] = []
            self.disordered[key] = False
        elif timestamp < self.last_time[key]:
            self.disordered[key] = True
        self.last_time[key] = timestamp
        slots[label].append(edge_id)

    def ingest(self, source, target, label, timestamp):
        for vertex in (source, target):
            if vertex not in self.vertices:
                self.vertices[vertex] = vertex_label(vertex)
                self.slots[(vertex, Direction.OUT)] = {}
                self.slots[(vertex, Direction.IN)] = {}
        edge_id = self.next_id
        self.next_id += 1
        self.edges[edge_id] = (source, target, label, timestamp)
        self.by_label.setdefault(label, []).append(edge_id)
        self._file(
            (source, Direction.OUT, label), self.slots[(source, Direction.OUT)], label, edge_id, timestamp
        )
        self._file(
            (target, Direction.IN, label), self.slots[(target, Direction.IN)], label, edge_id, timestamp
        )
        self.pending.append((timestamp, edge_id))
        self.clock = max(self.clock, timestamp)
        return edge_id

    def _unfile(self, key, slots, label, edge_id):
        slots[label].remove(edge_id)
        if not slots[label]:
            del slots[label]
            del self.disordered[key]
            del self.last_time[key]

    def remove_edge(self, edge_id, drop_isolated=False):
        source, target, label, _ = self.edges.pop(edge_id)
        self.by_label[label].remove(edge_id)
        if not self.by_label[label]:
            del self.by_label[label]
        self._unfile((source, Direction.OUT, label), self.slots[(source, Direction.OUT)], label, edge_id)
        self._unfile((target, Direction.IN, label), self.slots[(target, Direction.IN)], label, edge_id)
        if drop_isolated:
            for vertex in (source, target):
                if vertex in self.vertices and self.degree(vertex) == 0:
                    self._drop_vertex(vertex)

    def remove_vertex(self, vertex):
        for edge_id in [e for e in self.edges if vertex in self.edges[e][:2]]:
            self.remove_edge(edge_id)
        self._drop_vertex(vertex)

    def _drop_vertex(self, vertex):
        del self.vertices[vertex]
        del self.slots[(vertex, Direction.OUT)]
        del self.slots[(vertex, Direction.IN)]

    def evict(self):
        if self.window.duration == float("inf"):
            return []
        threshold = self.clock - self.window.duration
        due = sorted(
            (timestamp, edge_id)
            for timestamp, edge_id in self.pending
            if timestamp <= threshold
        )
        self.pending = [entry for entry in self.pending if entry not in set(due)]
        evicted = [edge_id for _, edge_id in due if edge_id in self.edges]
        for edge_id in evicted:
            self.remove_edge(edge_id, drop_isolated=True)
        return evicted

    # -- reads ----------------------------------------------------------
    def slot(self, vertex, direction, label):
        return self.slots.get((vertex, direction), {}).get(label, [])

    def incident(self, vertex, direction, label):
        if vertex not in self.vertices:
            return []
        directions = [Direction.OUT, Direction.IN] if direction == Direction.BOTH else [direction]
        found = []
        for d in directions:
            slots = self.slots[(vertex, d)]
            for slot_label in slots if label is None else [label]:
                found.extend(slots.get(slot_label, []))
        return found

    def in_range(self, ids, low, high):
        return [e for e in ids if low <= self.edges[e][3] <= high]

    def sorted_live(self, ids):
        times = [self.edges[e][3] for e in ids]
        return all(a <= b for a, b in zip(times, times[1:]))

    def degree(self, vertex, direction=Direction.BOTH):
        if direction == Direction.BOTH:
            return self.degree(vertex, Direction.OUT) + self.degree(vertex, Direction.IN)
        return sum(map(len, self.slots.get((vertex, direction), {}).values()))

    def label_order(self):
        return [
            (vertex, direction, list(self.slots[(vertex, direction)]))
            for vertex in self.vertices
            for direction in (Direction.OUT, Direction.IN)
            if len(self.slots[(vertex, direction)]) > 1
        ]


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def ids(edges):
    return None if edges is None else [edge.id for edge in edges]


def every_slot(graph):
    for record in graph.graph._vertices.values():
        yield from record.out.values()
        yield from record.in_.values()


def assert_slot_invariants(slot):
    """The head sits on a live entry; tombstones and the consumed prefix stay bounded."""
    entries = len(slot.edges)
    assert len(slot) > 0, "an empty slot is deleted"
    assert len(slot.times) == entries
    assert slot.edges[slot.head] is not None, "the head must step over tombstones"
    assert all(edge is None for edge in slot.edges[: slot.head])
    assert slot.dead == slot.edges[slot.head :].count(None)
    assert slot.head * 2 <= entries and slot.dead * 2 <= entries - slot.head


def range_agrees(found, expected_ids, clean, live_sorted, low, high, reference):
    """A range scan is exact, or ``None``; ``None`` only if the slot ever went out of order."""
    if found is None:
        assert not clean, "an in-order slot must answer range scans"
        return
    assert live_sorted, "an unsorted slot must fall back"
    assert found == reference.in_range(expected_ids, low, high)


def assert_store_matches(graph, reference, rng):
    store = graph.graph
    assert list(store.vertex_ids()) == list(reference.vertices)
    assert list(store.edge_ids()) == list(reference.edges)
    # the compiled probes read a stored edge's endpoints with no
    # missing-vertex path: every stored edge's endpoints must be stored
    for edge in store.edges():
        assert store.has_vertex(edge.source) and store.has_vertex(edge.target), edge
    assert store.edge_labels() == set(reference.by_label)
    for label in EDGE_LABELS:
        expected = reference.by_label.get(label, [])
        assert ids(store.edges(label)) == expected
        assert store.edge_count(label) == len(expected)
    clock = reference.clock if reference.clock != float("-inf") else 0.0
    bounds = [(clock - 3.0, clock), (clock - rng.choice([1.0, 2.5, 6.0]), clock + 1.0)]
    for label in EDGE_LABELS:
        for low, high in bounds:
            # derived from the edges, not a slot: exact on any ingest order
            assert ids(store.edges_in_range(label, low, high)) == reference.in_range(
                reference.by_label.get(label, []), low, high
            )
    for vertex in VERTICES:
        assert store.degree(vertex) == reference.degree(vertex)
        assert store.out_degree(vertex) == reference.degree(vertex, Direction.OUT)
        assert store.in_degree(vertex) == reference.degree(vertex, Direction.IN)
        for direction in DIRECTIONS:
            for label in [None] + EDGE_LABELS:
                assert ids(store.incident_edges(vertex, direction, label)) == reference.incident(
                    vertex, direction, label
                )
        for label in EDGE_LABELS:
            parts = [Direction.OUT, Direction.IN]
            clean = all(not reference.disordered.get((vertex, d, label), False) for d in parts)
            live_sorted = all(
                reference.sorted_live(reference.slot(vertex, d, label)) for d in parts
            )
            for low, high in bounds:
                for direction in parts:
                    range_agrees(
                        ids(store.incident_edges_in_range(vertex, direction, label, low, high)),
                        reference.slot(vertex, direction, label),
                        not reference.disordered.get((vertex, direction, label), False),
                        reference.sorted_live(reference.slot(vertex, direction, label)),
                        low, high, reference,
                    )
                both = ids(store.incident_edges_in_range(vertex, Direction.BOTH, label, low, high))
                loops_once = reference.slot(vertex, Direction.OUT, label) + [
                    e for e in reference.slot(vertex, Direction.IN, label)
                    if reference.edges[e][0] != vertex
                ]
                range_agrees(both, loops_once, clean, live_sorted, low, high, reference)
    assert [tuple(entry) for entry in store.state_dict()["adjacency_label_order"]] == (
        reference.label_order()
    )
    for slot in every_slot(graph):
        assert_slot_invariants(slot)


def run_store_case(seed, steps=60):
    """Drive the store and the reference with one random operation mix."""
    rng = random.Random(seed)
    window = TimeWindow(rng.choice([3.0, 4.0, 6.0]))
    graph = DynamicGraph(window=window)
    reference = ReferenceStore(window)
    late_share = rng.choice([0.0, 0.15, 0.4])
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55:
            source, target = rng.choice(VERTICES), rng.choice(VERTICES)
            label = rng.choice(EDGE_LABELS)
            clock = reference.clock if reference.clock != float("-inf") else 0.0
            if rng.random() < late_share:
                timestamp = clock - rng.choice([0.5, 1.0, 2.0, 4.0, 7.0])
            else:
                timestamp = clock + rng.choice([0.0, 0.0, 0.5, 1.0])
            edge = graph.ingest(
                source, target, label, timestamp,
                source_label=vertex_label(source), target_label=vertex_label(target),
                evict=False,
            )
            assert edge.id == reference.ingest(source, target, label, timestamp)
        elif roll < 0.75:
            # (timestamp, ingest) order, edges removed out of band skipped
            assert ids(graph.evict_expired()) == reference.evict()
        elif roll < 0.85 and reference.next_id:
            edge_id = rng.randrange(reference.next_id)  # removed ones too
            if edge_id in reference.edges:
                graph.graph.remove_edge(edge_id)
                reference.remove_edge(edge_id)
            else:
                with pytest.raises(EdgeNotFoundError):
                    graph.graph.remove_edge(edge_id)
        elif roll < 0.9:
            vertex = rng.choice(VERTICES)
            if vertex in reference.vertices:
                graph.graph.remove_vertex(vertex)
                reference.remove_vertex(vertex)
            else:
                with pytest.raises(VertexNotFoundError):
                    graph.graph.remove_vertex(vertex)
        else:
            graph = DynamicGraph.from_state(json.loads(json.dumps(graph.state_dict())))
            # a restore rebuilds every slot by replay: history-only disorder is gone
            for key, slot_ids in list(_reference_slots(reference)):
                times = [reference.edges[e][3] for e in slot_ids]
                reference.disordered[key] = any(a > b for a, b in zip(times, times[1:]))
                reference.last_time[key] = times[-1]
        assert_store_matches(graph, reference, rng)


def _reference_slots(reference):
    for (vertex, direction), slots in reference.slots.items():
        for label, slot_ids in slots.items():
            yield (vertex, direction, label), slot_ids


SEEDS = range(120)


@pytest.mark.parametrize("chunk", range(4))
def test_the_store_equals_the_reference_after_every_step(chunk):
    for seed in SEEDS[chunk::4]:
        run_store_case(seed)


def test_remove_edge_twice_leaves_the_store_as_it_was():
    graph = DynamicGraph(window=TimeWindow(5.0))
    first = graph.ingest("a", "b", "p", 1.0)
    graph.ingest("b", "a", "p", 2.0)
    graph.graph.remove_edge(first.id)
    before = graph.state_dict()
    with pytest.raises(EdgeNotFoundError):
        graph.graph.remove_edge(first.id)
    assert graph.state_dict() == before
    # the sweep skips the edge removed out of band
    graph.ingest("c", "d", "p", 10.0, evict=False)
    assert [edge.id for edge in graph.evict_expired()] == [1]
    assert graph.edges_evicted == 1


class NoSkipSlot(EdgeSlot):
    """Mutation: the head advances one entry and stops on a tombstone."""

    def remove(self, edge):
        edges = self.edges
        head = self.head
        if edges[head] is edge:
            edges[head] = None
            self.head = head + 1
        else:
            edges[self._index(edge)] = None
            self.dead += 1
            if self.dead * 2 > len(edges) - self.head:
                self._compact()
        return len(edges) - self.head - self.dead


def test_a_head_that_stops_on_tombstones_fails_the_property(monkeypatch):
    monkeypatch.setattr(property_graph_module, "EdgeSlot", NoSkipSlot)
    failures = 0
    for seed in SEEDS:
        try:
            run_store_case(seed)
        except (AssertionError, IndexError, ValueError):
            failures += 1
    assert failures > 0


# ----------------------------------------------------------------------
# eviction work pin
# ----------------------------------------------------------------------
class DeadCounterSlot(EdgeSlot):
    """The policy this store replaced: every removal is a dead mark, and the
    entries are rebuilt once the dead exceed half of them."""

    def remove(self, edge):
        self.edges[self._index(edge)] = None
        self.dead += 1
        if self.dead * 2 > len(self.edges) - self.head:
            self._compact()
        return len(self)


class EvictionWork:
    """Tombstones made and entries copied by slot removals."""

    def __init__(self, monkeypatch, slot_class):
        self.removals = self.tombstones = self.copied = 0
        original = slot_class.remove
        work = self

        def counted(slot, edge):
            entries, dead = slot.edges, slot.dead
            left = original(slot, edge)
            work.removals += 1
            if slot.edges is not entries:
                work.copied += len(slot.edges)
                work.tombstones += 1
            elif slot.dead > dead:
                work.tombstones += 1
            return left

        monkeypatch.setattr(slot_class, "remove", counted)
        monkeypatch.setattr(property_graph_module, "EdgeSlot", slot_class)


def hub_stream(graph, count, late_every=None):
    """Spokes into and out of one hub, one per tick; every ``late_every``-th is late."""
    for index in range(count):
        timestamp = float(index)
        if late_every and index % late_every == late_every - 1:
            timestamp -= 3.0
        graph.ingest(f"s{index % 40}", "hub", "in", timestamp, evict=False)
        graph.ingest("hub", f"t{index % 40}", "out", timestamp, evict=False)
        graph.evict_expired()
    return graph


def eviction_work(monkeypatch, slot_class=EdgeSlot, late_every=None, count=3000):
    work = EvictionWork(monkeypatch, slot_class)
    graph = hub_stream(DynamicGraph(window=TimeWindow(50.0)), count, late_every)
    assert graph.edges_evicted > 0.9 * 2 * count - 200
    # entries held (consumed prefix and tombstones included) per live edge
    held = max(len(slot.edges) / len(slot) for slot in every_slot(graph))
    return work, held


def test_in_order_eviction_makes_no_tombstone_and_copies_nothing(monkeypatch):
    work, held = eviction_work(monkeypatch)
    assert work.removals > 2 * 5000
    assert work.tombstones == work.copied == 0
    # the consumed prefix is released: a slot holds at most twice its live edges
    assert held <= 2


def test_with_late_records_compaction_copies_at_most_twice_the_removals(monkeypatch):
    work, _ = eviction_work(monkeypatch, late_every=7)
    assert work.tombstones > 0
    assert work.copied <= 2 * work.removals


def test_the_dead_counter_policy_fails_the_in_order_pin(monkeypatch):
    work, _ = eviction_work(monkeypatch, DeadCounterSlot)
    assert work.tombstones == work.removals and work.copied > work.removals // 4


def test_an_in_order_edge_is_filed_in_two_slots_and_unfiled_from_two(monkeypatch):
    """Only the endpoints' slots hold an edge: its source's out-slot and its
    target's in-slot.  The store keeps no per-label slot, so an in-order
    edge costs exactly two slot appends to store and two slot removals to
    evict (three each while a label slot was kept)."""
    calls = {"append": 0, "remove": 0}
    for name in calls:
        original = getattr(EdgeSlot, name)

        def counted(slot, edge, original=original, name=name):
            calls[name] += 1
            return original(slot, edge)

        monkeypatch.setattr(EdgeSlot, name, counted)
    graph = hub_stream(DynamicGraph(window=TimeWindow(50.0)), 1000)
    assert graph.edges_ingested == 2000 and graph.edges_evicted > 1800
    assert calls["append"] == 2 * graph.edges_ingested
    assert calls["remove"] == 2 * graph.edges_evicted


# ----------------------------------------------------------------------
# a late record's slot falls back, then recovers
# ----------------------------------------------------------------------
WINDOW = 4.0


def edge(source, target, label, timestamp):
    labels = {"hub": "Hub"}
    return StreamEdge(
        source, target, label, timestamp,
        source_label=labels.get(source, "Host"), target_label=labels.get(target, "Host"),
    )


def hub_records(start, stop):
    """Spokes in and out of one hub, one pair per tick."""
    records = []
    for tick in range(start, stop):
        records.append(edge(f"s{tick}", "hub", "in", float(tick)))
        records.append(edge("hub", f"t{tick}", "out", tick + 0.5))
    return records


def through_hub_engine(engine_class):
    engine = engine_class(config=EngineConfig())
    query = (
        QueryBuilder("through")
        .vertex("a", "Host").vertex("h", "Hub").vertex("c", "Host")
        .edge("a", "h", "in").edge("h", "c", "out")
        .build()
    )
    engine.register_query(query, name="through", window=WINDOW)
    return engine


def scan_counts(engine):
    columnar = engine.metrics()["columnar"]
    return columnar["range_scans"], columnar["range_scan_fallbacks"]


def test_a_late_record_falls_back_then_the_slot_recovers():
    engine = through_hub_engine(StreamWorksEngine)
    reference = through_hub_engine(ExhaustiveReferenceEngine)
    late = edge("late", "hub", "in", 7.25)  # behind the stream clock (9.5)
    feed = [hub_records(tick, tick + 1) for tick in range(10)]
    feed += [[late]] + [hub_records(tick, tick + 1) for tick in range(10, 30)]
    readings = []
    for records in feed:
        for part in (engine, reference):
            part.process_batch(records)
        readings.append(scan_counts(engine))
    by_tick = readings[:10] + readings[11:]
    assert by_tick[9] == (20, 0)  # two fast scans per tick
    # the late record unsorted the hub's in slot: the out edge of every
    # tick searches it, and walks it
    assert [fallbacks for _, fallbacks in by_tick[10:14]] == [1, 2, 3, 4]
    # t = 7.25 left the window at clock 11.25 (a tombstone); the head passed
    # it when s9 (t = 9) left at clock 13: from tick 14 on every scan is fast
    assert all(fallbacks == 4 for _, fallbacks in by_tick[14:])
    assert [scans for scans, _ in by_tick[14:]] == list(range(27, 59, 2))
    assert engine.records_batched == 61  # the late record ran too
    assert canonical(engine.events()) == canonical(reference.events())
    assert len(engine.events()) > 10
