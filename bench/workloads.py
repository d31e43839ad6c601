"""The benchmark's four workloads: seeded generators, queries and frozen rates.

Inputs are frozen here.  The generators use only ``random.Random(seed)``,
``StreamEdge`` and the ``repro.query`` builder/predicates -- nothing from
``repro.workloads``, ``repro.queries``, ``repro.harness`` or ``tests/`` -- so
a later change to ``src/`` cannot alter the load.  The engine only ever sees
the generated records.

Every record of a stream is ``DT`` stream-seconds after the previous one, so
timestamps are strictly increasing and unique: a matched edge identifies the
record it came from by its timestamp alone.

Degree is a workload property, not a configuration knob: the summarizer's
triad sampling costs time proportional to vertex degree, so each workload
fixes its vertex-population size deliberately (small and hub-heavy for
``cyber_selective``, 20 000 vertices for ``multiquery_banded``) and none
touches ``track_triads`` / ``collect_statistics``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.query.builder import QueryBuilder
from repro.query.predicates import And, AttrCompare, AttrEquals, AttrIn, AttrRange
from repro.query.query_graph import QueryGraph
from repro.streaming.edge_stream import StreamEdge

__all__ = ["DT", "Generated", "Workload", "WORKLOADS", "sized_record_count"]

#: Stream-time spacing of consecutive records (seconds).
DT = 0.001

#: Every query window ends half a tick off the timestamp grid.  With windows
#: *on* the grid, matches whose span equals the window to within float rounding
#: are kept by the batched path (deferred eviction) and dropped by the
#: per-record path (eager eviction): 33 of 21 175 events on ``drift_join`` under
#: ``use_dispatch_index=False``.  That is an engine finding for an engine PR;
#: the benchmark's checks should not hinge on it.
OFF_GRID = DT / 2

#: Share of a pass's batches that only warm the engine up (never timed).
WARMUP_SHARE = 0.1


class Generated(NamedTuple):
    """Everything one seeded generation hands to the passes."""

    #: Records in arrival order (what the load generator offers).
    records: List[StreamEdge]
    #: ``(name, query graph, window)`` in registration order.
    queries: List[Tuple[str, QueryGraph, float]]
    #: ``(query name, timestamps of the planted edges)``; each must be detected.
    planted: List[Tuple[str, Tuple[float, ...]]]
    #: Records planted beyond the lateness horizon (must all be dropped late).
    stragglers: int
    #: In-order, straggler-free form of ``records`` for the reference pass
    #: (``None`` when ``records`` already is that).
    reference: Optional[List[StreamEdge]]


class Workload(NamedTuple):
    """One workload: its generator plus the constants frozen at the seed commit."""

    name: str
    batch_size: int
    #: ``EngineConfig`` fields the input *requires*; everything else stays default.
    config: Dict[str, object]
    #: Collectors to pre-register (multi-source event time only).
    sources: Tuple[str, ...]
    #: Seed-commit closed-loop throughput in this sandbox (records/s, 2 s.f.).
    #: Only sizes the stream from ``--seconds``; never read back at run time.
    sizing_rps: float
    #: Open-loop offered rate: 0.5 x ``sizing_rps``.  Re-frozen only by a
    #: benchmark PR, once utilisation falls below 25 %.
    open_loop_rps: float
    generate: Callable[[int, int], Generated]


def sized_record_count(workload: Workload, seconds: float) -> int:
    """Stream length for a run of ``seconds``: a pure function of frozen constants.

    Half of the run's seconds go to the closed pass's timed phase (the other
    half to the open pass, which replays half the batches at half the rate);
    the warm-up share comes on top.  Rounded up to whole batches; never fewer
    than 8 batches or 2048 records, so a smoke-scale stream still has a
    warm-up batch, an open-pass prefix and a few stragglers.
    """
    timed = workload.sizing_rps * seconds * 0.5
    batches = int(timed / (1.0 - WARMUP_SHARE) / workload.batch_size) + 1
    return max(batches, 8, -(-2048 // workload.batch_size)) * workload.batch_size


class _Planter:
    """Interleave planted instances with background records, causally.

    Every ``plant_every`` positions one instance is scheduled onto free
    positions *ahead* of the current one.  Decisions at a position depend
    only on what the generator drew before it, so a shorter stream is an
    exact prefix of a longer one with the same seed -- which is what lets
    ``disordered_multisource`` be checked against ``multiquery_banded``.
    """

    def __init__(self, rng: random.Random, plant_every: int, max_gap: int):
        self._rng = rng
        self.plant_every = plant_every
        self._max_gap = max_gap
        self._slots: Dict[int, Tuple[int, int]] = {}
        self._emitted: Dict[int, List[float]] = {}
        self._sizes: Dict[int, int] = {}

    def schedule(self, position: int, plant_index: int, edge_count: int) -> None:
        """Reserve positions at or after ``position`` for one instance's edges."""
        position += self._rng.randrange(self.plant_every)
        self._sizes[plant_index] = edge_count
        for edge_index in range(edge_count):
            while position in self._slots:
                position += 1
            self._slots[position] = (plant_index, edge_index)
            position += self._rng.randrange(1, self._max_gap)

    def take(self, position: int, timestamp: float) -> Optional[Tuple[int, int]]:
        """The ``(plant, edge)`` due at ``position``, if any; notes its timestamp."""
        slot = self._slots.pop(position, None)
        if slot is not None:
            self._emitted.setdefault(slot[0], []).append(timestamp)
        return slot

    def complete(self) -> List[Tuple[int, Tuple[float, ...]]]:
        """``(plant, edge timestamps)`` of the instances the stream holds in full."""
        return [
            (plant_index, tuple(timestamps))
            for plant_index, timestamps in sorted(self._emitted.items())
            if len(timestamps) == self._sizes[plant_index]
        ]


# ----------------------------------------------------------------------
# cyber_selective
# ----------------------------------------------------------------------
_CYBER_WINDOW = 2.5 + OFF_GRID
_CYBER_HOSTS = 300
_CYBER_HUBS = 8
_COMMON_PORTS = (80, 443, 22, 53, 25, 8080, 3306, 123)


def _cyber_queries() -> List[Tuple[str, QueryGraph, float]]:
    smurf = (
        QueryBuilder("smurf")
        .vertex("attacker", "IP")
        .vertex("broadcast", "IP")
        .vertex("victim", "IP")
        .vertex("r0", "IP")
        .vertex("r1", "IP")
        .edge("attacker", "broadcast", "icmpRequest")
        .edge("broadcast", "r0", "icmpRequest")
        .edge("broadcast", "r1", "icmpRequest")
        .edge("r0", "victim", "icmpReply")
        .edge("r1", "victim", "icmpReply")
        .build()
    )
    worm = (
        QueryBuilder("worm")
        .vertex("origin", "IP")
        .vertex("hostA", "IP")
        .vertex("hostB", "IP")
        .vertex("hostC", "IP")
        .edge("origin", "hostA", "connectsTo", attrs={"port": 445})
        .edge("origin", "hostC", "connectsTo", attrs={"port": 445})
        .edge("hostA", "hostB", "connectsTo", attrs={"port": 445})
        .build()
    )
    exfil = (
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
    return [
        ("smurf", smurf, _CYBER_WINDOW),
        ("worm", worm, _CYBER_WINDOW),
        ("exfil", exfil, _CYBER_WINDOW),
    ]


def _cyber_plant(
    rng: random.Random, plant_index: int, leaves: List[str], hubs: List[str], users: List[str]
) -> Tuple[str, List[Tuple]]:
    """One attack footprint: ``(query it must trigger, its edges in order)``."""
    kind = ("smurf", "worm", "exfil")[plant_index % 3]
    if kind == "smurf":
        attacker, broadcast, r0, r1, victim = rng.sample(leaves, 5)
        return kind, [
            (attacker, broadcast, "icmpRequest", None, "IP", "IP"),
            (broadcast, r0, "icmpRequest", None, "IP", "IP"),
            (broadcast, r1, "icmpRequest", None, "IP", "IP"),
            (r0, victim, "icmpReply", None, "IP", "IP"),
            (r1, victim, "icmpReply", None, "IP", "IP"),
        ]
    if kind == "worm":
        origin, host_a, host_b, host_c = rng.sample(leaves, 4)
        attrs = {"port": 445, "bytes": 4096, "external": False}
        return kind, [
            (origin, host_a, "connectsTo", attrs, "IP", "IP"),
            (origin, host_c, "connectsTo", attrs, "IP", "IP"),
            (host_a, host_b, "connectsTo", attrs, "IP", "IP"),
        ]
    staging = rng.choice(leaves)
    upload = {"port": 443, "bytes": 1_000_000 + rng.randrange(9_000_000), "external": True}
    return kind, [
        (rng.choice(users), staging, "loginTo", {"success": True}, "User", "IP"),
        (
            staging,
            rng.choice(hubs),
            "connectsTo",
            {"port": 3306, "bytes": 9000, "external": False},
            "IP",
            "IP",
        ),
        (staging, f"203.0.113.{plant_index % 250}", "connectsTo", upload, "IP", "IP"),
    ]


def _generate_cyber(seed: int, record_count: int) -> Generated:
    rng = random.Random(seed)
    hosts = [f"10.0.{index // 50}.{index % 50}" for index in range(_CYBER_HOSTS)]
    # subnet routers and reflectors: a few vertices carry most of the traffic
    hubs = hosts[:_CYBER_HUBS]
    leaves = hosts[_CYBER_HUBS:]
    users = [f"user{index}" for index in range(120)]
    planter = _Planter(rng, plant_every=36, max_gap=30)
    plants: Dict[int, Tuple[str, List[Tuple]]] = {}
    records: List[StreamEdge] = []
    for position in range(record_count):
        timestamp = (position + 1) * DT
        if position % planter.plant_every == 0:
            plant_index = position // planter.plant_every
            plants[plant_index] = _cyber_plant(rng, plant_index, leaves, hubs, users)
            planter.schedule(position, plant_index, len(plants[plant_index][1]))
        slot = planter.take(position, timestamp)
        if slot is not None:
            source, target, label, attrs, source_label, target_label = plants[slot[0]][1][slot[1]]
            records.append(
                StreamEdge(source, target, label, timestamp, attrs, source_label, target_label)
            )
            continue
        roll = rng.random()
        if roll < 0.86:
            source = rng.choice(hosts)
            target = rng.choice(hubs) if rng.random() < 0.4 else rng.choice(hosts)
            if target == source:
                target = hosts[(hosts.index(source) + 1) % _CYBER_HOSTS]
            external = rng.random() < 0.02
            attrs = {
                "port": rng.choice(_COMMON_PORTS),
                # an external flow in the background stays under the upload bar
                "bytes": rng.randrange(200, 60_000),
                "external": external,
            }
            records.append(StreamEdge(source, target, "connectsTo", timestamp, attrs, "IP", "IP"))
        elif roll < 0.92:
            records.append(
                StreamEdge(
                    rng.choice(users),
                    rng.choice(leaves),
                    "loginTo",
                    timestamp,
                    {"success": rng.random() < 0.3},
                    "User",
                    "IP",
                )
            )
        else:
            source, target = rng.sample(leaves, 2)
            label = "icmpRequest" if roll < 0.96 else "icmpReply"
            records.append(StreamEdge(source, target, label, timestamp, None, "IP", "IP"))
    planted = [(plants[plant_index][0], stamps) for plant_index, stamps in planter.complete()]
    return Generated(records, _cyber_queries(), planted, 0, None)


# ----------------------------------------------------------------------
# multiquery_banded (and the stream disordered_multisource re-delivers)
# ----------------------------------------------------------------------
_BAND_QUERIES = 32
_BAND_CHAIN = 4
_BAND_WINDOW = 2.0 + OFF_GRID
_BAND_VERTICES = 20_000
_COLD_ALPHABET = 50_000


def _banded_queries() -> List[Tuple[str, QueryGraph, float]]:
    queries = []
    for index in range(_BAND_QUERIES):
        low = index * 1000
        builder = QueryBuilder(f"band{index}")
        for position in range(_BAND_CHAIN + 1):
            builder.vertex(f"v{position}", "Host")
        for position in range(_BAND_CHAIN):
            builder.edge(
                f"v{position}",
                f"v{position + 1}",
                f"hot_{position}",
                # the band test comes last: a hot record outside every band
                # pays the whole conjunction in each query's compiled check
                predicate=And(
                    [
                        AttrIn("proto", ["tcp", "udp"]),
                        AttrCompare("port", "<=", 1024),
                        AttrRange("bytes", low=low, high=low + 60),
                    ]
                ),
            )
        queries.append((f"band{index}", builder.build(), _BAND_WINDOW))
    return queries


def _generate_banded(seed: int, record_count: int) -> Generated:
    rng = random.Random(seed)
    planter = _Planter(rng, plant_every=100, max_gap=20)
    plants: Dict[int, Tuple[int, List[str]]] = {}
    miss_low = _BAND_QUERIES * 1000 + 500  # above every band
    records: List[StreamEdge] = []
    for position in range(record_count):
        timestamp = (position + 1) * DT
        if position % planter.plant_every == 0:
            plant_index = position // planter.plant_every
            vertices = [f"p{v}" for v in rng.sample(range(_BAND_VERTICES), _BAND_CHAIN + 1)]
            plants[plant_index] = (rng.randrange(_BAND_QUERIES), vertices)
            planter.schedule(position, plant_index, _BAND_CHAIN)
        slot = planter.take(position, timestamp)
        if slot is not None:
            band, vertices = plants[slot[0]]
            edge_index = slot[1]
            records.append(
                StreamEdge(
                    vertices[edge_index],
                    vertices[edge_index + 1],
                    f"hot_{edge_index}",
                    timestamp,
                    {
                        "bytes": band * 1000 + rng.randrange(61),
                        "proto": "tcp",
                        "port": rng.randrange(1, 1025),
                    },
                    "Host",
                    "Host",
                )
            )
            continue
        source = f"p{rng.randrange(_BAND_VERTICES)}"
        target = f"p{rng.randrange(_BAND_VERTICES)}"
        if rng.random() < 0.625:  # 60 % of all records once plants are counted
            records.append(
                StreamEdge(
                    source,
                    target,
                    f"cold_{rng.randrange(_COLD_ALPHABET)}",
                    timestamp,
                    {"bytes": rng.randrange(40, 1500)},
                    "Host",
                    "Host",
                )
            )
        else:
            records.append(
                StreamEdge(
                    source,
                    target,
                    f"hot_{rng.randrange(_BAND_CHAIN)}",
                    timestamp,
                    {
                        "bytes": miss_low + rng.randrange(5000),
                        "proto": "udp" if rng.random() < 0.5 else "tcp",
                        "port": rng.randrange(1, 1025),
                    },
                    "Host",
                    "Host",
                )
            )
    planted = [
        (f"band{plants[plant_index][0]}", stamps) for plant_index, stamps in planter.complete()
    ]
    return Generated(records, _banded_queries(), planted, 0, None)


# ----------------------------------------------------------------------
# drift_join
# ----------------------------------------------------------------------
_DRIFT_VERTICES = 160
_DRIFT_LABELS = ("alpha", "beta", "gamma", "delta")
_DRIFT_BEFORE = (0.52, 0.28, 0.14, 0.06)
_DRIFT_AFTER = (0.06, 0.14, 0.28, 0.52)


def _path_query(name: str, labels: Tuple[str, ...]) -> QueryGraph:
    builder = QueryBuilder(name)
    for position, label in enumerate(labels):
        builder.edge(f"v{position}", f"v{position + 1}", label)
    return builder.build()


def _drift_queries() -> List[Tuple[str, QueryGraph, float]]:
    return [
        ("path2", _path_query("path2", ("alpha", "delta")), 0.4 + OFF_GRID),
        ("path3", _path_query("path3", ("beta", "gamma", "alpha")), 0.5 + OFF_GRID),
        ("path4", _path_query("path4", ("alpha", "beta", "gamma", "delta")), 0.7 + OFF_GRID),
    ]


def _generate_drift(seed: int, record_count: int) -> Generated:
    rng = random.Random(seed)
    drift_at = record_count // 2
    planter = _Planter(rng, plant_every=40, max_gap=12)
    records: List[StreamEdge] = []
    for position in range(record_count):
        timestamp = (position + 1) * DT
        if position % planter.plant_every == 0:
            planter.schedule(position, position // planter.plant_every, 4)
        slot = planter.take(position, timestamp)
        if slot is not None:
            plant_index, edge_index = slot
            # private vertices: a planted path joins nothing but itself
            records.append(
                StreamEdge(
                    f"x{plant_index}_{edge_index}",
                    f"x{plant_index}_{edge_index + 1}",
                    _DRIFT_LABELS[edge_index],
                    timestamp,
                    {"weight": 1.0},
                    "Host",
                    "Host",
                )
            )
            continue
        weights = _DRIFT_BEFORE if position < drift_at else _DRIFT_AFTER
        label = rng.choices(_DRIFT_LABELS, weights=weights, k=1)[0]
        row = rng.randrange(_DRIFT_VERTICES)
        column = rng.randrange(_DRIFT_VERTICES - 1)
        if column >= row:
            column += 1  # no self-loops
        records.append(
            StreamEdge(
                f"v{row}",
                f"v{column}",
                label,
                timestamp,
                {"weight": rng.random()},
                "Host" if row % 2 == 0 else "Server",
                "Host" if column % 2 == 0 else "Server",
            )
        )
    planted = [("path4", stamps) for _, stamps in planter.complete()]
    return Generated(records, _drift_queries(), planted, 0, None)


# ----------------------------------------------------------------------
# disordered_multisource
# ----------------------------------------------------------------------
_SOURCES = ("collector_a", "collector_b", "collector_c")
_SOURCE_WEIGHTS = (0.5, 0.3, 0.2)
#: Constant per-source delivery lag (clock skew), in stream seconds.
_SOURCE_LAG = {"collector_a": 0.0, "collector_b": 0.02, "collector_c": 0.05}
_LATENESS = 0.01
#: Shuffle jitter stays inside the lateness horizon, so nothing in-horizon is late.
_JITTER = 0.008
#: Straggler delay: far past lateness + the largest lag + jitter.
_STRAGGLER_DELAY = 0.15
_STRAGGLER_SHARE = 0.005


def _generate_disordered(seed: int, record_count: int) -> Generated:
    base = _generate_banded(seed, record_count)
    rng = random.Random(seed * 7919 + 13)
    # no straggler in the closing tail: there every collector's clock must
    # already be past it when it arrives, or it would be admitted, not late
    last_straggler_ts = (record_count - 400) * DT
    keyed = []
    reference: List[StreamEdge] = []
    stragglers = 0
    for position, record in enumerate(base.records):
        source = rng.choices(_SOURCES, weights=_SOURCE_WEIGHTS, k=1)[0]
        arrival = record.timestamp + _SOURCE_LAG[source] + rng.random() * _JITTER
        straggler = (
            record.label.startswith("cold_")
            and record.timestamp < last_straggler_ts
            and rng.random() < _STRAGGLER_SHARE / 0.6
        )
        if straggler:
            arrival += _STRAGGLER_DELAY
            stragglers += 1
        else:
            reference.append(record)
        keyed.append((arrival, position, source, record))
    keyed.sort(key=lambda item: item[:2])
    arrivals = [
        StreamEdge(
            record.source,
            record.target,
            record.label,
            record.timestamp,
            record.attrs,
            record.source_label,
            record.target_label,
            source_id=source,
        )
        for _, _, source, record in keyed
    ]
    return Generated(arrivals, base.queries, base.planted, stragglers, reference)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="cyber_selective",
            batch_size=256,
            config={},
            sources=(),
            sizing_rps=6300.0,
            open_loop_rps=2100.0,
            generate=_generate_cyber,
        ),
        Workload(
            name="multiquery_banded",
            batch_size=512,
            config={},
            sources=(),
            sizing_rps=21000.0,
            open_loop_rps=7400.0,
            generate=_generate_banded,
        ),
        Workload(
            name="drift_join",
            batch_size=128,
            config={"replan_threshold": 0.5, "replan_check_every": 1000},
            sources=(),
            sizing_rps=4900.0,
            open_loop_rps=1600.0,
            generate=_generate_drift,
        ),
        Workload(
            name="disordered_multisource",
            batch_size=32,
            config={"allowed_lateness": _LATENESS, "late_policy": "drop"},
            sources=_SOURCES,
            sizing_rps=15000.0,
            open_loop_rps=5800.0,
            generate=_generate_disordered,
        ),
    )
}
