"""Cyber-attack pattern injectors (the events the Fig. 3 queries look for).

Each injector emits the edge-level footprint of a named attack into an edge
stream at a chosen time, so that benchmarks can plant a known number of
events and check that the registered queries detect exactly those (plus
whatever the background traffic coincidentally forms).  The shapes follow
the paper's examples:

* **Smurf DDoS** -- an attacker sends ICMP echo requests to a broadcast
  address spoofing the victim; many hosts of the amplifying subnet then
  reply to the victim simultaneously (the Fig. 6/7 cascading scenario).
* **Worm propagation** -- an infected host connects to several peers, each of
  which soon connects onward to further hosts (two-hop fan-out).
* **Port scan** -- one source probes many distinct ports on one target in a
  short burst.
* **Data exfiltration** -- a host logs in from a new user, pulls data from an
  internal server and pushes a large upload to an external host.

The injectors only *emit edges*; combining them with background traffic is
done with :func:`repro.streaming.edge_stream.merge_streams`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..streaming.edge_stream import EdgeStream, StreamEdge
from .netflow import NetflowGenerator

__all__ = ["AttackInjector", "SmurfCascadePlan", "high_cardinality_flood"]


def high_cardinality_flood(
    count: int,
    seed: int = 41,
    signal_every: Optional[int] = None,
    start_time: float = 0.0,
    spacing: float = 0.001,
) -> List[StreamEdge]:
    """Adversarial stream: (almost) every record carries a brand-new label.

    The attacker's cheapest way to defeat a membership cache is cardinality:
    endless distinct edge labels blow up any per-key state the engine keeps.
    Every flood record here uses a fresh label and fresh endpoint vertices,
    so each one is (a) a guaranteed dispatch-index miss -- the workload the
    label gate in front of routing must turn away -- and (b) a distinct key
    in any per-label statistics structure.

    ``signal_every`` interleaves one matchable record (fixed ``signal``
    label over a small host pool) every N records, keeping registered
    queries matching in the flood so bounded-memory tests can assert recall
    *while* under attack.
    """
    rng = random.Random(seed)
    records: List[StreamEdge] = []
    for index in range(count):
        timestamp = start_time + index * spacing
        if signal_every and index % signal_every == 0:
            records.append(
                StreamEdge(
                    f"S{rng.randrange(4)}",
                    f"T{rng.randrange(4)}",
                    "signal",
                    timestamp,
                    None,
                    "Host",
                    "Host",
                )
            )
        else:
            records.append(
                StreamEdge(
                    f"n{index}",
                    f"m{index}",
                    f"flood{index}",
                    timestamp,
                    None,
                    "Noise",
                    "Noise",
                )
            )
    return records


class SmurfCascadePlan:
    """Description of a multi-subnet Smurf DDoS cascade (experiment E4)."""

    def __init__(self, victim: str, subnet_order: List[int], start_times: List[float]):
        self.victim = victim
        self.subnet_order = subnet_order
        self.start_times = start_times

    def to_dict(self) -> Dict[str, object]:
        """Serialise for experiment reports."""
        return {
            "victim": self.victim,
            "subnet_order": list(self.subnet_order),
            "start_times": list(self.start_times),
        }


class AttackInjector:
    """Emit attack footprints against the host population of a :class:`NetflowGenerator`."""

    def __init__(self, generator: NetflowGenerator, seed: int = 23):
        self.generator = generator
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # individual attacks
    # ------------------------------------------------------------------
    def smurf_ddos(
        self,
        start_time: float,
        victim: Optional[str] = None,
        subnet: Optional[int] = None,
        reflector_count: int = 6,
        reply_spacing: float = 0.02,
    ) -> EdgeStream:
        """Return the edges of one Smurf DDoS burst.

        Footprint (the classic Smurf mechanics): the attacker sends an ICMP
        echo request to the subnet's broadcast address spoofing the victim
        (``attacker -[icmpRequest]-> broadcast``); the broadcast fans the
        request out to the subnet hosts (``broadcast -[icmpRequest]->
        reflector``); each reflector then replies to the spoofed source
        (``reflector -[icmpReply]-> victim``) within a tight time window.
        """
        hosts = self.generator.hosts
        victim = victim or self._rng.choice(hosts)
        if subnet is None:
            subnet = self._rng.randrange(self.generator.config.subnet_count)
        reflectors = [host for host in hosts if self.generator.subnet(host) == subnet and host != victim]
        if len(reflectors) < reflector_count:
            reflector_count = max(1, len(reflectors))
        chosen = self._rng.sample(reflectors, reflector_count)
        attacker = self._rng.choice([host for host in hosts if host != victim])
        broadcast = f"10.0.{subnet}.255"
        records = [
            StreamEdge(
                attacker,
                broadcast,
                "icmpRequest",
                start_time,
                {"spoofed_source": victim},
                source_label="IP",
                target_label="IP",
            )
        ]
        timestamp = start_time
        for reflector in chosen:
            timestamp += reply_spacing
            records.append(
                StreamEdge(
                    broadcast,
                    reflector,
                    "icmpRequest",
                    timestamp,
                    {"forwarded": True},
                    source_label="IP",
                    target_label="IP",
                )
            )
            records.append(
                StreamEdge(
                    reflector,
                    victim,
                    "icmpReply",
                    timestamp + reply_spacing / 2,
                    {"protocol": "icmp"},
                    source_label="IP",
                    target_label="IP",
                )
            )
        return EdgeStream(records, name=f"smurf@{start_time}")

    def smurf_cascade(
        self,
        start_time: float,
        subnet_count: Optional[int] = None,
        stage_gap: float = 5.0,
        reflector_count: int = 6,
        victim: Optional[str] = None,
    ) -> (EdgeStream, SmurfCascadePlan):
        """Return a cascade of Smurf bursts marching across subnets (Fig. 6).

        The same victim is hit from subnet 0, then subnet 1 after
        ``stage_gap`` seconds, and so on -- the "cascading effect of a Smurf
        DDoS attack across subnetworks" the grid view of the demo shows.
        """
        total_subnets = self.generator.config.subnet_count
        if subnet_count is None or subnet_count > total_subnets:
            subnet_count = total_subnets
        victim = victim or self._rng.choice(self.generator.hosts)
        streams = []
        order: List[int] = []
        starts: List[float] = []
        for stage in range(subnet_count):
            stage_start = start_time + stage * stage_gap
            streams.append(
                self.smurf_ddos(
                    stage_start,
                    victim=victim,
                    subnet=stage,
                    reflector_count=reflector_count,
                )
            )
            order.append(stage)
            starts.append(stage_start)
        combined: List[StreamEdge] = []
        for stream in streams:
            combined.extend(stream)
        plan = SmurfCascadePlan(victim=victim, subnet_order=order, start_times=starts)
        return EdgeStream(sorted(combined, key=lambda e: e.timestamp), name="smurf_cascade"), plan

    def worm_propagation(
        self,
        start_time: float,
        fan_out: int = 3,
        hop_gap: float = 1.0,
        origin: Optional[str] = None,
    ) -> EdgeStream:
        """Return a two-hop worm spread: origin infects ``fan_out`` hosts, each infects one more."""
        hosts = self.generator.hosts
        origin = origin or self._rng.choice(hosts)
        others = [host for host in hosts if host != origin]
        first_hop = self._rng.sample(others, min(fan_out, len(others)))
        records: List[StreamEdge] = []
        timestamp = start_time
        for victim in first_hop:
            timestamp += 0.05
            records.append(
                StreamEdge(
                    origin,
                    victim,
                    "connectsTo",
                    timestamp,
                    {"protocol": "tcp", "port": 445, "worm": True},
                    source_label="IP",
                    target_label="IP",
                )
            )
        for victim in first_hop:
            next_targets = [host for host in hosts if host not in (origin, victim)]
            second = self._rng.choice(next_targets)
            records.append(
                StreamEdge(
                    victim,
                    second,
                    "connectsTo",
                    timestamp + hop_gap + self._rng.random() * 0.5,
                    {"protocol": "tcp", "port": 445, "worm": True},
                    source_label="IP",
                    target_label="IP",
                )
            )
        return EdgeStream(sorted(records, key=lambda e: e.timestamp), name=f"worm@{start_time}")

    def port_scan(
        self,
        start_time: float,
        port_count: int = 10,
        scanner: Optional[str] = None,
        target: Optional[str] = None,
        spacing: float = 0.01,
    ) -> EdgeStream:
        """Return a burst of connections from one scanner to many ports of one target."""
        hosts = self.generator.hosts
        scanner = scanner or self._rng.choice(hosts)
        target = target or self._rng.choice([host for host in hosts if host != scanner])
        records = []
        timestamp = start_time
        for index in range(port_count):
            timestamp += spacing
            records.append(
                StreamEdge(
                    scanner,
                    target,
                    "connectsTo",
                    timestamp,
                    {"protocol": "tcp", "port": 1000 + index, "syn_only": True},
                    source_label="IP",
                    target_label="IP",
                )
            )
        return EdgeStream(records, name=f"scan@{start_time}")

    def data_exfiltration(
        self,
        start_time: float,
        internal_server: Optional[str] = None,
        staging_host: Optional[str] = None,
        external_host: str = "203.0.113.99",
        user: Optional[str] = None,
    ) -> EdgeStream:
        """Return the login -> internal pull -> external push footprint of an exfiltration."""
        hosts = self.generator.hosts
        internal_server = internal_server or self._rng.choice(self.generator.servers)
        staging_host = staging_host or self._rng.choice(
            [host for host in hosts if host != internal_server]
        )
        user = user or self._rng.choice(self.generator.users)
        records = [
            StreamEdge(
                user,
                staging_host,
                "loginTo",
                start_time,
                {"success": True, "new_source": True},
                source_label="User",
                target_label="IP",
            ),
            StreamEdge(
                staging_host,
                internal_server,
                "connectsTo",
                start_time + 1.0,
                {"protocol": "tcp", "port": 445, "bytes": 5_000_000},
                source_label="IP",
                target_label="IP",
            ),
            StreamEdge(
                staging_host,
                external_host,
                "connectsTo",
                start_time + 2.5,
                {"protocol": "tcp", "port": 443, "bytes": 8_000_000, "external": True},
                source_label="IP",
                target_label="IP",
            ),
        ]
        return EdgeStream(records, name=f"exfil@{start_time}")
