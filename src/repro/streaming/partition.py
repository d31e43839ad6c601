"""Query-shard partitioning and stream routing for the sharded engine.

Query sharding is the classic correct-by-construction parallelisation for
standing-query streams: the *queries* are partitioned across N shards, each
shard runs a full engine over (a filtered view of) the same stream, and the
per-shard results are merged.  Because every shard sees every record its own
queries could possibly bind, no shard ever needs another shard's state.

This module holds the stream-layer half of that design, kept free of any
dependency on :mod:`repro.core` so the layering stays acyclic:

* :func:`greedy_partition` -- longest-processing-time assignment of query
  costs to shards (the classic 4/3-approximation to makespan balancing);
* :class:`LabelShardMap` -- the merged edge-label -> shard-set routing table
  built from every registered query's label signature;
* :class:`BatchRouter` -- fans a batch of :class:`StreamEdge` records out to
  the shards whose queries can bind them, tagging each record with its
  global stream index so per-shard match events can be merged back into the
  exact single-engine order.

Routing is *necessary-condition* filtering, like the per-engine dispatch
index one layer down: a shard is skipped only when none of its queries could
possibly bind the record, so filtering can never change the match set.  Two
conservative rules keep that guarantee:

* a query containing a wildcard (``label=None``) query edge forces its shard
  onto every record;
* in ``labels`` mode, a record carrying vertex attributes
  (``source_attrs`` / ``target_attrs``) is broadcast to every shard, because
  vertex attributes are shared mutable state that any query's predicates may
  later read.  ``broadcast`` mode sends every record to every shard (each
  shard then holds the full graph), which is the unconditionally safe mode
  for workloads whose vertex-attribute state is written by records outside
  the registered queries' label sets.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from .edge_stream import StreamEdge

if TYPE_CHECKING:
    from ..query.query_graph import QueryGraph

__all__ = [
    "Routing",
    "ShardBatch",
    "least_loaded_shard",
    "greedy_partition",
    "LabelShardMap",
    "BatchRouter",
]


class ShardBatch:
    """One shard's slice of a routed parent batch, with its time metadata.

    ``entries`` are ``(global stream index, record)`` pairs in global order
    (the index lets per-shard match events merge back into the exact
    single-engine order).  ``run_clock`` has one slot per entry: the global
    stream clock when the entry's ordered run of the parent batch began
    (the largest timestamp offered before it; ``-inf`` on an empty stream).
    ``end_clock`` is the global stream clock after the whole batch.  A
    shard's own clock only sees its own records, so these two are the
    global time it cannot derive.  ``replan_checks`` is how many
    selectivity-drift replan checks the parent's global cadence says are
    due after this sub-batch -- the parent decides *when*, the shard engine
    applies them (opaque to the stream layer).
    """

    __slots__ = ("shard_id", "entries", "run_clock", "end_clock", "replan_checks")

    def __init__(
        self,
        shard_id: int,
        entries: List[Tuple[int, StreamEdge]],
        run_clock: List[float],
        end_clock: float,
        replan_checks: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.entries = entries
        self.run_clock = run_clock
        self.end_clock = end_clock
        self.replan_checks = replan_checks

    def records(self) -> List[StreamEdge]:
        """Return the batch's records without their global indices."""
        return [record for _, record in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardBatch(shard={self.shard_id}, records={len(self.entries)})"


class Routing:
    """Routing mode names for :class:`BatchRouter`."""

    LABELS = "labels"
    BROADCAST = "broadcast"

    ALL = (LABELS, BROADCAST)


def least_loaded_shard(loads: Sequence[float]) -> int:
    """Return the index of the least-loaded shard (lowest index on ties).

    The single greedy step shared by online assignment (queries registered
    one at a time take the currently lightest shard) and the offline
    :func:`greedy_partition`.
    """
    return min(range(len(loads)), key=lambda index: (loads[index], index))


def greedy_partition(
    costs: Mapping[str, float],
    shard_count: int,
    initial_loads: Optional[Sequence[float]] = None,
) -> Dict[str, int]:
    """Assign named costs to shards with longest-processing-time greedy balance.

    Items are sorted by descending cost (ties broken by name for
    determinism) and each is assigned to the currently least-loaded shard.
    ``initial_loads`` seeds the per-shard load (one entry per shard) so a
    batch of new items can balance *around* already-assigned ones.  Returns
    ``{name: shard id}``.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if initial_loads is None:
        loads = [0.0] * shard_count
    else:
        if len(initial_loads) != shard_count:
            raise ValueError("initial_loads must have one entry per shard")
        loads = [float(load) for load in initial_loads]
    assignment: Dict[str, int] = {}
    for name, cost in sorted(costs.items(), key=lambda item: (-item[1], item[0])):
        shard = least_loaded_shard(loads)
        assignment[name] = shard
        loads[shard] += cost
    return assignment


class LabelShardMap:
    """Merged edge-label -> shard-set routing table over all registered queries.

    Every registered query contributes its label signature (the set of edge
    labels its query edges accept, plus a wildcard flag when any query edge
    has ``label=None``) under the shard it was assigned to.  Lookups return
    the sorted set of shards that host at least one query which could bind
    an edge with the given label.  Reference-counted so queries can be
    removed without rebuilding.
    """

    def __init__(self) -> None:
        #: ``{edge label: {shard id: query count}}``
        self._by_label: Dict[str, Dict[int, int]] = {}
        #: ``{shard id: wildcard query count}``
        self._wildcard: Dict[int, int] = {}
        #: Memoized ``shards_for_label`` results; the routing table only
        #: changes on (un)registration, while lookups run once per routed
        #: record, so the hot path must not rebuild and sort shard sets.
        self._lookup_cache: Dict[str, List[int]] = {}

    @staticmethod
    def signature_of(query: QueryGraph) -> Tuple[FrozenSet[str], bool]:
        """Return ``(label set, has wildcard)`` for a query graph."""
        labels: Set[str] = set()
        has_wildcard = False
        for edge in query.edges():
            if edge.label is None:
                has_wildcard = True
            else:
                labels.add(edge.label)
        return frozenset(labels), has_wildcard

    def add_query(self, shard_id: int, labels: Iterable[str], has_wildcard: bool) -> None:
        """Register one query's label signature under a shard."""
        self._lookup_cache.clear()
        for label in labels:
            bucket = self._by_label.setdefault(label, {})
            bucket[shard_id] = bucket.get(shard_id, 0) + 1
        if has_wildcard:
            self._wildcard[shard_id] = self._wildcard.get(shard_id, 0) + 1

    def remove_query(self, shard_id: int, labels: Iterable[str], has_wildcard: bool) -> None:
        """Drop one query's label signature (inverse of :meth:`add_query`)."""
        self._lookup_cache.clear()
        for label in labels:
            bucket = self._by_label.get(label)
            if not bucket:
                continue
            count = bucket.get(shard_id, 0) - 1
            if count > 0:
                bucket[shard_id] = count
            else:
                bucket.pop(shard_id, None)
                if not bucket:
                    del self._by_label[label]
        if has_wildcard:
            count = self._wildcard.get(shard_id, 0) - 1
            if count > 0:
                self._wildcard[shard_id] = count
            else:
                self._wildcard.pop(shard_id, None)

    def wildcard_shards(self) -> List[int]:
        """Return the shards hosting at least one wildcard query."""
        return sorted(self._wildcard)

    def shards_for_label(self, label: str) -> List[int]:
        """Return the sorted shards whose queries could bind an edge label."""
        cached = self._lookup_cache.get(label)
        if cached is None:
            shards = set(self._by_label.get(label, ()))
            shards.update(self._wildcard)
            cached = self._lookup_cache[label] = sorted(shards)
        return cached

    def labels(self) -> List[str]:
        """Return every edge label currently routed (wildcards excluded)."""
        return sorted(self._by_label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabelShardMap(labels={len(self._by_label)}, "
            f"wildcard_shards={self.wildcard_shards()})"
        )


class BatchRouter:
    """Fan batches of stream records out to the shards that can bind them.

    Parameters
    ----------
    shard_count:
        Total number of shards (shard ids are ``0..shard_count-1``).
    mode:
        :attr:`Routing.LABELS` (default) routes by edge label through the
        :class:`LabelShardMap`; :attr:`Routing.BROADCAST` sends every record
        to every shard.

    Counters (``records_seen``, ``records_dropped``, ``fanout_total``,
    ``records_broadcast``) expose how selective routing was; the sharded
    engine folds them into its metrics.
    """

    def __init__(self, shard_count: int, mode: str = Routing.LABELS) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if mode not in Routing.ALL:
            raise ValueError(f"unknown routing mode {mode!r}")
        self.shard_count = shard_count
        self.mode = mode
        self.label_map = LabelShardMap()
        self._all_shards = list(range(shard_count))
        self.records_seen = 0
        self.records_dropped = 0
        self.records_broadcast = 0
        self.fanout_total = 0

    # ------------------------------------------------------------------
    # query registration (delegated bookkeeping)
    # ------------------------------------------------------------------
    def add_query(self, shard_id: int, query: QueryGraph) -> None:
        """Route the given query graph's label signature to a shard."""
        labels, has_wildcard = LabelShardMap.signature_of(query)
        self.label_map.add_query(shard_id, labels, has_wildcard)

    def remove_query(self, shard_id: int, query: QueryGraph) -> None:
        """Stop routing the given query graph's labels to a shard."""
        labels, has_wildcard = LabelShardMap.signature_of(query)
        self.label_map.remove_query(shard_id, labels, has_wildcard)

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------
    def shards_for(self, record: StreamEdge) -> Sequence[int]:
        """Return the shards that must receive ``record``."""
        if self.mode == Routing.BROADCAST:
            return self._all_shards
        if record.source_attrs or record.target_attrs:
            # vertex attributes are shared mutable state: deliver everywhere
            # so every shard's vertex store stays consistent with the single
            # engine's for the records it does hold
            return self._all_shards
        return self.label_map.shards_for_label(record.label)

    def route(
        self,
        records: Sequence[StreamEdge],
        base_index: int,
    ) -> Dict[int, List[Tuple[int, StreamEdge]]]:
        """Split a batch into per-shard sub-batches of ``(global index, record)``.

        ``base_index`` is the global stream index of ``records[0]``; every
        record is tagged with its global index so downstream event merging
        can reconstruct the exact single-engine order.  Records no
        registered query can bind are dropped entirely (counted in
        ``records_dropped``).
        """
        per_shard: Dict[int, List[Tuple[int, StreamEdge]]] = {}
        broadcast_width = self.shard_count
        for offset, record in enumerate(records):
            self.records_seen += 1
            shards = self.shards_for(record)
            if not shards:
                self.records_dropped += 1
                continue
            if len(shards) == broadcast_width and broadcast_width > 1:
                self.records_broadcast += 1
            self.fanout_total += len(shards)
            tagged = (base_index + offset, record)
            for shard_id in shards:
                per_shard.setdefault(shard_id, []).append(tagged)
        return per_shard

    def stats(self) -> Dict[str, Union[str, int, float]]:
        """Return the routing counters (plus mean fan-out) as a plain dict."""
        routed = self.records_seen - self.records_dropped
        return {
            "mode": self.mode,
            "shard_count": self.shard_count,
            "records_seen": self.records_seen,
            "records_dropped": self.records_dropped,
            "records_broadcast": self.records_broadcast,
            "fanout_total": self.fanout_total,
            "mean_fanout": (self.fanout_total / routed) if routed else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchRouter(shards={self.shard_count}, mode={self.mode!r})"
