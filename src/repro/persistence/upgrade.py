"""One upgrade step from every older snapshot shape to the current one.

The manifest's ``format_version`` names the shape of a snapshot's sections.
Format 4 is what :mod:`repro.persistence.state` writes and the only shape
its loaders read; format 3 still carries the removed window, eviction,
dedupe and planning options, format 2 also lacks the leaves'
``stored_mark``, and format 1 is every snapshot written before the version
was stamped.  ``restore()`` passes an older file's sections through
:func:`upgrade` before loading them, one step per format, so this module is
the one place that knows the older shapes (``docs/operations.md``, "Older
snapshots", lists every rewrite).
A rewrite that changes what the restored engine does, or drops state a
caller may miss, logs one warning on the ``repro.persistence`` logger; an
option whose removal would change the restored engine's events raises
:class:`~repro.persistence.snapshot.RemovedOptionError` instead.
"""

from __future__ import annotations

import inspect
import logging
from dataclasses import asdict
from typing import Any, Dict, Iterable, List, Optional, Set

from ..core.engine import EngineConfig, intern_query_vocabulary
from ..core.sjtree import LeafWork
from ..graph.interning import InternTable
from ..query.compile import CompiledQuery
from ..query.serialize import query_from_dict
from ..stats.plan_monitor import PlanMonitor
from ..streaming.reorder import DEFAULT_SOURCE
from .snapshot import RemovedOptionError
from .state import ENGINE_KIND, SHARDED_KIND, loading

__all__ = ["upgrade"]

_LOG = logging.getLogger("repro.persistence")

#: ``EngineConfig`` knobs that no longer exist (the exhaustive scan, the
#: Bloom dispatch front, blind periodic replanning, the interpreted path,
#: the duplicate memory, count-min statistics, stored completions, the
#: latency reservoir cap).  Dropped with a warning.
_RETIRED_CONFIG_FIELDS = (
    "triad_sample_cap", "auto_replan_interval", "use_dispatch_index", "sketch_dispatch",
    "columnar", "dedup_memory_budget", "sketch_stats", "store_complete_matches",
    "latency_sample_cap",
)
#: Summarizer fields the window store derives.  Dropped with a warning.
_DERIVED_SUMMARIZER_FIELDS = (
    "vertex_labels", "edge_labels", "signatures", "degree_tracker", "triads",
    "known_vertices", "observed_through", "sketch_stats",
)
#: Counters of the writing process only: the wall-clock meters and the
#: route-plan cache hits.  Dropped with a warning per ``counters`` section.
_PROCESS_LOCAL_COUNTERS = ("latency", "throughput", "dispatch_memo_hits")
#: Counters added after the first snapshots; the writer had not started them.
_COUNTERS_ADDED_AT_ZERO = (
    "records_cold", "batches_vectorized", "records_prefiltered", "leaves_pruned",
)
#: Keys of retired state, dropped silently: the per-record path's count and
#: the Bloom front's dispatch counters; the adaptive horizon's and degraded
#: policy's buffer keys and the ``records_late`` total; the duplicate memory
#: (under both of its names) and the sweep throttle.
_RETIRED_COUNTERS = ("records_per_record",)
_RETIRED_DISPATCH_COUNTERS = ("front_probes", "front_rejections", "front_false_positives")
_RETIRED_REORDER_FIELDS = (
    "adaptive_quantile", "adaptive_sample_cap", "adaptive_refresh", "adaptive_floor",
    "late_policy", "records_late_degraded", "records_late",
)
_RETIRED_SOURCE_FIELDS = ("lateness", "samples", "since_refresh")
_RETIRED_MATCHER_FIELDS = (
    "dedup_identities", "dedup_edge_sets", "reported_identities", "reported_edge_sets",
    "expiry_min_interval",
)
#: ``EngineConfig`` knobs whose default is now the one behaviour, with that
#: default: latency is always recorded, and registration plans by
#: selectivity over 2-edge primitives.  None of them decides an event, so
#: an off-default value is dropped with a warning.
_DEFAULTED_CONFIG_FIELDS = {
    "record_latency": True, "plan_strategy": "selectivity", "primitive_size": 2,
}


def upgrade(kind: str, sections: Dict[str, Any], version: int) -> Dict[str, Any]:
    """Rewrite format-``version`` ``sections``, in place, into the current shape.

    ``kind`` and ``version`` are the manifest's; a sharded snapshot's
    ``shard_N`` sections are upgraded as single-engine ones.  Returns
    ``sections``.
    """
    if kind == ENGINE_KIND:
        engines = [sections]
    elif kind == SHARDED_KIND:
        engines = [sections[name] for name in sections if name.startswith("shard_")]
    else:
        raise ValueError(f"unknown snapshot kind {kind!r}")
    with loading():
        if version < 2:
            if kind == SHARDED_KIND:
                _upgrade_sharded(sections)
            else:
                _upgrade_engine(sections)
        if version < 3:
            for engine in engines:
                for payload in engine["queries"]:
                    _restart_epoch(payload["matcher"])
        if version < 4:
            _retire_options(kind, sections, engines)
    return sections


def _drop(section: Dict[str, Any], names: Iterable[str], warn: str = "") -> None:
    """Remove each of ``names`` that ``section`` carries; ``warn`` names them in a warning."""
    carried = sorted(name for name in names if name in section)
    for name in carried:
        del section[name]
    if carried and warn:
        _LOG.warning("snapshot %s, ignored on load: %s", warn, ", ".join(carried))


def _upgrade_config(config: Dict[str, Any], reorder: Optional[Dict[str, Any]]) -> None:
    """Upgrade an engine config and the reorder buffer it drives."""
    if config.get("allowed_lateness") == "adaptive":
        # the largest per-source horizon the buffer recorded becomes the
        # fixed one; a buffer with no source would have started one at its floor
        horizon = 0.0
        if reorder is not None:
            horizon = max(
                (float(source["lateness"]) for _, source in reorder["sources"]),
                default=float(reorder["adaptive_floor"]),
            )
            reorder["allowed_lateness"] = horizon
        config["allowed_lateness"] = horizon
        _LOG.warning(
            "snapshot config sets allowed_lateness='adaptive', restored with the largest "
            "per-source horizon it recorded: allowed_lateness=%s",
            horizon,
        )
    if config.get("late_policy") == "process_degraded":
        config["late_policy"] = "drop"
        _LOG.warning(
            "snapshot config sets late_policy='process_degraded', restored on 'drop': "
            "late records are dropped"
        )
    _drop(config, _RETIRED_CONFIG_FIELDS, "config carries retired fields")
    # knobs added after the writer: it ran with their defaults
    for name, parameter in inspect.signature(EngineConfig).parameters.items():
        config.setdefault(name, parameter.default)
    if reorder is not None:
        _upgrade_reorder(reorder)


def _upgrade_reorder(reorder: Dict[str, Any]) -> None:
    if reorder.get("kind", "single") == "single":
        # a single-watermark buffer: its whole history is the implicit
        # default source's (clock = the old maximum, watermark floor = the
        # old watermark), so a sourceless stream releases as before
        max_seen = float(reorder["max_seen"])
        reorder.update(
            kind="multisource", idle_timeout=None, watermark_floor=float("-inf"), sources=[]
        )
        if max_seen != float("-inf"):
            reorder["watermark_floor"] = max_seen - float(reorder["allowed_lateness"])
            source = {
                "max_seen": max_seen,
                "baseline": max_seen,
                "records_seen": reorder["records_seen"],
                "records_reordered": reorder["records_reordered"],
                "records_late": reorder["records_late_dropped"],
                "max_displacement_seen": reorder["max_displacement_seen"],
            }
            reorder["sources"].append([DEFAULT_SOURCE, source])
    _drop(reorder, _RETIRED_REORDER_FIELDS)
    for _, source in reorder["sources"]:
        _drop(source, _RETIRED_SOURCE_FIELDS)


def _upgrade_query(payload: Dict[str, Any]) -> None:
    _drop(payload, ("store_complete_matches",))
    payload.setdefault("plan_version", 0)  # written before replanning
    if payload.get("compiled_plan") is None:
        # the interpreted path, or before the marker: nothing to check against
        payload["compiled_plan"] = CompiledQuery(query_from_dict(payload["query"])).marker()
    matcher = payload["matcher"]
    _drop(matcher, _RETIRED_MATCHER_FIELDS)
    matcher.setdefault("epoch_end", None)  # written before lazy leaves
    tree = matcher["tree"]
    _drop(tree, ("last_expiry_sweep",))
    # the tree build numbers the leaves first and the root last
    leaves = len(payload["plan"]["primitives"])
    root_id = max(node_id for node_id, _ in tree["nodes"])
    for node_id, node in tree["nodes"]:
        if node_id < leaves:  # written before lazy leaves: an eager leaf
            node.setdefault("work", asdict(LeafWork()))
            node.setdefault("routed_mark", 0)
        if node_id == root_id:  # completions stored at the root are events already
            node["matches"] = []
            # no root stores a partial, a one-leaf root included: its
            # counters counted the completions
            node["total_inserted"] = node["total_expired"] = 0


def _restart_epoch(matcher: Dict[str, Any]) -> None:
    """Format 2 to 3: the marking epoch in progress restarts at the restore.

    A format-2 leaf records the records routed since its epoch began but
    not the partials stored since: the next record opens a new epoch, and
    each leaf keeps the mode it was written in until that epoch ends.
    """
    matcher["epoch_end"] = None
    for _, node in matcher["tree"]["nodes"]:
        if "work" in node:
            node["stored_mark"] = node["total_inserted"]


def _retire_options(kind: str, sections: Dict[str, Any], engines: List[Dict[str, Any]]) -> None:
    """Format 3 to 4: drop the options whose default became the only behaviour.

    Those are three config knobs, each window's ``strict`` flag, the graph's
    ``evict_isolated_vertices`` flag and each query's ``dedupe_structural``
    override.  A config knob off its default costs one warning per
    snapshot.  A non-strict bounded window, kept isolated vertices, or a
    query deduplicating otherwise than its engine would change the events,
    so they raise.
    """
    configs = [engine["config"] for engine in engines]
    windows: List[Dict[str, Any]] = []
    if kind == SHARDED_KIND:
        configs.append(sections["config"]["engine"])
        windows = [payload["window"] for payload in sections["queries"]]
    changed: Set[str] = set()  # a sharded snapshot's shards repeat the parent's values
    for config in configs:
        for name, default in _DEFAULTED_CONFIG_FIELDS.items():
            value = config.pop(name, default)
            if value != default:
                changed.add(f"{name}={value!r}")
    if changed:
        _LOG.warning(
            "snapshot config sets removed fields, restored on their defaults "
            "(record_latency=True, plan_strategy='selectivity', primitive_size=2): %s",
            ", ".join(sorted(changed)),
        )
    for engine in engines:
        graph = engine["graph"]
        if not graph.pop("evict_isolated_vertices", True):
            raise RemovedOptionError(
                "snapshot graph sets evict_isolated_vertices=False, which was removed: "
                "eviction always drops the vertices it leaves with no edge"
            )
        windows.append(graph["window"])
        dedupe = engine["config"]["dedupe_structural"]
        for payload in engine["queries"]:
            windows.append(payload["window"])
            if payload.pop("dedupe_structural", dedupe) != dedupe:
                raise RemovedOptionError(
                    f"snapshot query {payload['name']!r} overrides dedupe_structural, which "
                    f"was removed from register_query: every query follows "
                    f"EngineConfig.dedupe_structural={dedupe!r}"
                )
    for window in windows:
        if not window.pop("strict", True) and window["duration"] is not None:
            raise RemovedOptionError(
                f"snapshot holds a non-strict window (span <= {window['duration']}), which was "
                f"removed: a match's span must be strictly shorter than the window"
            )


def _interning(sections: Dict[str, Any]) -> Dict[str, List[str]]:
    """The intern table of a snapshot written before one was kept: ids need only be
    deterministic, so query vocabulary in registration order, then edge labels."""
    table = InternTable()
    for payload in sections["queries"]:
        intern_query_vocabulary(table, query_from_dict(payload["query"]))
    for _, _, _, label, _, _ in sections["graph"]["graph"]["edges"]:
        table.intern(label)
    return table.state_dict()


def _replan_next_check(config: Dict[str, Any]) -> Optional[int]:
    """The cadence marker a fresh engine with ``config`` starts from."""
    value: Optional[int] = config["replan_check_every"]
    return value if config["replan_threshold"] is not None else None


def _upgrade_engine(sections: Dict[str, Any]) -> None:
    config = sections["config"]
    _upgrade_config(config, sections["reorder"])
    if sections["summarizer"] is not None:
        _drop(
            sections["summarizer"], _DERIVED_SUMMARIZER_FIELDS, "summarizer carries derived fields"
        )
    for payload in sections["queries"]:
        _upgrade_query(payload)
    sections["graph"]["graph"].setdefault("adjacency_label_order", [])
    sections.setdefault("cold", [])  # written before the cold ring: an empty one
    if "interning" not in sections:
        sections["interning"] = _interning(sections)
    counters = sections["counters"]
    _drop(counters, _PROCESS_LOCAL_COUNTERS, "counters section carries process-local meters")
    _drop(counters, _RETIRED_COUNTERS)
    _drop(counters["dispatch"], _RETIRED_DISPATCH_COUNTERS)
    for name in _COUNTERS_ADDED_AT_ZERO:
        counters.setdefault(name, 0)
    # written before replanning: a fresh monitor and cadence
    counters.setdefault("plan_monitor", PlanMonitor(config["replan_threshold"]).state_dict())
    counters.setdefault("replan_next_check", _replan_next_check(config))


def _upgrade_sharded(sections: Dict[str, Any]) -> None:
    config = sections["config"]
    workers = config.pop("workers", 0)
    if workers > 0:
        _LOG.warning(
            "snapshot sharded config carries a worker pool, restored serially: workers=%s",
            workers,
        )
    _upgrade_config(config["engine"], sections["reorder"])
    for shard_id in range(config["shard_count"]):
        _upgrade_engine(sections[f"shard_{shard_id}"])
    counters = sections["counters"]
    _drop(counters, _PROCESS_LOCAL_COUNTERS, "counters section carries process-local meters")
    counters.setdefault("replan_next_check", _replan_next_check(config["engine"]))
