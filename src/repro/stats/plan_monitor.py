"""Track observed vs. planned selectivity and decide when to replan.

The planner (``core/planner.py``) estimates per-primitive cardinalities once,
from whatever the graph summary held at registration time.  Streams drift:
the label mix an hour in can look nothing like the first thousand edges, and
a join order that was optimal at registration silently degenerates into the
worst one.  PAPERS.md "Exploiting Correlations for Expensive Predicate
Evaluation" makes the underlying point — ordering decisions must follow the
*live* (conditional) selectivities, not the marginals frozen at plan time.

:class:`PlanMonitor` is the drift detector that closes the loop.  It owns no
statistics of its own; it re-scores a registered plan's recorded estimates
against a fresh :class:`~repro.stats.selectivity.SelectivityEstimator` built
over the engine's *current* window store, and reports the worst relative
error across the plan's primitives.  The engine compares that error against
``EngineConfig(replan_threshold=...)`` and calls ``replan_query()`` when it
is exceeded.  All counters live here so both engines (single-process and
sharded parent) can aggregate and checkpoint them uniformly.

The monitor is deliberately ignorant of ``repro.core`` — plans are accepted
duck-typed (``estimates``, ``summary_edge_count``, ``decomposition``) so the
stats layer keeps its no-upward-imports rule.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..query.query_graph import QueryGraph
from .selectivity import SelectivityEstimator

__all__ = ["PlanMonitor"]

#: Relative error assigned when the plan has no usable estimate to compare
#: against (stats-blind plan or a primitive missing from ``plan.estimates``).
#: Infinite error means "the plan encodes no information about the stream",
#: which any positive threshold treats as an immediate replan trigger.
_UNKNOWN_ERROR = float("inf")


class PlanMonitor:
    """Selectivity-drift bookkeeping for adaptive replanning.

    One monitor serves a whole engine (all registered queries): per-query
    worst errors are kept in :attr:`last_errors`, scalar counters aggregate
    across queries.  The engine drives it — :meth:`score` is pure,
    :meth:`observe_error` / :meth:`record_replan` mutate counters — so the
    decision logic stays in one place (``Engine.run_replan_check``) and the
    monitor checkpoints as plain state.
    """

    def __init__(self, threshold: Optional[float] = None) -> None:
        #: Relative-error trigger level (``None`` when replanning is disabled).
        self.threshold = threshold
        #: Number of times a replan check was run (per engine, not per query).
        self.checks_run = 0
        #: Number of times an error exceeded the threshold and forced a replan.
        self.triggers_fired = 0
        #: Number of new plans actually installed (one per successful replan).
        self.plans_applied = 0
        #: Partial matches carried into new SJ-trees across all replans.
        self.partials_migrated = 0
        #: Partial matches provably non-completable at migration time (their
        #: edges already left the window) and therefore not carried over.
        self.partials_dropped = 0
        #: Sum of all finite observed errors (for the mean in metrics).
        self.error_sum = 0.0
        #: Count of finite observed errors.
        self.error_count = 0
        #: Worst finite error ever observed.
        self.max_error_seen = 0.0
        #: Most recent worst-error per query name (infinities included).
        self.last_errors: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score(
        self,
        estimator: SelectivityEstimator,
        query: QueryGraph,
        plan: Any,
    ) -> float:
        """Return the worst relative selectivity error across ``plan``'s primitives.

        ``plan`` is a ``core.planner.QueryPlan`` accepted duck-typed.  Each
        primitive's recorded estimate (``plan.estimates``) is compared with a
        fresh estimate from ``estimator`` (built over the live window store);
        relative error is ``|live - planned| / max(|planned|, 1e-9)``.  A plan
        made before any statistics existed (``summary_edge_count == 0`` or no
        recorded estimates) scores :data:`_UNKNOWN_ERROR` so it is replaced at
        the first check once real data has arrived.
        """
        estimates: Dict[str, float] = plan.estimates
        if plan.summary_edge_count == 0 or not estimates:
            return _UNKNOWN_ERROR
        worst = 0.0
        for primitive in plan.decomposition.primitives:
            planned = estimates.get(primitive.name)
            if planned is None:
                return _UNKNOWN_ERROR
            live = estimator.estimate_primitive(query, primitive)
            error = abs(live - planned) / max(abs(planned), 1e-9)
            if error > worst:
                worst = error
        return worst

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def observe_error(self, name: str, error: float) -> None:
        """Record one check's worst error for query ``name``."""
        self.last_errors[name] = error
        if error != _UNKNOWN_ERROR:
            self.error_sum += error
            self.error_count += 1
            if error > self.max_error_seen:
                self.max_error_seen = error

    def record_replan(self, migrated: int, dropped: int) -> None:
        """Record one applied replan and its state-migration outcome."""
        self.plans_applied += 1
        self.partials_migrated += migrated
        self.partials_dropped += dropped

    def mean_error(self) -> float:
        """Mean finite observed error (0.0 before any finite observation)."""
        if self.error_count == 0:
            return 0.0
        return self.error_sum / self.error_count

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialise the monitor for checkpointing.

        Infinities in ``last_errors`` are encoded as the string ``"inf"`` so
        the snapshot stays strict-JSON-portable.
        """
        last_errors: List[Tuple[str, Any]] = [
            (name, "inf" if error == _UNKNOWN_ERROR else error)
            for name, error in sorted(self.last_errors.items())
        ]
        return {
            "threshold": self.threshold,
            "checks_run": self.checks_run,
            "triggers_fired": self.triggers_fired,
            "plans_applied": self.plans_applied,
            "partials_migrated": self.partials_migrated,
            "partials_dropped": self.partials_dropped,
            "error_sum": self.error_sum,
            "error_count": self.error_count,
            "max_error_seen": self.max_error_seen,
            "last_errors": last_errors,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "PlanMonitor":
        """Rebuild a monitor from :meth:`state_dict` output."""
        monitor = cls(threshold=state["threshold"])
        monitor.checks_run = int(state["checks_run"])
        monitor.triggers_fired = int(state["triggers_fired"])
        monitor.plans_applied = int(state["plans_applied"])
        monitor.partials_migrated = int(state["partials_migrated"])
        monitor.partials_dropped = int(state["partials_dropped"])
        monitor.error_sum = float(state["error_sum"])
        monitor.error_count = int(state["error_count"])
        monitor.max_error_seen = float(state["max_error_seen"])
        monitor.last_errors = {
            name: _UNKNOWN_ERROR if error == "inf" else float(error)
            for name, error in state["last_errors"]
        }
        return monitor
