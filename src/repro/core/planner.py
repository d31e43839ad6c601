"""Query planning: turn a query graph plus stream statistics into an SJ-Tree plan.

Paper section 4.1: "the next task is to automatically decompose a query graph
and create a subgraph join tree based on the decomposition ... An important
goal of the decomposition process is to push the most selective subgraph at
the lowest level in the subgraph join-tree to reduce the number of partial
matches."

The planner wires together the pieces built elsewhere:

* the stream's statistics (section 4.3): a
  :class:`~repro.stats.summarizer.GraphSummary`, or the engine's
  :class:`~repro.stats.store_stats.StoreStatistics` view of its window store,
* the :class:`~repro.stats.selectivity.SelectivityEstimator`,
* the decomposition strategies of :mod:`repro.core.decomposition`,

and returns a :class:`QueryPlan` that records what was decided and why, so
experiments (and curious users) can inspect the plan rather than treat it as
a black box.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..query.query_graph import QueryGraph
from ..stats.selectivity import PlanningStatistics, SelectivityEstimator
from .decomposition import Decomposition, Strategy, decompose
from .sjtree import SJTree

__all__ = ["QueryPlan", "QueryPlanner", "PlannerConfig"]


class PlannerConfig:
    """Tunables for the query planner."""

    def __init__(
        self,
        strategy: str = Strategy.SELECTIVITY,
        primitive_size: int = 2,
        attribute_equality_selectivity: float = 0.1,
        use_triads: bool = True,
        conditional_ordering: bool = False,
    ):
        if primitive_size not in (1, 2):
            raise ValueError("primitive_size must be 1 or 2")
        self.strategy = strategy
        self.primitive_size = primitive_size
        self.attribute_equality_selectivity = attribute_equality_selectivity
        self.use_triads = use_triads
        #: Order primitives by conditional (given bound vertices) selectivity
        #: instead of marginal selectivity — used by the adaptive-replan loop.
        self.conditional_ordering = conditional_ordering


class QueryPlan:
    """The planner's output: a decomposition plus the evidence used to build it."""

    def __init__(
        self,
        query: QueryGraph,
        decomposition: Decomposition,
        strategy: str,
        estimates: Dict[str, float],
        summary_edge_count: int,
    ):
        self.query = query
        self.decomposition = decomposition
        self.strategy = strategy
        #: ``{primitive name: estimated cardinality}`` in join order.
        self.estimates = estimates
        #: Number of edges the statistics were based on when the plan was made.
        self.summary_edge_count = summary_edge_count

    def build_tree(self) -> SJTree:
        """Materialise a fresh SJ-Tree for this plan."""
        return self.decomposition.build_tree()

    def primitive_count(self) -> int:
        """Return the number of search primitives in the plan."""
        return self.decomposition.primitive_count()

    def describe(self) -> str:
        """Return a human-readable plan report."""
        lines = [
            f"Plan for query {self.query.name!r} "
            f"(strategy={self.strategy}, stats over {self.summary_edge_count} edges)",
            self.decomposition.describe(),
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryPlan({self.query.name!r}, strategy={self.strategy!r}, primitives={self.primitive_count()})"


class QueryPlanner:
    """Produce :class:`QueryPlan` objects from stream statistics."""

    def __init__(
        self, summary: Optional[PlanningStatistics] = None, config: Optional[PlannerConfig] = None
    ):
        self.summary = summary
        self.config = config or PlannerConfig()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _estimator(self) -> Optional[SelectivityEstimator]:
        if self.summary is None or self.summary.edge_count == 0:
            return None
        return SelectivityEstimator(
            self.summary,
            attribute_equality_selectivity=self.config.attribute_equality_selectivity,
            use_triads=self.config.use_triads,
        )

    def plan(
        self,
        query: QueryGraph,
        strategy: Optional[str] = None,
        primitives: Optional[Sequence[QueryGraph]] = None,
    ) -> QueryPlan:
        """Plan ``query`` with the configured (or overridden) strategy.

        ``primitives`` forces a manual decomposition regardless of strategy.
        """
        chosen_strategy = strategy or self.config.strategy
        if primitives is not None:
            chosen_strategy = Strategy.MANUAL
        estimator = self._estimator()
        decomposition = decompose(
            query,
            strategy=chosen_strategy,
            estimator=estimator,
            primitive_size=self.config.primitive_size,
            primitives=primitives,
            conditional_ordering=self.config.conditional_ordering,
        )
        estimates = dict(decomposition.estimates)
        if estimator is not None and not estimates:
            estimates = {
                primitive.name: estimator.estimate_primitive(query, primitive)
                for primitive in decomposition.primitives
            }
        return QueryPlan(
            query=query,
            decomposition=decomposition,
            strategy=chosen_strategy,
            estimates=estimates,
            summary_edge_count=self.summary.edge_count if self.summary else 0,
        )

    def plan_all_strategies(self, query: QueryGraph) -> List[QueryPlan]:
        """Return one plan per built-in automatic strategy (used by experiment E5)."""
        plans = []
        for strategy in (
            Strategy.SELECTIVITY,
            Strategy.ANTI_SELECTIVE,
            Strategy.EDGE_BY_EDGE,
            Strategy.BALANCED_PAIRS,
        ):
            plans.append(self.plan(query, strategy=strategy))
        return plans

    def compare(self, query: QueryGraph) -> Dict[str, Dict[str, float]]:
        """Return ``{strategy: {primitive name: estimate}}`` for plan inspection."""
        return {plan.strategy: plan.estimates for plan in self.plan_all_strategies(query)}
