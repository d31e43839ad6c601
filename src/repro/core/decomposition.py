"""Query decomposition into search primitives.

Paper section 4.1: the query graph is decomposed into small, selective
*search primitives*; the decomposition determines the SJ-Tree's leaves and,
through their order, the join order.  The goals are

* primitives stay small (one or two edges by default) so the local search
  around each incoming edge is cheap;
* the most selective primitive sits lowest in the tree, gating the creation
  of partial matches (section 3.1, intuition 3);
* consecutive primitives share vertices, so every join has a non-empty cut
  and never degenerates into a cross product.

Several strategies are provided because experiment E5/E8 compares them:

``selectivity``
    Greedy pairing of edges into connected two-edge primitives ranked by
    estimated cardinality, most selective first (the paper's approach).
``anti_selective``
    Same primitives, least selective first -- the worst-case ordering used to
    show how much the join order matters.
``edge_by_edge``
    Single-edge primitives in arbitrary (query definition) order -- the
    simplistic strategy of section 3.1 that the paper argues against.
``balanced_pairs``
    Two-edge primitives joined in a balanced (bushy) tree instead of a
    left-deep chain.
``manual``
    Caller-supplied primitives, validated but otherwise untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..query.query_graph import QueryEdge, QueryGraph
from ..stats.selectivity import SelectivityEstimator
from .sjtree import SJTree

__all__ = [
    "Decomposition",
    "DecompositionError",
    "Strategy",
    "decompose",
    "enumerate_pair_primitives",
    "order_primitives_by_conditional_selectivity",
    "order_primitives_by_connectivity",
]


class DecompositionError(ValueError):
    """Raised when a decomposition is invalid for its query."""


class Strategy:
    """String constants naming the built-in decomposition strategies."""

    SELECTIVITY = "selectivity"
    ANTI_SELECTIVE = "anti_selective"
    EDGE_BY_EDGE = "edge_by_edge"
    BALANCED_PAIRS = "balanced_pairs"
    MANUAL = "manual"

    ALL = (SELECTIVITY, ANTI_SELECTIVE, EDGE_BY_EDGE, BALANCED_PAIRS, MANUAL)


class Decomposition:
    """An ordered, edge-disjoint cover of the query graph by search primitives."""

    def __init__(
        self,
        query: QueryGraph,
        primitives: Sequence[QueryGraph],
        strategy: str = Strategy.MANUAL,
        tree_shape: str = SJTree.LEFT_DEEP,
        estimates: Optional[Dict[str, float]] = None,
    ):
        self.query = query
        self.primitives = list(primitives)
        self.strategy = strategy
        self.tree_shape = tree_shape
        #: Optional ``{primitive name: estimated cardinality}`` recorded by the planner.
        self.estimates = estimates or {}
        self.validate()

    def validate(self) -> None:
        """Check that the primitives are an edge-disjoint cover of the query."""
        if not self.primitives:
            raise DecompositionError("decomposition has no primitives")
        covered: Set[int] = set()
        for primitive in self.primitives:
            edge_ids = primitive.edge_ids()
            if not edge_ids:
                raise DecompositionError(f"primitive {primitive.name!r} has no edges")
            unknown = edge_ids - self.query.edge_ids()
            if unknown:
                raise DecompositionError(
                    f"primitive {primitive.name!r} references unknown query edges {sorted(unknown)}"
                )
            overlap = covered & edge_ids
            if overlap:
                raise DecompositionError(
                    f"primitive {primitive.name!r} overlaps earlier primitives on edges {sorted(overlap)}"
                )
            if not primitive.is_connected():
                raise DecompositionError(f"primitive {primitive.name!r} is not connected")
            covered |= edge_ids
        missing = self.query.edge_ids() - covered
        if missing:
            raise DecompositionError(f"query edges {sorted(missing)} are not covered by any primitive")

    def primitive_count(self) -> int:
        """Return the number of search primitives."""
        return len(self.primitives)

    def same_tree(self, other: "Decomposition") -> bool:
        """Whether ``other`` builds this SJ-Tree: same shape, same primitives in order.

        Primitives compare by their vertices and query edge ids in
        declaration order, not by name.
        """
        return self.tree_shape == other.tree_shape and [
            primitive.declaration_order() for primitive in self.primitives
        ] == [primitive.declaration_order() for primitive in other.primitives]

    def build_tree(self) -> SJTree:
        """Materialise the SJ-Tree for this decomposition."""
        return SJTree(self.query, self.primitives, shape=self.tree_shape)

    def describe(self) -> str:
        """Return a human-readable listing of the primitives and their order."""
        lines = [
            f"Decomposition of {self.query.name!r} "
            f"({self.strategy}, {self.tree_shape}, {len(self.primitives)} primitives)"
        ]
        for index, primitive in enumerate(self.primitives):
            edges = ", ".join(
                self.query.edge(edge_id).describe() for edge_id in sorted(primitive.edge_ids())
            )
            estimate = self.estimates.get(primitive.name)
            suffix = f"  [est. {estimate:.1f}]" if estimate is not None else ""
            lines.append(f"  {index}: {edges}{suffix}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Decomposition({self.query.name!r}, strategy={self.strategy!r}, "
            f"primitives={len(self.primitives)})"
        )


# ----------------------------------------------------------------------
# primitive enumeration and ordering helpers
# ----------------------------------------------------------------------
def enumerate_pair_primitives(query: QueryGraph) -> List[QueryGraph]:
    """Return every connected two-edge subgraph (wedge) of the query.

    These are the candidate primitives the selectivity-driven strategies pick
    from; single edges are added later for whatever remains uncovered.
    """
    edges = sorted(query.edges(), key=lambda edge: edge.id)
    primitives: List[QueryGraph] = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            first, second = edges[i], edges[j]
            if set(first.endpoints) & set(second.endpoints):
                primitives.append(
                    query.edge_subgraph([first.id, second.id], name=f"pair({first.id},{second.id})")
                )
    return primitives


def _greedy_pair_cover(
    query: QueryGraph,
    ranked_pairs: List[Tuple[QueryGraph, float]],
) -> List[Tuple[QueryGraph, float]]:
    """Pick non-overlapping pair primitives greedily from a ranked list.

    Remaining uncovered edges become single-edge primitives with their own
    estimates appended by the caller.
    """
    chosen: List[Tuple[QueryGraph, float]] = []
    covered: Set[int] = set()
    for primitive, estimate in ranked_pairs:
        if primitive.edge_ids() & covered:
            continue
        chosen.append((primitive, estimate))
        covered |= primitive.edge_ids()
    return chosen


def order_primitives_by_connectivity(
    query: QueryGraph,
    scored_primitives: List[Tuple[QueryGraph, float]],
    most_selective_first: bool = True,
) -> List[Tuple[QueryGraph, float]]:
    """Order primitives so each one connects to the union of its predecessors.

    The first primitive is the most (or least) selective overall; each
    subsequent pick is the most (or least) selective primitive sharing at
    least one query vertex with the already-ordered set, so every SJ-Tree
    join has a non-empty cut.  If no primitive connects (disconnected query),
    the best remaining one is taken anyway.
    """
    remaining = list(scored_primitives)
    key: Callable[[Tuple[QueryGraph, float]], float] = lambda pair: pair[1]
    remaining.sort(key=key, reverse=not most_selective_first)
    ordered: List[Tuple[QueryGraph, float]] = []
    covered_vertices: Set[str] = set()
    while remaining:
        connected_choices = [
            pair for pair in remaining if not covered_vertices or covered_vertices & pair[0].vertex_names()
        ]
        pool = connected_choices if connected_choices else remaining
        best = pool[0]
        ordered.append(best)
        remaining.remove(best)
        covered_vertices |= best[0].vertex_names()
    return ordered


def order_primitives_by_conditional_selectivity(
    query: QueryGraph,
    scored_primitives: List[Tuple[QueryGraph, float]],
    estimator: SelectivityEstimator,
    most_selective_first: bool = True,
) -> List[Tuple[QueryGraph, float]]:
    """Order primitives greedily by *conditional* selectivity.

    Like :func:`order_primitives_by_connectivity`, but each pick re-scores
    the connected candidates given the vertices already bound by earlier
    primitives (:meth:`SelectivityEstimator.conditional_estimate`) instead of
    trusting the marginal ranking — PAPERS.md "Exploiting Correlations for
    Expensive Predicate Evaluation".  A primitive whose marginal cardinality
    looks large may still be the cheapest join step when its shared vertices
    are already pinned; the marginal ordering systematically penalises such
    primitives.  Ties keep the marginal (most-selective-first) order, so the
    output is deterministic and degrades to the connectivity ordering when
    conditioning changes nothing.

    The returned pairs keep their *marginal* estimates: those are what the
    plan records and what :class:`~repro.stats.plan_monitor.PlanMonitor`
    later re-scores against live statistics.
    """
    remaining = list(scored_primitives)
    key: Callable[[Tuple[QueryGraph, float]], float] = lambda pair: pair[1]
    remaining.sort(key=key, reverse=not most_selective_first)
    ordered: List[Tuple[QueryGraph, float]] = []
    covered_vertices: Set[str] = set()
    while remaining:
        connected_choices = [
            pair for pair in remaining if not covered_vertices or covered_vertices & pair[0].vertex_names()
        ]
        pool = connected_choices if connected_choices else remaining
        best = pool[0]
        best_score = estimator.conditional_estimate(query, best[0], covered_vertices, marginal=best[1])
        for pair in pool[1:]:
            score = estimator.conditional_estimate(query, pair[0], covered_vertices, marginal=pair[1])
            if (score < best_score) if most_selective_first else (score > best_score):
                best, best_score = pair, score
        ordered.append(best)
        remaining.remove(best)
        covered_vertices |= best[0].vertex_names()
    return ordered


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def _selectivity_primitives(
    query: QueryGraph,
    estimator: SelectivityEstimator,
    primitive_size: int,
) -> List[Tuple[QueryGraph, float]]:
    scored: List[Tuple[QueryGraph, float]] = []
    covered: Set[int] = set()
    if primitive_size >= 2:
        pairs = enumerate_pair_primitives(query)
        ranked_pairs = estimator.rank_primitives(query, pairs)
        chosen_pairs = _greedy_pair_cover(query, ranked_pairs)
        scored.extend(chosen_pairs)
        for primitive, _ in chosen_pairs:
            covered |= primitive.edge_ids()
    for edge in sorted(query.edges(), key=lambda e: e.id):
        if edge.id in covered:
            continue
        primitive = query.edge_subgraph([edge.id], name=f"edge({edge.id})")
        scored.append((primitive, estimator.estimate_primitive(query, primitive)))
        covered.add(edge.id)
    return scored


def decompose(
    query: QueryGraph,
    strategy: str = Strategy.SELECTIVITY,
    estimator: Optional[SelectivityEstimator] = None,
    primitive_size: int = 2,
    primitives: Optional[Sequence[QueryGraph]] = None,
    conditional_ordering: bool = False,
) -> Decomposition:
    """Decompose ``query`` into an ordered set of search primitives.

    Parameters
    ----------
    query:
        The query graph to decompose.
    strategy:
        One of :class:`Strategy`'s constants.
    estimator:
        Required for the selectivity-aware strategies.  When omitted, a
        neutral estimator (every primitive equally likely) is emulated by
        falling back to primitive size + edge id ordering, which keeps the
        function usable before any statistics exist.
    primitive_size:
        Maximum primitive size for the selectivity strategies (1 or 2).
    primitives:
        Explicit primitives for ``Strategy.MANUAL``.
    conditional_ordering:
        Order the selectivity strategies' primitives by *conditional* (given
        already-bound vertices) rather than marginal selectivity.  Requires
        an estimator; ignored without one.
    """
    if strategy == Strategy.MANUAL:
        if primitives is None:
            raise DecompositionError("manual decomposition requires explicit primitives")
        return Decomposition(query, primitives, strategy=Strategy.MANUAL)

    if strategy == Strategy.EDGE_BY_EDGE:
        singles = [
            query.edge_subgraph([edge.id], name=f"edge({edge.id})")
            for edge in sorted(query.edges(), key=lambda e: e.id)
        ]
        ordered = order_primitives_by_connectivity(
            query, [(primitive, float(index)) for index, primitive in enumerate(singles)]
        )
        return Decomposition(
            query,
            [primitive for primitive, _ in ordered],
            strategy=Strategy.EDGE_BY_EDGE,
        )

    if strategy not in (Strategy.SELECTIVITY, Strategy.ANTI_SELECTIVE, Strategy.BALANCED_PAIRS):
        raise DecompositionError(f"unknown decomposition strategy {strategy!r}")

    if estimator is None:
        # neutral scoring: all primitives equal, ties broken by edge ids
        scored = []
        covered: Set[int] = set()
        for primitive in enumerate_pair_primitives(query):
            if primitive.edge_ids() & covered:
                continue
            scored.append((primitive, float(min(primitive.edge_ids()))))
            covered |= primitive.edge_ids()
        for edge in sorted(query.edges(), key=lambda e: e.id):
            if edge.id not in covered:
                scored.append((query.edge_subgraph([edge.id], name=f"edge({edge.id})"), float(edge.id)))
                covered.add(edge.id)
    else:
        scored = _selectivity_primitives(query, estimator, primitive_size)

    most_selective_first = strategy != Strategy.ANTI_SELECTIVE
    if conditional_ordering and estimator is not None:
        ordered = order_primitives_by_conditional_selectivity(
            query, scored, estimator, most_selective_first
        )
    else:
        ordered = order_primitives_by_connectivity(query, scored, most_selective_first)
    tree_shape = SJTree.BALANCED if strategy == Strategy.BALANCED_PAIRS else SJTree.LEFT_DEEP
    return Decomposition(
        query,
        [primitive for primitive, _ in ordered],
        strategy=strategy,
        tree_shape=tree_shape,
        estimates={primitive.name: estimate for primitive, estimate in ordered},
    )
