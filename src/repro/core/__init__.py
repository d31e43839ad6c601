"""The paper's primary contribution: SJ-Tree based incremental graph search.

Contents:

* :class:`SJTree` -- the Subgraph Join Tree (Definition 4.1.1).
* :mod:`~repro.core.decomposition` -- query decomposition strategies.
* :class:`QueryPlanner` -- statistics-driven plan construction (section 4.1).
* :class:`LocalSearcher` -- primitive search around new edges (section 4.1).
* :class:`ContinuousQueryMatcher` -- the incremental execution loop (4.2).
* :class:`StreamWorksEngine` -- the multi-query system façade.
"""

from .decomposition import Decomposition, DecompositionError, Strategy, decompose
from .dispatch import DispatchIndex, LeafDispatchEntry
from .engine import EngineConfig, RegisteredQuery, StreamWorksEngine
from .join import try_join
from .local_search import LocalSearcher, find_primitive_matches
from .matcher import ContinuousQueryMatcher, MatcherStats
from .planner import PlannerConfig, QueryPlan, QueryPlanner
from .sharded import ShardConfig, ShardedQuery, ShardedStreamEngine
from .sjtree import SJTree, SJTreeInvariantError, SJTreeNode

__all__ = [
    "ContinuousQueryMatcher",
    "Decomposition",
    "DecompositionError",
    "DispatchIndex",
    "EngineConfig",
    "LeafDispatchEntry",
    "LocalSearcher",
    "MatcherStats",
    "PlannerConfig",
    "QueryPlan",
    "QueryPlanner",
    "RegisteredQuery",
    "SJTree",
    "SJTreeInvariantError",
    "SJTreeNode",
    "ShardConfig",
    "ShardedQuery",
    "ShardedStreamEngine",
    "Strategy",
    "StreamWorksEngine",
    "decompose",
    "find_primitive_matches",
    "try_join",
]
