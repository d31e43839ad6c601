"""Subgraph isomorphism substrate: match objects and backtracking search.

The :class:`SubgraphMatcher` is the static search engine used as the
repeated-search baseline, as the seeded local-search primitive inside the
SJ-Tree, and as the correctness oracle in the tests.
"""

from .candidates import (
    count_label_candidates,
    edge_orientations,
    edge_satisfies,
    vertex_candidates,
    vertex_satisfies,
)
from .match import Match, MatchConflictError
from .vf2 import SubgraphMatcher

__all__ = [
    "Match",
    "MatchConflictError",
    "SubgraphMatcher",
    "count_label_candidates",
    "edge_orientations",
    "edge_satisfies",
    "vertex_candidates",
    "vertex_satisfies",
]
