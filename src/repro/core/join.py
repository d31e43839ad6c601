"""Join of partial matches under a time window.

Property 2 of the SJ-Tree defines an internal node's subgraph as the join of
its children's subgraphs; at match level the join combines a match from the
left child with a compatible match from the right child.  Compatibility is
exactly :meth:`Match.is_compatible` (agree on shared bindings, stay
injective, never reuse a data edge for two query edges) plus the temporal
constraint: the merged match's extent must still fit inside the query window.
"""

from __future__ import annotations

from typing import Optional

from ..graph.window import TimeWindow
from ..isomorphism.match import Match

__all__ = ["try_join", "joined_span"]


def joined_span(left: Match, right: Match) -> float:
    """Return the temporal extent of the union of two matches' edges."""
    if not left.edge_map and not right.edge_map:
        return 0.0
    earliest = min(left.earliest, right.earliest)
    latest = max(left.latest, right.latest)
    return latest - earliest


def try_join(left: Match, right: Match, window: Optional[TimeWindow] = None) -> Optional[Match]:
    """Join two partial matches, returning ``None`` when they cannot combine.

    The window check is performed *before* building the merged match so that
    incompatible candidates are rejected at the cost of a couple of float
    comparisons.  Compatibility is checked exactly once: the merge that
    follows is the unchecked one.
    """
    if window is not None and window.bounded:
        if not window.admits_span(joined_span(left, right)):
            return None
    if not left.is_compatible(right):
        return None
    return left._merge_unchecked(right)
