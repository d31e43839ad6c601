"""Join of partial matches under a time window, compiled per SJ-tree node.

Property 2 of the SJ-Tree defines an internal node's subgraph as the join of
its children's subgraphs; at match level the join combines a partial from
one child with a partial from the other.  The two partials already agree on
the cut vertices -- the sibling probe is a lookup on exactly that key -- and
each is injective on its own, so what is left to decide is known once the
tree is built.  :func:`compile_join` writes it down, once per internal
node, as a :data:`JoinPlan` over a left child's partial and a right
child's; :func:`try_join` is the one routine that runs a plan, whichever
side the new partial came from:

1. the window test on the merged extent, a couple of float comparisons;
2. every vertex slot bound on the left only against every vertex slot
   bound on the right only: they must hold different data vertices
   (injectivity of the merged binding);
3. the query-edge pairs that could bind one data edge -- same endpoint
   variables, labels equal or either one a wildcard -- must hold different
   data edges;
4. the parent's partial, picked out of ``(*left, *right, earliest,
   latest)`` by one ``itemgetter`` in the parent's slot layout.

Other query-edge pairs need no test: once the merged binding is injective,
two query edges whose endpoint variables differ cannot bind the same data
edge.  This is the compilation of multi-headed rules in the CHR literature:
partners found through an index on the shared variables, each guard laid
down once, where its slots are known.  A plan is a tuple of flags, slot
pairs and an ``itemgetter``, not a closure: closures cost a cell per
captured name and showed up in query registration time.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Optional, Tuple

from ..graph.window import TimeWindow
from ..query.query_graph import QueryGraph

if TYPE_CHECKING:
    from .sjtree import Partial, SlotLayout

__all__ = ["JoinPlan", "compile_join", "try_join"]

#: ``(bounded, duration, vertex pairs, edge pairs, assemble)``: the
#: window, the ``(left slot, right slot)`` pairs that must differ, and the
#: picker of the parent's partial.  Field order is that of the one
#: unpacking statement in :func:`try_join`.
JoinPlan = Tuple[
    bool, float, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...], "itemgetter[Any]"
]


def compile_join(
    left: QueryGraph,
    left_layout: "SlotLayout",
    right: QueryGraph,
    right_layout: "SlotLayout",
    parent_layout: "SlotLayout",
    window: TimeWindow,
) -> JoinPlan:
    """The plan of one internal node: a left child's partial meeting a right child's."""
    left_names, right_names = left_layout.vertices, right_layout.vertices
    # (left slot, right slot) pairs that must differ
    left_only = [slot for slot, name in enumerate(left_names) if name not in right_names]
    right_only = [slot for slot, name in enumerate(right_names) if name not in left_names]
    vertex_pairs = tuple([(slot, other) for slot in left_only for other in right_only])
    # query-edge pairs with one endpoint set: both ends are cut vertices
    edge_pairs = tuple(
        [
            (left_layout.edge_slot(first.id), right_layout.edge_slot(second.id))
            for first in left.edges()
            if first.source in right_names and first.target in right_names
            for second in right.edges()
            if {first.source, first.target} == {second.source, second.target}
            and (first.label is None or second.label is None or first.label == second.label)
        ]
    )
    # where each parent slot sits in (*left, *right, earliest, latest);
    # names are strings and query edges ints, so one dict holds both
    source = dict(zip(right_names + right_layout.edges, range(left_layout.width, 1 << 30)))
    source.update(zip(left_names + left_layout.edges, range(left_layout.width)))
    extent = left_layout.width + right_layout.width
    picks = [source[name] for name in parent_layout.vertices + parent_layout.edges]
    picks += [extent, extent + 1]
    return (
        window.bounded,
        window.duration,
        vertex_pairs,
        edge_pairs,
        itemgetter(*picks),
    )


def try_join(left: "Partial", right: "Partial", plan: JoinPlan) -> Optional["Partial"]:
    """Join a left and a right partial under the same key; ``None`` when they cannot combine.

    The window test runs first, on the merged extent, so most rejections
    cost a couple of float comparisons; the slot tests follow.
    """
    bounded, duration, vertex_pairs, edge_pairs, assemble = plan
    earliest = left[-2]
    other = right[-2]
    if other < earliest:
        earliest = other
    latest = left[-1]
    other = right[-1]
    if other > latest:
        latest = other
    if bounded and latest - earliest >= duration:
        return None
    for mine, theirs in vertex_pairs:
        if left[mine] == right[theirs]:
            return None
    for mine, theirs in edge_pairs:
        if left[mine].id == right[theirs].id:
            return None
    joined: "Partial" = assemble((*left, *right, earliest, latest))
    return joined
