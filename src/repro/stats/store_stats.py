"""Planning statistics read from the window store, one count per question.

:class:`~repro.stats.summarizer.GraphSummary` materialises every statistic
of paper section 4.3 at once: all label and signature counts and the whole
typed-wedge census.  A planner reads a handful of them -- the signatures of
its query edges, a few label counts and one wedge count per two-edge
primitive -- so :class:`StoreStatistics` answers those questions directly
from the store's typed edge slots and memoises each answer.  A view is made
per planning decision (registration, one ``replan_query``, one
``run_replan_check``) and describes the store as of the moment a count is
first asked; build a fresh one once the store has changed.

Every count equals the one :meth:`StreamSummarizer.summary` would give:
only vertices with a live edge count, and the wedge counts are those of
:class:`~repro.stats.triads.TriadCensus`, where a self loop is one ``"out"``
leg at its one endpoint.  At one centre, with ``S_A``, ``S_B`` and ``S_AB``
the legs matching pattern ``A``, pattern ``B`` and both, the wedges (pairs
of distinct legs) matching ``{A, B}`` in either order number
``S_A * S_B - S_AB - C(S_AB, 2)``: the ordered pairs, less a leg paired
with itself, less the pairs counted in both orders.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..graph.adjacency import EdgeSlot, VertexRecord
from ..graph.dynamic_graph import DynamicGraph
from ..graph.property_graph import PropertyGraph
from ..graph.types import Edge, VertexId
from .labels import EdgeSignature
from .triads import TriadKey, TriadLeg

__all__ = ["StoreStatistics"]


class StoreStatistics:
    """The counts :class:`~repro.stats.selectivity.SelectivityEstimator` reads, from a store.

    Answers the estimator's calls as :class:`GraphSummary` does
    (:meth:`signature_count`, :meth:`edge_label_count`,
    :meth:`vertex_label_count`, :meth:`total_wedges`, :meth:`wedge_count`,
    :meth:`wedge_count_wildcard`, :attr:`edge_count`).  ``track_triads=False``
    answers every wedge count with 0, like a summary without a census.
    """

    def __init__(
        self, graph: Union[DynamicGraph, PropertyGraph], track_triads: bool = True
    ) -> None:
        self.store = graph.graph if isinstance(graph, DynamicGraph) else graph
        self.track_triads = track_triads
        self._signatures: Dict[EdgeSignature, int] = {}
        self._vertex_labels: Dict[Optional[str], int] = {}
        self._wedges: Dict[TriadKey, int] = {}
        self._total_wedges: Optional[int] = None
        self._centre_lists: Dict[Optional[str], List[VertexRecord]] = {}
        self._columns: Dict[Tuple[Optional[str], TriadLeg], List[int]] = {}
        self._loops: Optional[Dict[VertexId, Dict[str, int]]] = None

    @property
    def edge_count(self) -> int:
        """Live edges in the store."""
        return self.store.edge_count()

    # ------------------------------------------------------------------
    # labels and signatures
    # ------------------------------------------------------------------
    def edge_label_count(self, label: Optional[str]) -> int:
        """Live edges with ``label`` (all live edges when ``None``)."""
        return self.store.edge_count(label)

    def vertex_label_count(self, label: Optional[str]) -> int:
        """Vertices with ``label`` and a live edge (all such vertices when ``None``)."""
        count = self._vertex_labels.get(label)
        if count is None:
            count = self._vertex_labels[label] = sum(
                1 for vertex in self.store.vertices(label) if vertex.degree
            )
        return count

    def signature_count(self, signature: EdgeSignature) -> int:
        """Live edges matching ``(source, edge, target)`` labels; ``None`` is a wildcard."""
        count = self._signatures.get(signature)
        if count is None:
            count = self._signatures[signature] = self._count_signature(*signature)
        return count

    def _count_signature(
        self, source_label: Optional[str], edge_label: Optional[str], target_label: Optional[str]
    ) -> int:
        store = self.store
        if source_label is None and target_label is None:
            return store.edge_count(edge_label)
        if target_label is None:
            return sum(
                _slot_size(vertex.out, edge_label) for vertex in store.vertices(source_label)
            )
        if source_label is None:
            return sum(
                _slot_size(vertex.in_, edge_label) for vertex in store.vertices(target_label)
            )
        label_of = store.vertex_label
        return sum(
            1
            for vertex in store.vertices(source_label)
            for edge in _slot_edges(vertex.out, edge_label)
            if label_of(edge.target) == target_label
        )

    # ------------------------------------------------------------------
    # wedges
    # ------------------------------------------------------------------
    def total_wedges(self) -> int:
        """Pairs of distinct legs over all centres: ``sum C(legs, 2)``."""
        if self._total_wedges is None:
            total = 0
            if self.track_triads:
                loops = self._self_loops()
                for vertex in self._centres(None):
                    # a self loop adds 2 to the degree but is one leg
                    looped = loops.get(vertex.id)
                    legs = vertex.degree - (sum(looped.values()) if looped else 0)
                    total += legs * (legs - 1) // 2
            self._total_wedges = total
        return self._total_wedges

    def wedge_count(self, key: TriadKey) -> int:
        """Wedges whose typed key is exactly ``key`` (:meth:`TriadCensus.count`).

        A stored key names every label and lists its legs in order, so a
        key with a wildcard or with its legs out of order counts nothing.
        """
        center_label, (leg_a, leg_b) = key
        if center_label is None or None in leg_a or None in leg_b or leg_b < leg_a:
            return 0
        return self.wedge_count_wildcard(key)

    def wedge_count_wildcard(self, key: TriadKey) -> int:
        """Wedges matching ``key``, ``None`` a wildcard (:meth:`TriadCensus.count_wildcard`)."""
        count = self._wedges.get(key)
        if count is None:
            count = self._wedges[key] = self._count_wedges(key) if self.track_triads else 0
        return count

    def _count_wedges(self, key: TriadKey) -> int:
        center_label, (leg_a, leg_b) = key
        legs_a = self._column(center_label, leg_a)
        legs_b = self._column(center_label, leg_b)
        both = _meet(leg_a, leg_b)
        if both is None:
            return sum(a * b for a, b in zip(legs_a, legs_b))
        legs_ab = self._column(center_label, both)
        return sum(
            a * b - ab - ab * (ab - 1) // 2 for a, b, ab in zip(legs_a, legs_b, legs_ab)
        )

    def _centres(self, center_label: Optional[str]) -> List[VertexRecord]:
        """The vertices with ``center_label`` and a degree of 2 or more, once per view."""
        found = self._centre_lists.get(center_label)
        if found is None:
            found = self._centre_lists[center_label] = [
                vertex for vertex in self.store.vertices(center_label) if vertex.degree > 1
            ]
        return found

    def _column(self, center_label: Optional[str], pattern: TriadLeg) -> List[int]:
        """The legs matching ``pattern`` at each of :meth:`_centres`, once per view.

        A self loop is one ``"out"`` leg: the in-slot entry it also has is
        not counted.
        """
        column = self._columns.get((center_label, pattern))
        if column is not None:
            return column
        edge_label, orientation, leaf_label = pattern
        outgoing = orientation == "out"
        centres = self._centres(center_label)
        column = []
        if leaf_label is None:
            for vertex in centres:
                slots = vertex.out if outgoing else vertex.in_
                if edge_label is None:
                    column.append(sum(map(len, slots.values())))
                else:
                    slot = slots.get(edge_label)
                    column.append(0 if slot is None else len(slot))
            loops = {} if outgoing else self._self_loops()
            if loops:
                for index, vertex in enumerate(centres):
                    looped = loops.get(vertex.id)
                    if looped:
                        column[index] -= (
                            sum(looped.values())
                            if edge_label is None
                            else looped.get(edge_label, 0)
                        )
        else:
            label_of = self.store.vertex_label
            for vertex in centres:
                center = vertex.id
                count = 0
                for edge in _slot_edges(vertex.out if outgoing else vertex.in_, edge_label):
                    leaf = edge.target if outgoing else edge.source
                    if label_of(leaf) == leaf_label and (outgoing or leaf != center):
                        count += 1
                column.append(count)
        self._columns[(center_label, pattern)] = column
        return column

    def _self_loops(self) -> Dict[VertexId, Dict[str, int]]:
        """Live self loops per vertex and edge label: one walk of the live edges per view."""
        loops = self._loops
        if loops is None:
            loops = self._loops = {}
            for edge in self.store.edges():
                if edge.source == edge.target:
                    by_label = loops.setdefault(edge.source, {})
                    by_label[edge.label] = by_label.get(edge.label, 0) + 1
        return loops


def _meet(first: TriadLeg, second: TriadLeg) -> Optional[TriadLeg]:
    """The pattern of the legs matching both ``first`` and ``second`` (``None``: no leg can)."""
    if first[1] != second[1]:
        return None
    parts = []
    for mine, theirs in ((first[0], second[0]), (first[2], second[2])):
        if mine is not None and theirs is not None and mine != theirs:
            return None
        parts.append(mine if mine is not None else theirs)
    return (parts[0], first[1], parts[1])


def _slot_size(slots: Mapping[str, EdgeSlot], label: Optional[str]) -> int:
    if label is None:
        return sum(map(len, slots.values()))
    slot = slots.get(label)
    return 0 if slot is None else len(slot)


def _slot_edges(slots: Mapping[str, EdgeSlot], label: Optional[str]) -> Iterable[Edge]:
    if label is None:
        return [edge for slot in slots.values() for edge in slot.live()]
    slot = slots.get(label)
    return () if slot is None else slot.live()
