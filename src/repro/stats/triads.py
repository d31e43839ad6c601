"""Multi-relational triad (wedge) census.

The third summary-statistic family from paper section 4.3 is the frequency
distribution of *multi-relational triad structures*: connected three-vertex
substructures described by their vertex and edge types.  The census gives the
planner a direct cardinality estimate for two-edge search primitives (the
default primitive size), which is much sharper than assuming the two edges
occur independently.

A triad here is a *wedge*: two distinct edges sharing a centre vertex.  Its
key is

``(centre label, ((edge label, orientation, leaf label), (edge label,
orientation, leaf label)))``

with the two legs sorted so the key is canonical.  Orientation is ``"out"``
when the edge points away from the centre and ``"in"`` otherwise; a self-loop
is a single ``"out"`` leg at its one endpoint.

The census is computed, not maintained: :meth:`TriadCensus.from_live_edges`
counts the typed *legs* ``{leg: number of edges with that leg}`` at every
centre vertex of a set of edges, then adds, per centre, ``n_A * n_B``
wedges for every pair of distinct leg types and ``C(n_A, 2)`` for every
repeated one.  Its cost is linear in the edges plus the square of each
centre's **distinct** leg types (a handful, even at a hub of degree
10 000).  :meth:`TriadCensus.observe_graph` enumerates every wedge pair by
pair instead; it is quadratic in degree and is the ground truth the leg
count is tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..graph.dynamic_graph import DynamicGraph
from ..graph.property_graph import PropertyGraph
from ..graph.types import Direction, Edge, VertexId

__all__ = ["TriadKey", "TriadCensus", "LiveEdge", "wedge_key_for_query"]

#: ``(edge label, orientation, leaf vertex label)``; ``None`` components
#: occur only on the query side, where they are wildcards
TriadLeg = Tuple[Optional[str], str, Optional[str]]
#: ``(centre vertex label, (leg, leg))`` with legs sorted canonically
TriadKey = Tuple[Optional[str], Tuple[TriadLeg, TriadLeg]]
#: A leg observed on the stream: every component is a real label
StreamLeg = Tuple[str, str, str]
#: ``(source, target, edge label, source label, target label)``
LiveEdge = Tuple[VertexId, VertexId, str, str, str]


def _leg_order(leg: TriadLeg) -> Tuple[str, str, str]:
    return (str(leg[0]), leg[1], str(leg[2]))


def wedge_key_for_query(
    center_label: Optional[str],
    first_leg: TriadLeg,
    second_leg: TriadLeg,
) -> TriadKey:
    """Build the canonical census key for a two-edge query primitive.

    Each leg is ``(edge label, orientation, leaf label)`` where orientation is
    relative to the shared (centre) query vertex.  Wildcard (``None``)
    components order as the string ``"None"``; on all-string legs this is the
    plain tuple order the streaming census uses, so a fully-typed query key
    equals the stream key of the same wedge.
    """
    if _leg_order(second_leg) < _leg_order(first_leg):
        first_leg, second_leg = second_leg, first_leg
    return (center_label, (first_leg, second_leg))


class TriadCensus:
    """Exact census of the typed wedges in a set of edges."""

    def __init__(self) -> None:
        # ints, summed exactly whatever the iteration order
        self._counts: Dict[TriadKey, int] = {}
        self._wedges = 0

    @classmethod
    def from_live_edges(
        cls, live_edges: Iterable[LiveEdge], center_labels: Mapping[VertexId, str]
    ) -> "TriadCensus":
        """Count every wedge among ``live_edges`` from the legs at each centre.

        ``center_labels`` gives the label of every endpoint.  Centres are
        visited in the order the edges first name them, and the legs at a
        centre sorted, so the key order is a function of the edge order
        alone (never of hashing).
        """
        census = cls()
        counts = census._counts
        wedges = 0
        for center, legs in cls._count_legs(live_edges).items():
            center_label = center_labels[center]
            typed = sorted(legs.items())
            for index, (leg, live) in enumerate(typed):
                if live > 1:
                    pairs = live * (live - 1) // 2
                    key = (center_label, (leg, leg))
                    counts[key] = counts.get(key, 0) + pairs
                    wedges += pairs
                for other, other_live in typed[index + 1 :]:
                    pairs = live * other_live
                    key = (center_label, (leg, other))
                    counts[key] = counts.get(key, 0) + pairs
                    wedges += pairs
        census._wedges = wedges
        return census

    @staticmethod
    def _count_legs(live_edges: Iterable[LiveEdge]) -> Dict[VertexId, Dict[StreamLeg, int]]:
        legs: Dict[VertexId, Dict[StreamLeg, int]] = {}
        for source, target, edge_label, source_label, target_label in live_edges:
            incidences = [(source, (edge_label, "out", target_label))]
            if target != source:
                incidences.append((target, (edge_label, "in", source_label)))
            for center, leg in incidences:
                at_center = legs.setdefault(center, {})
                at_center[leg] = at_center.get(leg, 0) + 1
        return legs

    def observe_graph(self, graph: Union[DynamicGraph, PropertyGraph]) -> None:
        """Run a brute-force census over every wedge of an existing graph.

        Quadratic in degree and independent of the leg count: this is the
        ground truth :meth:`from_live_edges` is tested against.
        """
        store = graph.graph if isinstance(graph, DynamicGraph) else graph
        for vertex in store.vertices():
            # keyed by id: BOTH enumerates a self-loop under OUT and under IN
            incident = list(
                {edge.id: edge for edge in store.incident_edges(vertex.id, Direction.BOTH)}.values()
            )
            for i in range(len(incident)):
                for j in range(i + 1, len(incident)):
                    key = wedge_key_for_query(
                        vertex.label,
                        self._leg(incident[i], vertex.id, store),
                        self._leg(incident[j], vertex.id, store),
                    )
                    self._counts[key] = self._counts.get(key, 0) + 1
                    self._wedges += 1

    @staticmethod
    def _leg(edge: Edge, center: VertexId, store: PropertyGraph) -> TriadLeg:
        orientation = "out" if edge.source == center else "in"
        leaf = edge.target if edge.source == center else edge.source
        leaf_label = store.vertex(leaf).label if store.has_vertex(leaf) else None
        return (edge.label, orientation, leaf_label)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count(self, key: TriadKey) -> int:
        """Return the number of wedges matching ``key``."""
        return self._counts.get(key, 0)

    def count_wildcard(self, key: TriadKey) -> int:
        """Like :meth:`count` but ``None`` components act as wildcards."""
        center_label, (leg_a, leg_b) = key
        total = 0
        for (stored_center, legs), count in self._counts.items():
            if center_label is not None and stored_center != center_label:
                continue
            if self._legs_match((leg_a, leg_b), legs):
                total += count
        return total

    @staticmethod
    def _leg_matches(pattern: TriadLeg, stored: TriadLeg) -> bool:
        p_label, p_orient, p_leaf = pattern
        s_label, s_orient, s_leaf = stored
        if p_label is not None and p_label != s_label:
            return False
        if p_orient != s_orient:
            return False
        if p_leaf is not None and p_leaf != s_leaf:
            return False
        return True

    @classmethod
    def _legs_match(cls, pattern_legs: Tuple[TriadLeg, TriadLeg], stored_legs: Tuple[TriadLeg, TriadLeg]) -> bool:
        a, b = pattern_legs
        x, y = stored_legs
        return (cls._leg_matches(a, x) and cls._leg_matches(b, y)) or (
            cls._leg_matches(a, y) and cls._leg_matches(b, x)
        )

    def total_wedges(self) -> int:
        """Return the total number of wedges counted."""
        return self._wedges

    def frequency(self, key: TriadKey) -> float:
        """Return the relative frequency of a wedge pattern in [0, 1]."""
        if self._wedges == 0:
            return 0.0
        return self.count(key) / self._wedges

    def most_common(self, k: Optional[int] = None) -> List[Tuple[TriadKey, int]]:
        """Return the ``k`` most frequent wedge patterns (ties in key order)."""
        ranked = sorted(self._counts.items(), key=lambda item: (-item[1], item[0]))
        return ranked if k is None else ranked[:k]

    def distinct_patterns(self) -> int:
        """Return the number of distinct wedge patterns counted."""
        return len(self._counts)

    def to_dict(self) -> Dict[str, int]:
        """Serialise into ``{"center|label,orient,leaf|label,orient,leaf": count}``."""
        result: Dict[str, int] = {}
        for (center, legs), count in self._counts.items():
            leg_strs = [",".join(str(part) for part in leg) for leg in legs]
            result[f"{center}|{leg_strs[0]}|{leg_strs[1]}"] = count
        return result

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TriadCensus({len(self._counts)} patterns, {self._wedges} wedges)"
