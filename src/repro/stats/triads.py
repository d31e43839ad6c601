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

The streaming census is exact and its per-edge work does not depend on vertex
degree.  For every centre vertex it keeps *typed-leg counters* ``{leg: number
of live edges with that leg}``; a new edge forms, with each live leg type at
an endpoint, as many wedges as that type's counter says, so one sweep over
the endpoint's **distinct leg types** (a handful, even at a hub of degree
10 000) adds the counters to the wedge counts, and the new edge then bumps
its own leg.  When the window evicts an edge its two legs are decremented in
O(1).  The wedge counts themselves are cumulative -- every wedge an edge
formed, at insertion, with the edges live at that moment -- and are never
retracted.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

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


def _leg_from_state(parts: Any) -> TriadLeg:
    edge_label, orientation, leaf_label = parts
    return (edge_label, orientation, leaf_label)


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
    """Exact incremental census of typed wedges in a dynamic graph.

    Parameters
    ----------
    live_edges:
        Edges already live when the census starts counting: their legs are
        registered, but no wedge is counted among them.  The leg counters are
        derived from the window store and never serialised, so a restore
        passes the restored graph's live edges here (see :meth:`from_state`).
    """

    def __init__(self, live_edges: Iterable[LiveEdge] = ()) -> None:
        # plain ints while streaming; a census restored from a snapshot
        # written by the retired sampling census may carry float weights
        self._counts: Dict[TriadKey, float] = {}
        self._wedges_observed: float = 0
        #: Leg-counter entries visited by the insertion sweeps so far: the
        #: census's unit of work, independent of vertex degree.
        self.leg_sweep_steps = 0
        self._legs = self._count_legs(live_edges)

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

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def observe_edge(
        self,
        source: VertexId,
        target: VertexId,
        edge_label: str,
        source_label: str,
        target_label: str,
    ) -> None:
        """Count the wedges a new edge forms with the live legs at its endpoints."""
        self._add_leg(source, source_label, (edge_label, "out", target_label))
        if target != source:
            self._add_leg(target, target_label, (edge_label, "in", source_label))

    def _add_leg(self, center: VertexId, center_label: str, leg: StreamLeg) -> None:
        legs = self._legs.get(center)
        if legs is None:
            self._legs[center] = {leg: 1}
            return
        counts = self._counts
        formed = 0
        for other, live in legs.items():
            key = (center_label, (leg, other) if leg <= other else (other, leg))
            counts[key] = counts.get(key, 0) + live
            formed += live
        self._wedges_observed += formed
        self.leg_sweep_steps += len(legs)
        legs[leg] = legs.get(leg, 0) + 1

    def retract_edge(
        self,
        source: VertexId,
        target: VertexId,
        edge_label: str,
        source_label: str,
        target_label: str,
    ) -> Tuple[VertexId, ...]:
        """Drop an evicted edge's legs (given exactly as they were observed).

        Returns the endpoints this left without any live leg.
        """
        emptied: Tuple[VertexId, ...] = ()
        if self._drop_leg(source, (edge_label, "out", target_label)):
            emptied = (source,)
        if target != source and self._drop_leg(target, (edge_label, "in", source_label)):
            emptied += (target,)
        return emptied

    def _drop_leg(self, center: VertexId, leg: StreamLeg) -> bool:
        legs = self._legs[center]
        live = legs[leg] - 1
        if live:
            legs[leg] = live
            return False
        # emptied entries go: a leg or centre that churned through the
        # window must not stay behind as a zero
        del legs[leg]
        if legs:
            return False
        del self._legs[center]
        return True

    def live_legs(self) -> Dict[VertexId, Dict[StreamLeg, int]]:
        """Return a copy of the live leg counters ``{centre: {leg: live edges}}``."""
        return {center: dict(legs) for center, legs in self._legs.items()}

    def observe_graph(self, graph: Union[DynamicGraph, PropertyGraph]) -> None:
        """Run a brute-force census over every wedge of an existing graph.

        Quadratic in degree and independent of the leg counters: this is the
        ground truth the streaming census is tested against.
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
                    self._wedges_observed += 1

    @staticmethod
    def _leg(edge: Edge, center: VertexId, store: PropertyGraph) -> TriadLeg:
        orientation = "out" if edge.source == center else "in"
        leaf = edge.target if edge.source == center else edge.source
        leaf_label = store.vertex(leaf).label if store.has_vertex(leaf) else None
        return (edge.label, orientation, leaf_label)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count(self, key: TriadKey) -> float:
        """Return the number of wedges matching ``key``."""
        return self._counts.get(key, 0)

    def count_wildcard(self, key: TriadKey) -> float:
        """Like :meth:`count` but ``None`` components act as wildcards."""
        center_label, (leg_a, leg_b) = key
        total: float = 0
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

    def total_wedges(self) -> float:
        """Return the total number of wedges observed."""
        return self._wedges_observed

    def frequency(self, key: TriadKey) -> float:
        """Return the relative frequency of a wedge pattern in [0, 1]."""
        if self._wedges_observed == 0:
            return 0.0
        return self.count(key) / self._wedges_observed

    def most_common(self, k: Optional[int] = None) -> List[Tuple[TriadKey, float]]:
        """Return the ``k`` most frequent wedge patterns (ties in key order)."""
        ranked = sorted(self._counts.items(), key=lambda item: (-item[1], item[0]))
        return ranked if k is None else ranked[:k]

    def distinct_patterns(self) -> int:
        """Return the number of distinct wedge patterns seen."""
        return len(self._counts)

    def to_dict(self) -> Dict[str, float]:
        """Serialise into ``{"center|label,orient,leaf|label,orient,leaf": count}``."""
        result: Dict[str, float] = {}
        for (center, legs), count in self._counts.items():
            leg_strs = [",".join(str(part) for part in leg) for leg in legs]
            result[f"{center}|{leg_strs[0]}|{leg_strs[1]}"] = count
        return result

    def state_dict(self) -> Dict[str, Any]:
        """Serialise the cumulative census; the live legs are derived state.

        Counts travel in key order, not insertion order: which wedge key a
        sweep creates first follows the leg dicts' insertion order, and a
        census whose legs were recounted from a restored graph holds the same
        legs in a different order than the run that never stopped.
        """
        return {
            "wedges_observed": self._wedges_observed,
            "leg_sweep_steps": self.leg_sweep_steps,
            "counts": [
                [[center, [list(legs[0]), list(legs[1])]], count]
                for (center, legs), count in sorted(self._counts.items())
            ],
        }

    @classmethod
    def from_state(
        cls, state: Mapping[str, Any], live_edges: Iterable[LiveEdge] = ()
    ) -> "TriadCensus":
        """Rebuild a census from :meth:`state_dict` output plus the live edges.

        Sections written by the retired sampling census also carry
        ``sample_cap`` and ``rng_state``; both are ignored.
        """
        census = cls(live_edges)
        census._wedges_observed = state["wedges_observed"]
        census.leg_sweep_steps = state.get("leg_sweep_steps", 0)
        for (center, (first, second)), count in state["counts"]:
            census._counts[(center, (_leg_from_state(first), _leg_from_state(second)))] = count
        return census

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TriadCensus({len(self._counts)} patterns, {self._wedges_observed:.0f} wedges)"
