"""Match objects: bindings of query vertices/edges to data vertices/edges.

A :class:`Match` is what StreamWorks reports and what its searches
return: every emitted event carries one, and the VF2 matcher
(:mod:`repro.isomorphism.vf2`) and the baselines produce them.  Inside the
continuous matcher a partial match is not a ``Match`` but a flat tuple in
its SJ-tree node's slot layout (:mod:`repro.core.sjtree`), joined by a
compiled plan (:mod:`repro.core.join`); it becomes a ``Match`` when it
completes at the root and is emitted.  A match records

* the vertex binding (query variable -> data vertex id),
* the edge binding (query edge id -> data :class:`Edge` object), and
* its temporal extent (earliest/latest bound edge timestamp).

Matches are value objects: merging two matches produces a new one.  Edge
objects (not just ids) are stored so that a match keeps its timestamps even
after the underlying edge is evicted from the window store.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from ..graph.types import Edge, EdgeId, VertexId

__all__ = ["Match", "MatchConflictError"]


class MatchConflictError(ValueError):
    """Raised when merging two matches whose bindings disagree."""


#: ``dict.get`` default distinguishing "query vertex unbound" from any binding.
_UNBOUND: Any = object()


class Match:
    """A (partial or complete) binding of a query subgraph into the data graph."""

    __slots__ = ("vertex_map", "edge_map", "earliest", "latest")

    def __init__(
        self,
        vertex_map: Optional[Mapping[str, VertexId]] = None,
        edge_map: Optional[Mapping[int, Edge]] = None,
    ) -> None:
        self.vertex_map: Dict[str, VertexId] = dict(vertex_map or {})
        self.edge_map: Dict[int, Edge] = dict(edge_map or {})
        timestamps = [edge.timestamp for edge in self.edge_map.values()]
        # recomputed from the restored edge_map when from_state re-runs
        # this constructor, so not snapshotted
        self.earliest: float = min(timestamps) if timestamps else float("inf")  # repro-lint: ignore[snapshot-coverage]
        self.latest: float = max(timestamps) if timestamps else float("-inf")  # repro-lint: ignore[snapshot-coverage]

    @classmethod
    def _from_parts(
        cls,
        vertex_map: Dict[str, VertexId],
        edge_map: Dict[int, Edge],
        earliest: float,
        latest: float,
    ) -> "Match":
        """Adopt already-validated maps and a known extent: no copy, no rescan.

        Internal to building a match from a laid-out partial and to
        merging: the caller owns ``vertex_map`` / ``edge_map`` (fresh dicts
        nobody else holds) and guarantees ``(earliest, latest)`` is the
        min / max bound timestamp.
        """
        match = cls.__new__(cls)
        match.vertex_map = vertex_map
        match.edge_map = edge_map
        match.earliest = earliest
        match.latest = latest
        return match

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def span(self) -> float:
        """Return the temporal extent τ of the match (0 for empty matches)."""
        if not self.edge_map:
            return 0.0
        return self.latest - self.earliest

    @property
    def size(self) -> int:
        """Return the number of bound query edges."""
        return len(self.edge_map)

    def vertex_binding(self, query_vertex: str) -> Optional[VertexId]:
        """Return the data vertex bound to ``query_vertex`` (``None`` if unbound)."""
        return self.vertex_map.get(query_vertex)

    def edge_binding(self, query_edge_id: int) -> Optional[Edge]:
        """Return the data edge bound to the query edge id (``None`` if unbound)."""
        return self.edge_map.get(query_edge_id)

    def bound_vertices(self) -> Iterable[str]:
        """Return the bound query vertex names."""
        return self.vertex_map.keys()

    def bound_edges(self) -> Iterable[int]:
        """Return the bound query edge ids."""
        return self.edge_map.keys()

    def data_vertex_ids(self) -> FrozenSet[VertexId]:
        """Return the set of data vertex ids used by the match."""
        return frozenset(self.vertex_map.values())

    def data_edge_ids(self) -> FrozenSet[EdgeId]:
        """Return the set of data edge ids used by the match."""
        return frozenset(edge.id for edge in self.edge_map.values())

    def uses_data_edge(self, edge_id: EdgeId) -> bool:
        """Return ``True`` when the match binds the given data edge id."""
        return any(edge.id == edge_id for edge in self.edge_map.values())

    def is_injective(self) -> bool:
        """Return ``True`` when distinct query vertices map to distinct data vertices."""
        return len(set(self.vertex_map.values())) == len(self.vertex_map)

    # ------------------------------------------------------------------
    # extension and merging
    # ------------------------------------------------------------------
    def with_binding(
        self,
        query_edge_id: int,
        data_edge: Edge,
        vertex_bindings: Mapping[str, VertexId],
    ) -> "Match":
        """Return a new match extended with one edge binding and its vertex bindings.

        Raises
        ------
        MatchConflictError
            If any of the new vertex bindings contradicts an existing one, or
            if injectivity would be violated, or if the data edge is already
            bound to a different query edge.
        """
        new_vertex_map = dict(self.vertex_map)
        bound_data_vertices = set(self.vertex_map.values())
        for query_vertex, data_vertex in vertex_bindings.items():
            existing = new_vertex_map.get(query_vertex)
            if existing is not None:
                if existing != data_vertex:
                    raise MatchConflictError(
                        f"query vertex {query_vertex!r} already bound to {existing!r}, "
                        f"cannot rebind to {data_vertex!r}"
                    )
                continue
            if data_vertex in bound_data_vertices:
                raise MatchConflictError(
                    f"data vertex {data_vertex!r} already used by another query vertex"
                )
            new_vertex_map[query_vertex] = data_vertex
            bound_data_vertices.add(data_vertex)
        if query_edge_id in self.edge_map:
            raise MatchConflictError(f"query edge {query_edge_id} is already bound")
        for bound in self.edge_map.values():
            if bound.id == data_edge.id:
                raise MatchConflictError(
                    f"data edge {data_edge.id} already bound to another query edge"
                )
        new_edge_map = dict(self.edge_map)
        new_edge_map[query_edge_id] = data_edge
        timestamp = data_edge.timestamp
        return Match._from_parts(
            new_vertex_map,
            new_edge_map,
            timestamp if timestamp < self.earliest else self.earliest,
            timestamp if timestamp > self.latest else self.latest,
        )

    def is_compatible(self, other: "Match") -> bool:
        """Return ``True`` when two matches can be merged into a valid larger match.

        Compatibility requires:

        * query vertices bound in both matches map to the same data vertex;
        * query vertices bound in only one of the matches do not collide with
          data vertices used by the other (injectivity of the merged map);
        * query edges bound in both matches map to the same data edge;
        * data edges are not shared across *different* query edges.

        The maps are a handful of entries, so membership is tested by scanning
        the other side's values directly instead of materialising sets.
        """
        mine, theirs = self.vertex_map, other.vertex_map
        their_values = theirs.values()
        only: list = []
        for query_vertex, data_vertex in mine.items():
            other_binding = theirs.get(query_vertex, _UNBOUND)
            if other_binding is _UNBOUND:
                # bound here only: must not collide with anything over there,
                # nor with another vertex bound here only
                if data_vertex in their_values or data_vertex in only:
                    return False
                only.append(data_vertex)
            elif other_binding is not None and other_binding != data_vertex:
                return False
        if len(theirs) + len(only) > len(mine):  # some vertex is bound there only
            my_values = mine.values()
            only = []
            for query_vertex, data_vertex in theirs.items():
                if query_vertex not in mine:
                    if data_vertex in my_values or data_vertex in only:
                        return False
                    only.append(data_vertex)
        # shared query edges must agree; distinct query edges need distinct data edges
        my_edges, their_edges = self.edge_map, other.edge_map
        for query_edge_id, data_edge in my_edges.items():
            other_edge = their_edges.get(query_edge_id)
            if other_edge is not None:
                if other_edge.id != data_edge.id:
                    return False
                continue
            edge_id = data_edge.id
            for other_query_edge_id, candidate in their_edges.items():
                if candidate.id == edge_id and other_query_edge_id not in my_edges:
                    return False
        return True

    def _merge_unchecked(self, other: "Match") -> "Match":
        """Merge with a match the caller has already found compatible.

        The merged extent is derived from the two inputs' extents, so no
        timestamp is re-read; map orders are ``self``'s entries followed by
        ``other``'s new ones, as :meth:`merge` has always produced.
        """
        return Match._from_parts(
            {**self.vertex_map, **other.vertex_map},
            {**self.edge_map, **other.edge_map},
            self.earliest if self.earliest < other.earliest else other.earliest,
            self.latest if self.latest > other.latest else other.latest,
        )

    def merge(self, other: "Match") -> "Match":
        """Merge two compatible matches into a larger one.

        Raises
        ------
        MatchConflictError
            When :meth:`is_compatible` is ``False``.
        """
        if not self.is_compatible(other):
            raise MatchConflictError("matches are not compatible")
        return self._merge_unchecked(other)

    # ------------------------------------------------------------------
    # keys, identity and presentation
    # ------------------------------------------------------------------
    def projection_key(self, query_vertices: Sequence[str]) -> Tuple[VertexId, ...]:
        """Return the tuple of data vertices bound to the given query vertices.

        Two matches can only combine when they agree on their shared
        vertices, so this projection is a join key.  Unbound variables
        appear as ``None``.
        """
        return tuple(self.vertex_map.get(name) for name in query_vertices)

    def identity(self) -> Tuple[FrozenSet[Tuple[str, VertexId]], FrozenSet[Tuple[int, EdgeId]]]:
        """Return a hashable identity for duplicate detection."""
        return (
            frozenset(self.vertex_map.items()),
            frozenset((qe, edge.id) for qe, edge in self.edge_map.items()),
        )

    def structural_identity(self) -> FrozenSet[EdgeId]:
        """Return the set of data edge ids -- identity up to query automorphisms."""
        return self.data_edge_ids()

    def portable_identity(self) -> Tuple:
        """Return a hashable identity independent of graph-local edge ids.

        :meth:`identity` keys on the data edge ids assigned by the ingesting
        graph, which makes it unusable for comparing matches found by *two
        different* engines over the same stream (e.g. a sharded engine,
        whose shards each assign their own local ids, against a single
        engine).  This variant keys every bound edge on its content --
        ``(source, target, label, timestamp)`` -- which the stream fixes
        identically for every consumer.  Two ingested copies of the same
        record are indistinguishable here, so conformance comparisons should
        compare ordered lists (multisets), not sets.
        """
        return (
            frozenset(self.vertex_map.items()),
            tuple(
                sorted(
                    (qe, edge.source, edge.target, edge.label, edge.timestamp)
                    for qe, edge in self.edge_map.items()
                )
            ),
        )

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, list]:
        """Serialise the match into a JSON-friendly state dict.

        Bound data edges are stored *by content* (id, endpoints, label,
        timestamp, attrs), not by reference: partial matches legitimately
        outlive their edges in the window store, so a restore rebuilds
        independent :class:`Edge` values.  Map iteration orders are
        preserved (``vertex_map``/``edge_map`` are rebuilt in the same
        order they were serialised in).
        """
        return {
            "v": [[name, vertex] for name, vertex in self.vertex_map.items()],
            "e": [[query_edge, edge.to_dict()] for query_edge, edge in self.edge_map.items()],
        }

    @classmethod
    def from_state(cls, state: Mapping[str, list]) -> "Match":
        """Rebuild a match from :meth:`state_dict` output."""
        return cls(
            {name: vertex for name, vertex in state["v"]},
            {query_edge: Edge.from_dict(payload) for query_edge, payload in state["e"]},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.identity() == other.identity()

    def __hash__(self) -> int:
        return hash(self.identity())

    def __len__(self) -> int:
        return len(self.edge_map)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vertices = ", ".join(f"{qv}={dv!r}" for qv, dv in sorted(self.vertex_map.items(), key=lambda kv: kv[0]))
        return f"Match({{{vertices}}}, edges={sorted(e.id for e in self.edge_map.values())})"

    def describe(self) -> str:
        """Return a one-line human readable description."""
        vertices = ", ".join(
            f"{qv}->{dv}" for qv, dv in sorted(self.vertex_map.items(), key=lambda kv: kv[0])
        )
        return f"[{vertices}] span={self.span:.3f}"
