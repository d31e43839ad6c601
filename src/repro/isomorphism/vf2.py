"""Backtracking subgraph-isomorphism matcher.

This is the static search substrate: a VF2-style backtracking enumerator of
all isomorphic embeddings of a query graph inside a data graph.  It serves
three roles in the reproduction:

* the *repeated search* baseline (re-run the full search per batch, the
  strategy the paper contrasts its incremental algorithm with);
* the *local search* at SJ-Tree leaves -- searching for a small primitive in
  the neighbourhood of a new edge is just a seeded run of the same
  enumerator;
* the *test oracle* -- the incremental engine's cumulative results are
  checked against this matcher in the integration tests.

The matcher proceeds edge-at-a-time rather than vertex-at-a-time: dynamic
graphs are multigraphs (many parallel flows between the same two hosts) and
distinct parallel edges give distinct matches with different temporal
extents, so edges are the right unit of binding.  An optional
:class:`~repro.graph.window.TimeWindow` prunes partial bindings whose span
already exceeds the query window.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..graph.types import Direction, Edge, VertexId
from ..graph.window import TimeWindow
from ..query.compile import CompiledQuery
from ..query.query_graph import QueryEdge, QueryGraph
from .candidates import (
    count_label_candidates,
    edge_orientations,
    edge_satisfies,
    vertex_satisfies,
)
from .match import Match, MatchConflictError

__all__ = ["SubgraphMatcher"]


class SubgraphMatcher:
    """Enumerate embeddings of query graphs in a (possibly windowed) data graph.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.property_graph.PropertyGraph` or
        :class:`~repro.graph.dynamic_graph.DynamicGraph`; only the shared read
        API is used.
    window:
        Optional time window; matches whose temporal extent is inadmissible
        are pruned during search.
    compiled:
        Optional :class:`~repro.query.compile.CompiledQuery` for the query
        being searched (the streaming local search always passes one).
        When set, predicate checks
        go through the pre-compiled closures instead of interpreting the
        predicate trees, and candidate enumeration for partially-bound
        matches under a bounded window uses the graph's sorted-array
        timestamp range scans (a superset prefilter -- the exact span check
        in :meth:`_try_bind` is unchanged, so the match set and enumeration
        order are byte-identical to the interpreted path).  ``None``
        (default) interprets the predicate trees: the static reference the
        baselines and the test oracles search with.
    """

    def __init__(
        self,
        graph,
        window: Optional[TimeWindow] = None,
        compiled: Optional[CompiledQuery] = None,
    ):
        self.graph = graph
        self.window = window if window is not None else TimeWindow(None)
        self._compiled = compiled

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def find_matches(
        self,
        query: QueryGraph,
        seed: Optional[Match] = None,
        limit: Optional[int] = None,
        id_bound: Optional[int] = None,
    ) -> Iterator[Match]:
        """Yield matches of ``query``, optionally extending a partial ``seed``.

        Parameters
        ----------
        query:
            The pattern to search for.
        seed:
            A partial match whose bindings are kept fixed; only the remaining
            query edges are searched.  This is how the SJ-Tree local search
            anchors the primitive on a newly arrived edge.
        limit:
            Stop after this many matches (``None`` = enumerate all).
        id_bound:
            Bind only data edges whose id is below this one.  The local
            search passes its seed edge's id, so an embedding is found only
            at its newest edge; ``None`` (static search) binds any edge.
        """
        match = seed if seed is not None else Match()
        if self.window.bounded and match.edge_map and not self.window.admits_span(match.span):
            return
        order = self._edge_order(query, match)
        count = 0
        for result in self._extend(query, order, 0, match, id_bound):
            yield result
            count += 1
            if limit is not None and count >= limit:
                return

    def find_all(
        self,
        query: QueryGraph,
        seed: Optional[Match] = None,
        limit: Optional[int] = None,
    ) -> List[Match]:
        """Return :meth:`find_matches` as a list."""
        return list(self.find_matches(query, seed=seed, limit=limit))

    def count_matches(self, query: QueryGraph, seed: Optional[Match] = None) -> int:
        """Return the number of embeddings (enumerating them all)."""
        return sum(1 for _ in self.find_matches(query, seed=seed))

    def exists(self, query: QueryGraph, seed: Optional[Match] = None) -> bool:
        """Return ``True`` when at least one embedding exists."""
        for _ in self.find_matches(query, seed=seed, limit=1):
            return True
        return False

    # ------------------------------------------------------------------
    # search order
    # ------------------------------------------------------------------
    def _edge_order(self, query: QueryGraph, seed: Match) -> List[QueryEdge]:
        """Return the unbound query edges in a connectivity-aware order.

        The first edge is the one with the fewest label candidates in the
        data graph (cheap selectivity proxy); subsequent edges are chosen so
        that they touch an already-bound query vertex whenever possible,
        keeping candidate enumeration local.
        """
        unbound = [edge for edge in query.edges() if edge.id not in seed.edge_map]
        if not unbound:
            return []
        bound_vertices: Set[str] = set(seed.vertex_map.keys())
        for edge_id in seed.edge_map:
            if query.has_edge(edge_id):
                bound_vertices.update(query.edge(edge_id).endpoints)

        remaining = {edge.id: edge for edge in unbound}
        order: List[QueryEdge] = []

        def candidate_cost(edge: QueryEdge) -> Tuple[int, int]:
            touches = edge.source in bound_vertices or edge.target in bound_vertices
            return (0 if touches else 1, count_label_candidates(self.graph, query, edge))

        while remaining:
            next_edge = min(remaining.values(), key=candidate_cost)
            order.append(next_edge)
            del remaining[next_edge.id]
            bound_vertices.update(next_edge.endpoints)
        return order

    # ------------------------------------------------------------------
    # backtracking core
    # ------------------------------------------------------------------
    def _extend(
        self,
        query: QueryGraph,
        order: Sequence[QueryEdge],
        index: int,
        match: Match,
        id_bound: Optional[int],
    ) -> Iterator[Match]:
        if index == len(order):
            yield match
            return
        query_edge = order[index]
        for extended in self._bind_edge(query, query_edge, match, id_bound):
            yield from self._extend(query, order, index + 1, extended, id_bound)

    def _bind_edge(
        self, query: QueryGraph, query_edge: QueryEdge, match: Match, id_bound: Optional[int]
    ) -> Iterator[Match]:
        """Yield extensions of ``match`` with one binding for ``query_edge``."""
        source_binding = match.vertex_binding(query_edge.source)
        target_binding = match.vertex_binding(query_edge.target)

        if source_binding is not None and target_binding is not None:
            candidates = self._edges_between(source_binding, target_binding, query_edge)
        elif source_binding is not None:
            candidates = self._edges_from_anchor(
                source_binding, query_edge, anchored_on_source=True, match=match
            )
        elif target_binding is not None:
            candidates = self._edges_from_anchor(
                target_binding, query_edge, anchored_on_source=False, match=match
            )
        else:
            candidates = self._all_label_edges(query_edge, match)

        for data_edge in candidates:
            if id_bound is not None and data_edge.id >= id_bound:
                continue
            yield from self._try_bind(query, query_edge, data_edge, match)

    def _try_bind(
        self,
        query: QueryGraph,
        query_edge: QueryEdge,
        data_edge: Edge,
        match: Match,
    ) -> Iterator[Match]:
        """Attempt all admissible orientations of ``data_edge`` for ``query_edge``."""
        compiled = self._compiled
        if compiled is not None:
            if not compiled.edge_ok(query_edge, data_edge.label, data_edge.attrs):
                return
        elif not edge_satisfies(data_edge, query_edge):
            return
        if any(bound.id == data_edge.id for bound in match.edge_map.values()):
            return
        if self.window.bounded and match.edge_map:
            combined_span = max(match.latest, data_edge.timestamp) - min(
                match.earliest, data_edge.timestamp
            )
            if not self.window.admits_span(combined_span):
                return
        source_var = query_edge.source
        target_var = query_edge.target
        for source_vertex, target_vertex in edge_orientations(data_edge, query_edge):
            # self-loop query edges need a self-loop data edge and vice versa
            if (source_var == target_var) != (source_vertex == target_vertex):
                continue
            existing_source = match.vertex_binding(source_var)
            existing_target = match.vertex_binding(target_var)
            if existing_source is not None and existing_source != source_vertex:
                continue
            if existing_target is not None and existing_target != target_vertex:
                continue
            if not self._vertex_ok(query, source_var, source_vertex):
                continue
            if not self._vertex_ok(query, target_var, target_vertex):
                continue
            bindings = {source_var: source_vertex, target_var: target_vertex}
            try:
                yield match.with_binding(query_edge.id, data_edge, bindings)
            except MatchConflictError:
                continue

    def _vertex_ok(self, query: QueryGraph, var: str, vertex_id: VertexId) -> bool:
        """Check a candidate vertex binding (compiled tables when available)."""
        compiled = self._compiled
        if compiled is None:
            return vertex_satisfies(self.graph, vertex_id, query.vertex(var))
        if not self.graph.has_vertex(vertex_id):
            return False
        vertex = self.graph.vertex(vertex_id)
        return compiled.vertex_ok(query.vertex(var), vertex.label, vertex.attrs)

    # ------------------------------------------------------------------
    # candidate edge enumeration
    # ------------------------------------------------------------------
    def _time_bounds(self, match: Match) -> Optional[Tuple[float, float]]:
        """Return the admissible candidate timestamp range for extending ``match``.

        Any edge joining a non-empty partial under a bounded window must have
        ``max(latest, ts) - min(earliest, ts)`` admissible, so its timestamp
        lies inside ``[latest - W, earliest + W]``.  The bounds are inclusive
        -- a *superset* of the admissible range -- because the exact span
        check in :meth:`_try_bind` still runs on every candidate; the range
        only skips edges that could never pass it.
        """
        if not self.window.bounded or not match.edge_map:
            return None
        duration = self.window.duration
        return (match.latest - duration, match.earliest + duration)

    def _edges_between(self, source: VertexId, target: VertexId, query_edge: QueryEdge) -> Iterator[Edge]:
        if not self.graph.has_vertex(source):
            return
        for edge in self.graph.incident_edges(source, Direction.OUT, query_edge.label):
            if edge.target == target:
                yield edge
        # source == target asks for self loops, which the OUT pass has
        # already listed in full: the store files a loop under both
        # directions, so an IN pass would yield each one a second time
        if not query_edge.directed and source != target:
            for edge in self.graph.incident_edges(source, Direction.IN, query_edge.label):
                if edge.source == target:
                    yield edge

    def _edges_from_anchor(
        self,
        anchor: VertexId,
        query_edge: QueryEdge,
        anchored_on_source: bool,
        match: Match,
    ) -> Iterator[Edge]:
        if not self.graph.has_vertex(anchor):
            return
        if query_edge.directed:
            direction = Direction.OUT if anchored_on_source else Direction.IN
        else:
            direction = Direction.BOTH
        if self._compiled is not None and query_edge.label is not None:
            bounds = self._time_bounds(match)
            if bounds is not None:
                scanned = self.graph.incident_edges_in_range(
                    anchor, direction, query_edge.label, bounds[0], bounds[1]
                )
                if scanned is not None:
                    yield from scanned
                    return
        if direction != Direction.BOTH:
            yield from self.graph.incident_edges(anchor, direction, query_edge.label)
            return
        # every candidate once: a data self loop sits in the anchor's OUT
        # and IN slots alike, so the IN pass skips the ones OUT listed
        yield from self.graph.incident_edges(anchor, Direction.OUT, query_edge.label)
        for edge in self.graph.incident_edges(anchor, Direction.IN, query_edge.label):
            if edge.source != anchor:
                yield edge

    def _all_label_edges(self, query_edge: QueryEdge, match: Match) -> Iterator[Edge]:
        if self._compiled is not None and query_edge.label is not None:
            bounds = self._time_bounds(match)
            if bounds is not None:
                yield from self.graph.edges_in_range(query_edge.label, bounds[0], bounds[1])
                return
        yield from self.graph.edges(query_edge.label)
