"""Local search: find primitive matches anchored on a newly-arrived edge.

Paper section 4.1 uses the term *local search* for "a subgraph search
performed in the neighborhood of an edge in the data graph for a small query
subgraph".  This module implements exactly that: given a search primitive
(an SJ-Tree leaf subgraph) and the edge that just arrived, enumerate every
embedding of the primitive that *uses the new edge*.

Restricting the search to embeddings containing the new edge is what makes
the whole algorithm incremental: embeddings made entirely of old edges were
already found when their own last edge arrived, so re-finding them would both
waste time and create duplicates.

The enumeration seeds the generic backtracking matcher with a binding of the
new edge onto each query edge of the primitive it can legally play, then lets
the matcher complete the rest of the primitive within the window.  On the
compiled path, primitives of one or two directed, labelled edges are lowered
once, at construction, into straight-line probes (:mod:`repro.core.probe`)
that return the same list without running the generic machinery.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from ..graph.types import Edge, VertexId
from ..graph.window import TimeWindow
from ..isomorphism.candidates import edge_orientations, edge_satisfies, vertex_satisfies
from ..isomorphism.match import Match, MatchConflictError
from ..isomorphism.vf2 import SubgraphMatcher
from ..query.compile import CompiledQuery
from ..query.query_graph import QueryGraph, QueryVertex
from .probe import Probe, compile_probe, run_role

__all__ = ["LocalSearcher", "find_primitive_matches"]


class LocalSearcher:
    """Enumerates primitive matches anchored on new edges against one data graph.

    ``compiled`` carries the owning query's pre-compiled predicate tables
    (the columnar hot path); ``None`` keeps the interpreted path verbatim.
    The primitives searched here share the original query's ``QueryVertex``
    / ``QueryEdge`` objects, so one compiled table serves every primitive.
    ``primitives`` names the ones :meth:`find` will be asked for (the owning
    SJ-tree's leaves): each lowerable one gets its probe here, once.
    """

    def __init__(
        self,
        graph: Any,
        window: Optional[TimeWindow] = None,
        compiled: Optional[CompiledQuery] = None,
        primitives: Iterable[QueryGraph] = (),
    ) -> None:
        self.graph = graph
        self.window = window if window is not None else TimeWindow(None)
        self.compiled = compiled
        self._matcher = SubgraphMatcher(graph, self.window, compiled=compiled)
        #: Number of seeded backtracking searches performed (benchmark counter).
        self.searches_started = 0
        #: Number of primitive matches produced (benchmark counter).
        self.matches_found = 0
        #: Partner-edge candidates the compiled probes have looked at: what
        #: one ``find`` adds must depend on the window, not on how much
        #: history the anchor vertex retains.
        self.candidates_examined = 0
        # keyed by the primitive object itself: the owning tree keeps it alive
        self._probes: Dict[QueryGraph, Probe] = {}
        for primitive in primitives:
            probe = compile_probe(self, primitive)
            if probe is not None:
                self._probes[primitive] = probe

    def _vertex_ok(self, query_vertex: QueryVertex, vertex_id: VertexId) -> bool:
        """Compiled-table vertex check (only called when ``compiled`` is set)."""
        assert self.compiled is not None
        if not self.graph.has_vertex(vertex_id):
            return False
        vertex = self.graph.vertex(vertex_id)
        return self.compiled.vertex_ok(query_vertex, vertex.label, vertex.attrs)

    def seeds(self, primitive: QueryGraph, new_edge: Edge) -> Iterator[Match]:
        """Yield one-edge matches binding ``new_edge`` to each compatible query edge."""
        compiled = self.compiled
        for query_edge in primitive.edges():
            if compiled is not None:
                if not compiled.edge_ok(query_edge, new_edge.label, new_edge.attrs):
                    continue
            elif not edge_satisfies(new_edge, query_edge):
                continue
            source_var, target_var = query_edge.source, query_edge.target
            for source_vertex, target_vertex in edge_orientations(new_edge, query_edge):
                if (source_var == target_var) != (source_vertex == target_vertex):
                    continue
                if compiled is not None:
                    if not self._vertex_ok(primitive.vertex(source_var), source_vertex):
                        continue
                    if not self._vertex_ok(primitive.vertex(target_var), target_vertex):
                        continue
                elif not vertex_satisfies(self.graph, source_vertex, primitive.vertex(source_var)):
                    continue
                elif not vertex_satisfies(self.graph, target_vertex, primitive.vertex(target_var)):
                    continue
                try:
                    yield Match().with_binding(
                        query_edge.id,
                        new_edge,
                        {source_var: source_vertex, target_var: target_vertex},
                    )
                except MatchConflictError:
                    continue

    def find(self, primitive: QueryGraph, new_edge: Edge) -> List[Match]:
        """Return all embeddings of ``primitive`` that include ``new_edge``.

        No two results share a binding identity, without any bookkeeping:
        seeds differ in the query edge ``new_edge`` plays (or in its
        orientation), the completions of one seed differ in a data edge (or
        its orientation), and candidate enumeration lists every data edge
        once.
        """
        results: List[Match] = []
        probe = self._probes.get(primitive)
        if probe is not None:
            for spec in probe.get(new_edge.label, ()):
                run_role(self, spec, new_edge, results)
            return results
        for seed in self.seeds(primitive, new_edge):
            self.searches_started += 1
            for match in self._matcher.find_matches(primitive, seed=seed):
                results.append(match)
                self.matches_found += 1
        return results


def find_primitive_matches(
    graph: Any,
    primitive: QueryGraph,
    new_edge: Edge,
    window: Optional[TimeWindow] = None,
) -> List[Match]:
    """Convenience wrapper: one-shot local search without keeping counters."""
    return LocalSearcher(graph, window).find(primitive, new_edge)
