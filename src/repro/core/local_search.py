"""Local search: find primitive matches anchored on a newly-arrived edge.

Paper section 4.1 uses the term *local search* for "a subgraph search
performed in the neighborhood of an edge in the data graph for a small query
subgraph".  This module implements exactly that: given a search primitive
(an SJ-Tree leaf subgraph) and the edge that just arrived, enumerate every
embedding of the primitive that *uses the new edge*.

Restricting the search to embeddings containing the new edge is what makes
the whole algorithm incremental: embeddings made entirely of old edges were
already found when their own last edge arrived, so re-finding them would both
waste time and create duplicates.  The restriction is taken one step
further, to the *newest-edge rule*: a search seeded at edge ``e`` binds
partner edges only when their ingest id is below ``e.id``.  The engine
stores a whole run before searching it, so without the rule a two-edge
embedding whose edges both fall in the run would be found once from each;
with it every embedding is found exactly once, at its newest edge, and no
memory of what was already found is needed.  Ingest ids, not timestamps,
order the edges, so a late record is simply the newest edge of whatever
embeddings it completes.

A lazy SJ-tree leaf (:mod:`repro.core.matcher`) is also searched the other
way round: :meth:`LocalSearcher.find_directed` lists the embeddings that
bind the leaf's cut vertices to a sibling partial's, reading only edges
older (by ingest id) than that partial's newest edge.

The enumeration seeds the generic backtracking matcher with a binding of the
new edge onto each query edge of the primitive it can legally play, then lets
the matcher complete the rest of the primitive within the window.  Every
check runs on the owning query's compiled predicate tables.  Primitives of
one or two directed, labelled edges are lowered once, at construction, into
straight-line probes (:mod:`repro.core.probe`) that return the same list
without running the generic machinery.

Either way an embedding is returned as a partial: a flat tuple in the
primitive's :class:`~repro.core.sjtree.SlotLayout`, the form the SJ-tree
stores.  The probes build it directly; the generic search lays out each
:class:`~repro.isomorphism.match.Match` it finds, once, on the way out.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..graph.adjacency import VertexRecord
from ..graph.dynamic_graph import DynamicGraph
from ..graph.property_graph import PropertyGraph
from ..graph.types import Edge, EdgeNotFoundError, VertexId
from ..graph.window import TimeWindow
from ..isomorphism.candidates import edge_orientations
from ..isomorphism.match import Match, MatchConflictError
from ..isomorphism.vf2 import SubgraphMatcher
from ..query.compile import CompiledQuery
from ..query.query_graph import QueryGraph, QueryVertex
from .probe import DirectedProbe, Probe, compile_directed, compile_probe, run_role
from .sjtree import Partial, SlotLayout

__all__ = ["LocalSearcher", "find_primitive_matches"]


class LocalSearcher:
    """Enumerates primitive matches anchored on new edges against one data graph.

    ``compiled`` carries the owning query's pre-compiled predicate tables.
    The primitives searched here share the original query's ``QueryVertex``
    / ``QueryEdge`` objects, so one compiled table serves every primitive.
    ``primitives`` names the ones :meth:`find` will be asked for (the owning
    SJ-tree's leaves): each lowerable one gets its probe here, once.
    ``layouts`` gives their slot layouts where the caller already holds
    them; any other primitive's is derived here.

    ``graph`` is a :class:`~repro.graph.dynamic_graph.DynamicGraph` or a
    bare :class:`~repro.graph.property_graph.PropertyGraph`.  The
    searches read the property graph underneath (:attr:`store`) directly:
    its vertex records by id, and its adjacency slots through one call per
    partner scan.
    """

    def __init__(
        self,
        graph: Any,
        window: Optional[TimeWindow],
        compiled: CompiledQuery,
        primitives: Iterable[QueryGraph] = (),
        layouts: Optional[Dict[QueryGraph, SlotLayout]] = None,
    ) -> None:
        #: The property graph the searches read (``graph`` itself, or the one
        #: a windowed store wraps).  Its record map is never rebound, only
        #: mutated, so :attr:`vertices` stays the live map.
        self.store: PropertyGraph = graph.graph if isinstance(graph, DynamicGraph) else graph
        self.vertices: Dict[VertexId, VertexRecord] = self.store._vertices
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
        # directed searches lowered onto a role, per primitive, built at
        # first use (``None``: the primitive keeps the generic search)
        self._directed: Dict[QueryGraph, Optional[DirectedProbe]] = {}
        # the caller's map is adopted, and completed below where it lacks one
        self._layouts: Dict[QueryGraph, SlotLayout] = {} if layouts is None else layouts
        for primitive in primitives:
            layout = self._layouts.get(primitive)
            if layout is None:
                layout = self._layouts[primitive] = SlotLayout.of(primitive)
            probe = compile_probe(self, primitive, layout)
            if probe is not None:
                self._probes[primitive] = probe

    def _vertex_ok(self, query_vertex: QueryVertex, vertex_id: VertexId) -> bool:
        """Compiled-table vertex check against the stored vertex (one record read)."""
        vertex = self.vertices.get(vertex_id)
        if vertex is None:
            return False
        return self.compiled.vertex_ok(query_vertex, vertex.label, vertex.attrs)

    def seeds(self, primitive: QueryGraph, new_edge: Edge) -> Iterator[Match]:
        """Yield one-edge matches binding ``new_edge`` to each compatible query edge."""
        for query_edge in primitive.edges():
            if not self.compiled.edge_ok(query_edge, new_edge.label, new_edge.attrs):
                continue
            source_var, target_var = query_edge.source, query_edge.target
            for source_vertex, target_vertex in edge_orientations(new_edge, query_edge):
                if (source_var == target_var) != (source_vertex == target_vertex):
                    continue
                if not self._vertex_ok(primitive.vertex(source_var), source_vertex):
                    continue
                if not self._vertex_ok(primitive.vertex(target_var), target_vertex):
                    continue
                try:
                    yield Match().with_binding(
                        query_edge.id,
                        new_edge,
                        {source_var: source_vertex, target_var: target_vertex},
                    )
                except MatchConflictError:
                    continue

    def find(self, primitive: QueryGraph, new_edge: Edge) -> List[Partial]:
        """Return all embeddings of ``primitive`` that include ``new_edge``, as partials.

        Each is a tuple in the primitive's slot layout (the one given at
        construction, else ``SlotLayout.of(primitive)``).  Only embeddings
        whose other edges all have smaller ids are returned
        (the newest-edge rule), so over a stream each embedding is returned
        by exactly one ``find``.  No two results share a binding identity,
        without any bookkeeping: seeds differ in the query edge ``new_edge``
        plays (or in its orientation), the completions of one seed differ in
        a data edge (or its orientation), and candidate enumeration lists
        every data edge once.

        ``new_edge`` must be an edge of the searched store (the object
        ingest returned, not yet evicted): the probes read its endpoints as
        stored vertices without checking (:func:`~repro.core.probe.run_role`).
        """
        results: List[Partial] = []
        probe = self._probes.get(primitive)
        if probe is not None:
            for spec in probe.get(new_edge.label, ()):
                run_role(self, spec, new_edge, results)
            return results
        layout = self._layout(primitive)
        for seed in self.seeds(primitive, new_edge):
            self.searches_started += 1
            for match in self._matcher.find_matches(primitive, seed=seed, id_bound=new_edge.id):
                results.append(layout.from_maps(match.vertex_map, match.edge_map))
                self.matches_found += 1
        return results

    def find_directed(
        self,
        primitive: QueryGraph,
        key_vertices: Tuple[str, ...],
        key: Any,
        id_bound: int,
        low: float,
        high: float,
    ) -> List[Partial]:
        """Embeddings of ``primitive`` binding the key's first vertex, every edge below ``id_bound``.

        ``key`` is a bucket key over ``key_vertices`` (a bare vertex id for
        one vertex, else a tuple).  The search starts from the first key
        vertex's data vertex: the edges there that can play the first
        query edge touching it are each completed with partners below
        ``id_bound``.  So every embedding binding that vertex whose edges
        all precede ``id_bound`` is returned once; one binding another key
        vertex elsewhere may be among them, and the caller's key test drops
        it.  A lowered primitive reads only the starting edges with
        timestamps in ``[low, high]`` (an inclusive prefilter: the caller's
        join decides), the generic search all of them.
        """
        anchors = dict(zip(key_vertices, key)) if len(key_vertices) > 1 else {key_vertices[0]: key}
        results: List[Partial] = []
        if primitive in self._directed:
            plan = self._directed[primitive]
        else:
            plan = self._directed[primitive] = compile_directed(
                self, primitive, self._layout(primitive), key_vertices[0]
            )
        if plan is not None:
            anchor, direction, label, spec = plan
            vertex = anchors[anchor]
            store = self.store
            candidates: Optional[List[Edge]] = None
            if self.window.bounded:
                candidates = store.incident_edges_in_range(vertex, direction, label, low, high)
            if candidates is None:
                candidates = list(store.incident_edges(vertex, direction, label))
            for edge in candidates:
                if edge.id < id_bound:
                    run_role(self, spec, edge, results, id_bound)
            return results
        layout = self._layout(primitive)
        self.searches_started += 1
        seed = Match._from_parts(anchors, {}, float("inf"), float("-inf"))
        for match in self._matcher.find_matches(primitive, seed=seed, id_bound=id_bound):
            results.append(layout.from_maps(match.vertex_map, match.edge_map))
            self.matches_found += 1
        return results

    def _layout(self, primitive: QueryGraph) -> SlotLayout:
        return self._layouts.get(primitive) or SlotLayout.of(primitive)


def find_primitive_matches(
    graph: Any,
    primitive: QueryGraph,
    new_edge: Edge,
    window: Optional[TimeWindow] = None,
) -> List[Match]:
    """Convenience wrapper: one-shot local search, embeddings as :class:`Match` objects.

    ``new_edge`` must be the edge ``graph`` stores under its id (what
    ingest returned); anything else raises
    :class:`~repro.graph.types.EdgeNotFoundError`.
    """
    if graph.edge(new_edge.id) is not new_edge:
        raise EdgeNotFoundError(new_edge.id)
    layout = SlotLayout.of(primitive)
    searcher = LocalSearcher(graph, window, CompiledQuery(primitive))
    return [layout.to_match(partial) for partial in searcher.find(primitive, new_edge)]
