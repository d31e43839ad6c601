"""Compiled primitive probes: straight-line local search for 1-2-edge leaves.

Every primitive the default decompositions produce is one or two directed,
labelled edges.  Running the generic seeded backtracking matcher over such a
shape spends its time on machinery the shape never needs -- a search order
over one remaining edge, a generator per recursion level, a binding rebuilt
(and its timestamps re-scanned) per step.  Everything that machinery decides
is known when the matcher is built: which endpoint of the new edge the
partner edge hangs off, in which direction, which vertex is still free,
which checks apply.

:func:`compile_probe` does that deciding once per SJ-tree leaf and records it
as one :data:`RoleSpec` per query edge the new edge can play; :func:`run_role`
is the one straight-line routine that executes a spec.  It runs the same
tests as :meth:`LocalSearcher.seeds
<repro.core.local_search.LocalSearcher.seeds>` plus
:meth:`SubgraphMatcher.find_matches
<repro.isomorphism.vf2.SubgraphMatcher.find_matches>`, in the same order over
the same candidate enumeration, so its result list -- order included, once
the generic path's matches are laid out as partials -- and
the ``searches_started`` / ``matches_found`` counters are those of the
generic path (``tests/test_local_search_join.py`` holds the differential).
Both bind a partner edge only when its ingest id is below the new edge's
(the newest-edge rule, :mod:`repro.core.local_search`).

A spec is a flat tuple rather than a closure: a closure costs one
collector-tracked cell per captured name (some thirty per role) and would
point back at the searcher that owns it, and both showed up in query
registration time.

A probe appends its embeddings as partials in the leaf's
:class:`~repro.core.sjtree.SlotLayout`, the tuple the SJ-tree stores: the
straight-line code builds ``(source, target[, far], new edge[, partner],
earliest, latest)`` and a role whose layout differs (the second edge's role,
a self loop) carries one ``itemgetter`` that reorders it.  No
:class:`~repro.isomorphism.match.Match` and no dict is built per embedding.

Shapes that are not lowered -- three or more edges, an undirected or
unlabelled edge, two edges with no common vertex -- keep the generic search.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..graph.types import Direction, Edge
from ..query.compile import AttrCheck
from ..query.query_graph import QueryEdge, QueryGraph
from .sjtree import Partial, SlotLayout

if TYPE_CHECKING:
    from .local_search import LocalSearcher

__all__ = [
    "CutKeys",
    "DirectedProbe",
    "Probe",
    "RoleSpec",
    "compile_directed",
    "compile_probe",
    "cut_keys",
    "run_role",
]

#: Everything static about "the new edge plays this query edge": the window,
#: the seed edge's checks and, for a two-edge primitive, how the partner edge
#: hangs off the seed.  Field order is that of the one unpacking statement in
#: :func:`run_role`.
RoleSpec = Tuple[Any, ...]

#: A lowered primitive: its role specs keyed by the edge label they accept,
#: each list in ``primitive.edges()`` order (the generic path's seed order).
Probe = Dict[str, List[RoleSpec]]

#: A lazy leaf's partner probe: per edge label, one picker per role a record
#: of that label can play, each turning ``(source, target)`` into the bucket
#: key the role binds; ``None`` where some role leaves a cut vertex unbound.
CutKeys = Dict[str, Optional[Tuple["itemgetter[Any]", ...]]]

#: A directed search lowered onto one role: ``(anchor vertex name,
#: direction, label, spec)`` -- the anchor's incident edges of that label
#: and direction are the candidates for the role's query edge.
DirectedProbe = Tuple[str, str, str, RoleSpec]


def _lowered(primitive: QueryGraph) -> Optional[List[QueryEdge]]:
    """The primitive's edges when it is a lowered shape, else ``None``."""
    edges = list(primitive.edges())
    if len(edges) not in (1, 2):
        return None
    for edge in edges:
        if not edge.directed or edge.label is None:
            return None
    if len(edges) == 2:
        first, second = edges
        if first.source not in second.endpoints and first.target not in second.endpoints:
            return None
    return edges


def compile_probe(
    searcher: "LocalSearcher", primitive: QueryGraph, layout: Optional[SlotLayout] = None
) -> Optional[Probe]:
    """Lower ``primitive`` into a :data:`Probe`, or ``None`` when it is not a lowered shape.

    The probe builds partials in ``layout``, ``SlotLayout.of(primitive)``
    unless the caller already holds it.
    """
    edges = _lowered(primitive)
    if edges is None:
        return None
    probe: Probe = {}
    if layout is None:
        layout = SlotLayout.of(primitive)
    for index, seed in enumerate(edges):
        partner = edges[1 - index] if len(edges) == 2 else None
        assert seed.label is not None  # a lowered shape's edges are labelled
        probe.setdefault(seed.label, []).append(
            _role_spec(searcher, primitive, layout, seed, partner)
        )
    return probe


def compile_directed(
    searcher: "LocalSearcher", primitive: QueryGraph, layout: SlotLayout, anchor: str
) -> Optional[DirectedProbe]:
    """Lower the search for ``primitive``'s embeddings that bind ``anchor`` to a given vertex.

    The primitive's first query edge touching ``anchor`` is the role: every
    embedding binds it to exactly one data edge incident to the anchor's
    vertex, so running the role from each such edge (:func:`run_role` with
    an ``id_bound``) lists every embedding once.  ``None`` when the
    primitive is not a lowered shape.
    """
    edges = _lowered(primitive)
    if edges is None:
        return None
    for index, seed in enumerate(edges):
        if anchor in seed.endpoints:
            partner = edges[1 - index] if len(edges) == 2 else None
            assert seed.label is not None  # a lowered shape's edges are labelled
            direction = Direction.OUT if seed.source == anchor else Direction.IN
            spec = _role_spec(searcher, primitive, layout, seed, partner)
            return anchor, direction, seed.label, spec
    return None


def cut_keys(primitive: QueryGraph, key_vertices: Tuple[str, ...]) -> Optional[CutKeys]:
    """Per edge label, the bucket keys a record of that label binds in ``primitive``.

    A record playing a query edge whose endpoints include every key vertex
    binds the whole key through its own endpoints (both orientations for an
    undirected edge), so a lazy leaf can ask its sibling for a partner
    before searching.  A label with a role that leaves a key vertex to the
    search maps to ``None``; a primitive with an unlabelled edge, which any
    record may play, or an empty key gives ``None`` outright.
    """
    if not key_vertices:
        return None
    table: CutKeys = {}
    for edge in primitive.edges():
        label = edge.label
        if label is None:
            return None
        ends = (edge.source, edge.target)
        if any(name not in ends for name in key_vertices):
            table[label] = None
            continue
        held = table.get(label, ())
        if held is None:
            continue
        # each orientation: the record endpoint (0 source, 1 target) playing
        # the query edge's source and target
        orientations: Tuple[Tuple[int, int], ...] = ((0, 1),) if edge.directed else ((0, 1), (1, 0))
        for orientation in orientations:
            picks = [orientation[ends.index(name)] for name in key_vertices]
            held += (itemgetter(*picks),)
        table[label] = held
    return table


def _shape(
    layout: SlotLayout, vertices: Tuple[str, ...], edges: Tuple[int, ...]
) -> Optional["itemgetter[Any]"]:
    """The picker from a role's natural tuple to ``layout``, ``None`` when they agree.

    The natural tuple is the one :func:`run_role` builds: the bound
    ``vertices`` (a self loop names its vertex twice; either slot holds
    it), the bound ``edges``, then the extent.
    """
    if vertices == layout.vertices and edges == layout.edges:
        return None
    first = len(vertices)
    picks = [vertices.index(name) for name in layout.vertices]
    picks += [first + edges.index(query_edge) for query_edge in layout.edges]
    picks += [first + len(edges), first + len(edges) + 1]
    return itemgetter(*picks)


def _role_spec(
    searcher: "LocalSearcher",
    primitive: QueryGraph,
    layout: SlotLayout,
    seed: QueryEdge,
    partner: Optional[QueryEdge],
) -> RoleSpec:
    """Describe "the new edge plays ``seed``; complete with ``partner``"."""
    compiled = searcher.compiled
    window = searcher.window
    vertex_checks = compiled.vertex_checks
    source_var, target_var = seed.source, seed.target

    # how the partner hangs off the seed, decided here once: it starts at
    # (outward) or ends at a seed vertex -- the anchor -- and its far end is
    # either the other seed vertex (between) or the one free query vertex
    partner_id = -1
    partner_label = ""
    partner_check: Optional[AttrCheck] = None
    outward = True
    between = False
    anchor_is_target = False
    far_is_target = False
    free_var = ""
    free_label: Optional[str] = None
    free_check: Optional[AttrCheck] = None
    if partner is not None:
        assert partner.label is not None
        partner_id, partner_label = partner.id, partner.label
        partner_check = compiled.edge_checks[partner_id]
        seed_vars = (source_var, target_var)
        outward = partner.source in seed_vars
        between = outward and partner.target in seed_vars
        anchor_var = partner.source if outward else partner.target
        anchor_is_target = anchor_var != source_var
        if between:
            far_is_target = partner.target != source_var
        else:
            free_var = partner.target if outward else partner.source
            free_label = primitive.vertex(free_var).label
            free_check = vertex_checks[free_var]
    # the bindings of the tuple run_role builds, as it builds them
    if partner is None:
        shape = _shape(layout, (source_var, target_var), (seed.id,))
    elif between:
        shape = _shape(layout, (source_var, target_var), (seed.id, partner_id))
    else:
        shape = _shape(layout, (source_var, target_var, free_var), (seed.id, partner_id))
    return (
        window.bounded,
        window.duration,
        # a lone edge has span 0, which only a zero-length window refuses
        window.admits_span(0.0),
        compiled.edge_checks[seed.id],
        source_var == target_var,
        primitive.vertex(source_var).label,
        vertex_checks[source_var],
        primitive.vertex(target_var).label,
        vertex_checks[target_var],
        partner_id,
        partner_label,
        partner_check,
        Direction.OUT if outward else Direction.IN,
        outward,
        between,
        anchor_is_target,
        far_is_target,
        free_label,
        free_check,
        shape,
    )


def run_role(
    searcher: "LocalSearcher",
    spec: RoleSpec,
    new_edge: Edge,
    results: List[Partial],
    id_bound: Optional[int] = None,
) -> None:
    """Append the embeddings in which ``new_edge`` plays ``spec``'s query edge.

    Each is appended as a partial in the primitive's slot layout.  The edge
    label is already known to match (specs are looked up by it).  Partners
    are bound only below ``id_bound`` -- by default ``new_edge.id``, the
    newest-edge rule; a directed search passes its own bound, which may
    lie above ``new_edge``.

    ``new_edge`` must be an edge of the searcher's store.  Every stored
    edge's endpoints are stored vertices, so a vertex is read with one
    lookup in the store's record map and no missing-vertex path, and an
    endpoint the role neither labels nor checks is not read at all.
    """
    (
        bounded,
        duration,
        seed_admitted,
        seed_check,
        seed_loop,
        source_label,
        source_check,
        target_label,
        target_check,
        partner_id,
        partner_label,
        partner_check,
        direction,
        outward,
        between,
        anchor_is_target,
        far_is_target,
        free_label,
        free_check,
        shape,
    ) = spec
    if seed_check is not None and not seed_check(new_edge.attrs):
        return
    source, target = new_edge.source, new_edge.target
    if (source == target) != seed_loop:
        return
    vertices = searcher.vertices
    if source_label is not None or source_check is not None:
        vertex = vertices[source]
        if source_label is not None and vertex.label != source_label:
            return
        if source_check is not None and not source_check(vertex.attrs):
            return
    if not seed_loop and (target_label is not None or target_check is not None):
        vertex = vertices[target]
        if target_label is not None and vertex.label != target_label:
            return
        if target_check is not None and not target_check(vertex.attrs):
            return
    searcher.searches_started += 1
    if not seed_admitted:
        return
    timestamp = new_edge.timestamp
    if partner_id < 0:
        partial: Partial = (source, target, new_edge, timestamp, timestamp)
        results.append(partial if shape is None else shape(partial))
        searcher.matches_found += 1
        return

    if anchor_is_target:
        anchor, other = target, source
    else:
        anchor, other = source, target
    store = searcher.store
    candidates: Optional[List[Edge]] = None
    if bounded and not between:
        # inclusive superset of the admissible range; the span test
        # below is the exact one
        candidates = store.incident_edges_in_range(
            anchor, direction, partner_label, timestamp - duration, timestamp + duration
        )
    if candidates is None:
        candidates = list(store.incident_edges(anchor, direction, partner_label))
    new_id = new_edge.id
    if id_bound is not None:
        # the seed edge itself now passes the id test: it may not be its partner
        candidates = [candidate for candidate in candidates if candidate.id != new_id]
        new_id = id_bound
    searcher.candidates_examined += len(candidates)
    far_bound = target if far_is_target else source
    reads_far = free_label is not None or free_check is not None
    found = 0
    for candidate in candidates:
        # newest-edge rule: an embedding is found only at its newest edge
        if candidate.id >= new_id:
            continue
        if between and candidate.target != far_bound:
            continue
        if partner_check is not None and not partner_check(candidate.attrs):
            continue
        stamp = candidate.timestamp
        if stamp < timestamp:
            earliest, latest = stamp, timestamp
        else:
            earliest, latest = timestamp, stamp
        if bounded and latest - earliest >= duration:
            continue
        if between:
            partial = (source, target, new_edge, candidate, earliest, latest)
        else:
            far = candidate.target if outward else candidate.source
            # a non-loop query edge cannot take a data self loop
            if far == anchor:
                continue
            if reads_far:
                # a stored candidate's far end is a stored vertex
                vertex = vertices[far]
                if free_label is not None and vertex.label != free_label:
                    continue
                if free_check is not None and not free_check(vertex.attrs):
                    continue
            # injectivity: the free vertex may not reuse the seed's other end
            if far == other:
                continue
            partial = (source, target, far, new_edge, candidate, earliest, latest)
        results.append(partial if shape is None else shape(partial))
        found += 1
    searcher.matches_found += found
