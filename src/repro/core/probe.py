"""Compiled primitive probes: straight-line local search for 1-2-edge leaves.

Every primitive the default decompositions produce is one or two directed,
labelled edges.  Running the generic seeded backtracking matcher over such a
shape spends its time on machinery the shape never needs -- a search order
over one remaining edge, a generator per recursion level, a
:class:`~repro.isomorphism.match.Match` rebuilt (and its timestamps
re-scanned) per binding.  Everything that machinery decides is known when
the matcher is built: which endpoint of the new edge the partner edge hangs
off, in which direction, which vertex is still free, which checks apply.

:func:`compile_probe` does that deciding once per SJ-tree leaf and records it
as one :data:`RoleSpec` per query edge the new edge can play; :func:`run_role`
is the one straight-line routine that executes a spec.  It runs the same
tests as :meth:`LocalSearcher.seeds
<repro.core.local_search.LocalSearcher.seeds>` plus
:meth:`SubgraphMatcher.find_matches
<repro.isomorphism.vf2.SubgraphMatcher.find_matches>`, in the same order over
the same candidate enumeration, so its result list -- order included -- and
the ``searches_started`` / ``matches_found`` counters are those of the
generic path (``tests/test_local_search_join.py`` holds the differential).

A spec is a flat tuple rather than a closure: a closure costs one
collector-tracked cell per captured name (some thirty per role) and would
point back at the searcher that owns it, and both showed up in query
registration time.

Shapes that are not lowered -- three or more edges, an undirected or
unlabelled edge, two edges with no common vertex -- keep the generic search,
as does the interpreted (``compiled is None``) oracle path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..graph.types import Direction, Edge, VertexNotFoundError
from ..isomorphism.match import Match
from ..query.compile import AttrCheck
from ..query.query_graph import QueryEdge, QueryGraph

if TYPE_CHECKING:
    from .local_search import LocalSearcher

__all__ = ["Probe", "RoleSpec", "compile_probe", "run_role"]

#: Everything static about "the new edge plays this query edge": the window,
#: the seed edge's checks and, for a two-edge primitive, how the partner edge
#: hangs off the seed.  Field order is that of the one unpacking statement in
#: :func:`run_role`.
RoleSpec = Tuple[Any, ...]

#: A lowered primitive: its role specs keyed by the edge label they accept,
#: each list in ``primitive.edges()`` order (the generic path's seed order).
Probe = Dict[str, List[RoleSpec]]


def compile_probe(searcher: "LocalSearcher", primitive: QueryGraph) -> Optional[Probe]:
    """Lower ``primitive`` into a :data:`Probe`, or ``None`` when it is not a lowered shape."""
    if searcher.compiled is None:
        return None
    edges = list(primitive.edges())
    if len(edges) not in (1, 2):
        return None
    labels: List[str] = []
    for edge in edges:
        if not edge.directed or edge.label is None:
            return None
        labels.append(edge.label)
    if len(edges) == 2:
        first, second = edges
        if first.source not in second.endpoints and first.target not in second.endpoints:
            return None
    probe: Probe = {}
    for index, seed in enumerate(edges):
        partner = edges[1 - index] if len(edges) == 2 else None
        probe.setdefault(labels[index], []).append(_role_spec(searcher, primitive, seed, partner))
    return probe


def _role_spec(
    searcher: "LocalSearcher",
    primitive: QueryGraph,
    seed: QueryEdge,
    partner: Optional[QueryEdge],
) -> RoleSpec:
    """Describe "the new edge plays ``seed``; complete with ``partner``"."""
    compiled = searcher.compiled
    assert compiled is not None
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
    return (
        window.bounded,
        window.duration,
        window.strict,
        # a lone edge has span 0, which only a strict zero-length window refuses
        window.admits_span(0.0),
        seed.id,
        compiled.edge_checks[seed.id],
        source_var,
        target_var,
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
        free_var,
        free_label,
        free_check,
    )


def run_role(
    searcher: "LocalSearcher", spec: RoleSpec, new_edge: Edge, results: List[Match]
) -> None:
    """Append the embeddings in which ``new_edge`` plays ``spec``'s query edge.

    The edge label is already known to match (specs are looked up by it).
    """
    (
        bounded,
        duration,
        strict,
        seed_admitted,
        seed_id,
        seed_check,
        source_var,
        target_var,
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
        free_var,
        free_label,
        free_check,
    ) = spec
    if seed_check is not None and not seed_check(new_edge.attrs):
        return
    source, target = new_edge.source, new_edge.target
    seed_loop = source_var == target_var
    if (source == target) != seed_loop:
        return
    graph = searcher.graph
    try:
        vertex = graph.vertex(source)
    except VertexNotFoundError:
        return
    if source_label is not None and vertex.label != source_label:
        return
    if source_check is not None and not source_check(vertex.attrs):
        return
    if not seed_loop:
        try:
            vertex = graph.vertex(target)
        except VertexNotFoundError:
            return
        if target_label is not None and vertex.label != target_label:
            return
        if target_check is not None and not target_check(vertex.attrs):
            return
    searcher.searches_started += 1
    if not seed_admitted:
        return
    timestamp = new_edge.timestamp
    if partner_id < 0:
        results.append(
            Match._from_parts(
                {source_var: source, target_var: target},
                {seed_id: new_edge},
                timestamp,
                timestamp,
            )
        )
        searcher.matches_found += 1
        return

    if anchor_is_target:
        anchor, other = target, source
    else:
        anchor, other = source, target
    candidates: Optional[List[Edge]] = None
    if bounded and not between:
        # inclusive superset of the admissible range; the span test
        # below is the exact one
        candidates = graph.incident_edges_in_range(
            anchor, direction, partner_label, timestamp - duration, timestamp + duration
        )
    if candidates is None:
        candidates = list(graph.incident_edges(anchor, direction, partner_label))
    searcher.candidates_examined += len(candidates)
    far_bound = target if far_is_target else source
    new_id = new_edge.id
    found = 0
    for candidate in candidates:
        if between and candidate.target != far_bound:
            continue
        if partner_check is not None and not partner_check(candidate.attrs):
            continue
        if candidate.id == new_id:
            continue
        stamp = candidate.timestamp
        if stamp < timestamp:
            earliest, latest = stamp, timestamp
        else:
            earliest, latest = timestamp, stamp
        if bounded:
            span = latest - earliest
            if (span >= duration) if strict else (span > duration):
                continue
        if between:
            vertex_map = {source_var: source, target_var: target}
        else:
            far = candidate.target if outward else candidate.source
            # a non-loop query edge cannot take a data self loop
            if far == anchor:
                continue
            try:
                vertex = graph.vertex(far)
            except VertexNotFoundError:
                continue
            if free_label is not None and vertex.label != free_label:
                continue
            if free_check is not None and not free_check(vertex.attrs):
                continue
            # injectivity: the free vertex may not reuse the seed's other end
            if far == other:
                continue
            vertex_map = {source_var: source, target_var: target, free_var: far}
        results.append(
            Match._from_parts(
                vertex_map, {seed_id: new_edge, partner_id: candidate}, earliest, latest
            )
        )
        found += 1
    searcher.matches_found += found
