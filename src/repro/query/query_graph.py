"""Query graph model.

A query graph ``Gq`` is a small typed pattern: query vertices are variables
constrained by a vertex label and optional attribute predicates, query edges
are constrained by an edge label, direction and optional attribute
predicates.  A match binds every query vertex to a distinct data vertex and
every query edge to a data edge so that adjacency, labels and predicates are
respected (paper section 2.1).

The class also provides the subgraph/union/intersection operations the
SJ-Tree decomposition relies on (paper section 3.2, Properties 1-4):

* ``edge_subgraph`` extracts the query subgraph induced by a set of query
  edges (a *search primitive*);
* ``union`` implements the join operator ``G1 ⋈ G2`` on query subgraphs
  (vertex union + edge union);
* ``vertex_intersection`` yields the cut vertices shared by two subgraphs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..graph.types import Direction
from .predicates import Predicate, always_true

__all__ = ["QueryVertex", "QueryEdge", "QueryGraph"]


class QueryVertex:
    """A query variable constrained by an optional vertex label and predicate.

    Parameters
    ----------
    name:
        Variable name, unique within the query graph (e.g. ``"a1"``).
    label:
        Required vertex label; ``None`` matches any label.
    predicate:
        Attribute predicate; defaults to accept-all.
    """

    __slots__ = ("name", "label", "predicate")

    def __init__(self, name: str, label: Optional[str] = None, predicate: Predicate = always_true):
        self.name = name
        self.label = label
        self.predicate = predicate

    def matches_vertex(self, label: str, attrs: Mapping) -> bool:
        """Return ``True`` when a data vertex with this label/attrs satisfies the constraints."""
        if self.label is not None and self.label != label:
            return False
        return self.predicate(attrs)

    def describe(self) -> str:
        """Return a compact description such as ``(k:Keyword {label='politics'})``."""
        label = f":{self.label}" if self.label else ""
        pred = self.predicate.describe()
        suffix = "" if pred == "*" else f" {{{pred}}}"
        return f"({self.name}{label}{suffix})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryVertex({self.name!r}, label={self.label!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryVertex):
            return NotImplemented
        return self.name == other.name and self.label == other.label

    def __hash__(self) -> int:
        return hash((self.name, self.label))


class QueryEdge:
    """A query edge constrained by label, direction and an attribute predicate.

    Parameters
    ----------
    edge_id:
        Identifier unique within the query graph (assigned by
        :class:`QueryGraph` when omitted).
    source, target:
        Names of the endpoint query vertices.  For ``directed=False`` the
        orientation is ignored during matching.
    label:
        Required edge label; ``None`` matches any label.
    predicate:
        Attribute predicate; defaults to accept-all.
    directed:
        Whether the edge orientation must be respected (default ``True``).
    """

    __slots__ = ("id", "source", "target", "label", "predicate", "directed")

    def __init__(
        self,
        edge_id: int,
        source: str,
        target: str,
        label: Optional[str] = None,
        predicate: Predicate = always_true,
        directed: bool = True,
    ):
        self.id = edge_id
        self.source = source
        self.target = target
        self.label = label
        self.predicate = predicate
        self.directed = directed

    @property
    def endpoints(self) -> Tuple[str, str]:
        """Return ``(source, target)`` variable names."""
        return (self.source, self.target)

    def other_endpoint(self, name: str) -> str:
        """Return the endpoint opposite to ``name``."""
        if name == self.source:
            return self.target
        if name == self.target:
            return self.source
        raise ValueError(f"{name!r} is not an endpoint of query edge {self.id}")

    def touches(self, name: str) -> bool:
        """Return ``True`` when ``name`` is an endpoint of this query edge."""
        return name == self.source or name == self.target

    def matches_edge_label(self, label: str, attrs: Mapping) -> bool:
        """Return ``True`` when a data edge with this label/attrs satisfies the constraints."""
        if self.label is not None and self.label != label:
            return False
        return self.predicate(attrs)

    def describe(self) -> str:
        """Return a compact description such as ``a -[mentions]-> k``."""
        label = self.label if self.label else "*"
        arrow = "->" if self.directed else "-"
        return f"{self.source} -[{label}]{arrow} {self.target}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryEdge({self.id}, {self.describe()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryEdge):
            return NotImplemented
        return (
            self.id == other.id
            and self.source == other.source
            and self.target == other.target
            and self.label == other.label
            and self.directed == other.directed
        )

    def __hash__(self) -> int:
        return hash((self.id, self.source, self.target, self.label, self.directed))


class QueryGraph:
    """A small typed pattern over which continuous matching is performed.

    The graph is a directed multigraph of :class:`QueryVertex` /
    :class:`QueryEdge`.  Query graphs are also used to represent *search
    primitives* and internal SJ-Tree subgraphs, hence the emphasis on cheap
    subgraph/union/intersection operations.
    """

    def __init__(self, name: str = "query") -> None:
        self.name = name
        self._vertices: Dict[str, QueryVertex] = {}
        self._edges: Dict[int, QueryEdge] = {}
        self._incident: Dict[str, Set[int]] = defaultdict(set)
        self._next_edge_id = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        name: str,
        label: Optional[str] = None,
        predicate: Predicate = always_true,
    ) -> QueryVertex:
        """Add a query vertex (idempotent for identical re-adds)."""
        existing = self._vertices.get(name)
        if existing is not None:
            if label is not None and existing.label is None:
                # allow tightening an implicitly-created vertex
                existing = QueryVertex(name, label, predicate)
                self._vertices[name] = existing
            return existing
        vertex = QueryVertex(name, label, predicate)
        self._vertices[name] = vertex
        return vertex

    def add_edge(
        self,
        source: str,
        target: str,
        label: Optional[str] = None,
        predicate: Predicate = always_true,
        directed: bool = True,
        edge_id: Optional[int] = None,
    ) -> QueryEdge:
        """Add a query edge; missing endpoints are created unconstrained."""
        if source not in self._vertices:
            self.add_vertex(source)
        if target not in self._vertices:
            self.add_vertex(target)
        if edge_id is None:
            edge_id = self._next_edge_id
            self._next_edge_id += 1
        else:
            if edge_id in self._edges:
                raise ValueError(f"query edge id {edge_id} already present")
            self._next_edge_id = max(self._next_edge_id, edge_id + 1)
        edge = QueryEdge(edge_id, source, target, label, predicate, directed)
        self._edges[edge_id] = edge
        self._incident[source].add(edge_id)
        self._incident[target].add(edge_id)
        return edge

    def add_query_vertex(self, vertex: QueryVertex) -> QueryVertex:
        """Add a pre-built query vertex object."""
        self._vertices[vertex.name] = vertex
        return vertex

    def add_query_edge(self, edge: QueryEdge) -> QueryEdge:
        """Add a pre-built query edge object, preserving its id."""
        if edge.id in self._edges:
            raise ValueError(f"query edge id {edge.id} already present")
        for endpoint in edge.endpoints:
            if endpoint not in self._vertices:
                self.add_vertex(endpoint)
        self._edges[edge.id] = edge
        self._incident[edge.source].add(edge.id)
        self._incident[edge.target].add(edge.id)
        self._next_edge_id = max(self._next_edge_id, edge.id + 1)
        return edge

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def vertex(self, name: str) -> QueryVertex:
        """Return the query vertex with the given variable name."""
        return self._vertices[name]

    def has_vertex(self, name: str) -> bool:
        """Return ``True`` when the variable exists in the query."""
        return name in self._vertices

    def edge(self, edge_id: int) -> QueryEdge:
        """Return the query edge with the given id."""
        return self._edges[edge_id]

    def has_edge(self, edge_id: int) -> bool:
        """Return ``True`` when the query edge id exists."""
        return edge_id in self._edges

    def vertices(self) -> Iterator[QueryVertex]:
        """Iterate over query vertices."""
        return iter(self._vertices.values())

    def vertex_names(self) -> Set[str]:
        """Return the set of variable names."""
        return set(self._vertices.keys())

    def edges(self) -> Iterator[QueryEdge]:
        """Iterate over query edges."""
        return iter(self._edges.values())

    def edge_ids(self) -> Set[int]:
        """Return the set of query edge ids."""
        return set(self._edges.keys())

    def declaration_order(self) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        """Return the variable names and the query edge ids, each in declaration order."""
        return tuple(self._vertices), tuple(self._edges)

    def vertex_count(self) -> int:
        """Return the number of query vertices."""
        return len(self._vertices)

    def edge_count(self) -> int:
        """Return the number of query edges."""
        return len(self._edges)

    def incident_edges(self, name: str) -> List[QueryEdge]:
        """Return the query edges incident to a variable."""
        return [self._edges[eid] for eid in self._incident.get(name, ())]

    def degree(self, name: str) -> int:
        """Return the degree of a query vertex."""
        return len(self._incident.get(name, ()))

    def neighbors(self, name: str) -> Set[str]:
        """Return the neighbouring variable names."""
        result: Set[str] = set()
        for edge in self.incident_edges(name):
            result.add(edge.other_endpoint(name) if edge.source != edge.target else name)
        return result

    # ------------------------------------------------------------------
    # structure operations used by the SJ-Tree
    # ------------------------------------------------------------------
    def edge_subgraph(self, edge_ids: Iterable[int], name: Optional[str] = None) -> "QueryGraph":
        """Return the subgraph induced by ``edge_ids`` (a search primitive)."""
        sub = QueryGraph(name or f"{self.name}[sub]")
        for edge_id in sorted(set(edge_ids)):
            edge = self.edge(edge_id)
            for endpoint in edge.endpoints:
                if not sub.has_vertex(endpoint):
                    sub.add_query_vertex(self._vertices[endpoint])
            sub.add_query_edge(edge)
        return sub

    def union(self, other: "QueryGraph", name: Optional[str] = None) -> "QueryGraph":
        """Return the join ``self ⋈ other``: union of vertices and edges.

        This is the paper's join operator on query subgraphs (Property 2):
        ``V3 = V1 ∪ V2`` and ``E3 = E1 ∪ E2``.  Edges present in both inputs
        (same id) appear once.
        """
        result = QueryGraph(name or f"({self.name})∪({other.name})")
        vertices = result._vertices = dict(self._vertices)
        for vertex_name, vertex in other._vertices.items():
            vertices.setdefault(vertex_name, vertex)
        edges = result._edges = dict(self._edges)
        for edge_id, edge in other._edges.items():
            edges.setdefault(edge_id, edge)
        incident = result._incident
        for edge_id, edge in edges.items():
            incident[edge.source].add(edge_id)
            incident[edge.target].add(edge_id)
        result._next_edge_id = max(edges, default=-1) + 1
        return result

    def vertex_intersection(self, other: "QueryGraph") -> Set[str]:
        """Return the variable names shared with ``other`` (the join cut)."""
        return self.vertex_names() & other.vertex_names()

    def is_connected(self) -> bool:
        """Return ``True`` when the query graph is weakly connected (or empty)."""
        if not self._vertices:
            return True
        names = list(self._vertices.keys())
        seen: Set[str] = set()
        stack = [names[0]]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.neighbors(current) - seen)
        return len(seen) == len(self._vertices)

    def connected_components(self) -> List[Set[str]]:
        """Return the weakly connected components as sets of variable names."""
        remaining = set(self._vertices.keys())
        components: List[Set[str]] = []
        while remaining:
            start = next(iter(remaining))
            component: Set[str] = set()
            stack = [start]
            while stack:
                current = stack.pop()
                if current in component:
                    continue
                component.add(current)
                stack.extend(self.neighbors(current) - component)
            components.append(component)
            remaining -= component
        return components

    def same_structure(self, other: "QueryGraph") -> bool:
        """Return ``True`` when both graphs contain exactly the same vertex names and edge ids.

        This is the (cheap) equivalence used for SJ-Tree Property 1/2 checks:
        SJ-Tree node subgraphs are always built from the *same* underlying
        query graph, so identity of edge-id sets and vertex-name sets is the
        right notion of "isomorphic" here.
        """
        return self.vertex_names() == other.vertex_names() and self.edge_ids() == other.edge_ids()

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def edge_signature(self, edge: QueryEdge) -> Tuple:
        """Return a hashable signature describing an edge's type constraints.

        The signature is ``(source label, edge label, target label,
        directed)`` and is the key used by statistics-based selectivity
        estimation.
        """
        return (
            self._vertices[edge.source].label,
            edge.label,
            self._vertices[edge.target].label,
            edge.directed,
        )

    def describe(self) -> str:
        """Return a multi-line human-readable description of the pattern."""
        lines = [f"QueryGraph {self.name!r}: {self.vertex_count()} vertices, {self.edge_count()} edges"]
        for vertex in sorted(self._vertices.values(), key=lambda v: v.name):
            lines.append(f"  {vertex.describe()}")
        for edge in sorted(self._edges.values(), key=lambda e: e.id):
            lines.append(f"  [{edge.id}] {edge.describe()}")
        return "\n".join(lines)

    def copy(self, name: Optional[str] = None) -> "QueryGraph":
        """Return a copy sharing vertex/edge objects (they are immutable in practice)."""
        result = QueryGraph(name or self.name)
        for vertex in self.vertices():
            result.add_query_vertex(vertex)
        for edge in self.edges():
            result.add_query_edge(edge)
        return result

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryGraph({self.name!r}, |V|={self.vertex_count()}, |E|={self.edge_count()})"
