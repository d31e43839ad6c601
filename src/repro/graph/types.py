"""Core value types for the dynamic multi-relational property graph.

StreamWorks models its data as a *dynamic multi-relational graph*: vertices
and edges carry a type (label), arbitrary attributes, and every edge carries
a timestamp.  These are the plain value objects shared by every other layer
(storage, query, matching, statistics).

The objects are intentionally light-weight: ``Vertex`` and ``Edge`` are
``slots``-based classes so that streams of tens of thousands of edges remain
cheap to create and hash, which matters for the streaming benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Mapping, Optional, Tuple

__all__ = [
    "VertexId",
    "EdgeId",
    "Timestamp",
    "Vertex",
    "Edge",
    "Direction",
    "GraphError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "DuplicateVertexError",
    "DuplicateEdgeError",
]

# Type aliases used throughout the code base.  Vertex identifiers are any
# hashable value (IP addresses, article URIs, integers...), edge identifiers
# are integers assigned by the graph store, and timestamps are floats
# (seconds, but any monotone unit works).
VertexId = Hashable
EdgeId = int
Timestamp = float


class GraphError(Exception):
    """Base class for all graph-layer errors."""


class VertexNotFoundError(GraphError, KeyError):
    """Raised when an operation references a vertex that is not stored."""


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge that is not stored."""


class DuplicateVertexError(GraphError, ValueError):
    """Raised when adding a vertex whose id already exists with a different label."""


class DuplicateEdgeError(GraphError, ValueError):
    """Raised when adding an edge whose id already exists."""


class Direction:
    """Edge direction constants used by adjacency lookups.

    ``OUT`` follows edges from their source, ``IN`` follows edges into their
    target and ``BOTH`` ignores orientation.  Plain strings are used (instead
    of an Enum) to keep dictionary keys cheap in the hot adjacency path.
    """

    OUT = "out"
    IN = "in"
    BOTH = "both"

    ALL = (OUT, IN, BOTH)

    @staticmethod
    def reverse(direction: str) -> str:
        """Return the opposite direction (``BOTH`` maps to itself)."""
        if direction == Direction.OUT:
            return Direction.IN
        if direction == Direction.IN:
            return Direction.OUT
        if direction == Direction.BOTH:
            return Direction.BOTH
        raise ValueError(f"unknown direction: {direction!r}")


class Vertex:
    """A typed, attributed vertex.

    Parameters
    ----------
    vertex_id:
        Application-level identifier.  Must be hashable and unique within a
        graph.
    label:
        The vertex type, e.g. ``"IP"``, ``"Article"`` or ``"Keyword"``.
    attrs:
        Optional attribute mapping (e.g. ``{"country": "US"}``).  It is
        always copied: a stored vertex merges later attributes into its own
        dict (:meth:`~repro.graph.property_graph.PropertyGraph.add_vertex`),
        which must not write into the mapping it was built from.
    """

    __slots__ = ("id", "label", "attrs")

    def __init__(self, vertex_id: VertexId, label: str, attrs: Optional[Mapping[str, Any]] = None):
        self.id = vertex_id
        self.label = label
        self.attrs: Dict[str, Any] = {} if attrs is None else dict(attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vertex({self.id!r}, label={self.label!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vertex):
            return NotImplemented
        return self.id == other.id and self.label == other.label and self.attrs == other.attrs

    def __hash__(self) -> int:
        return hash((self.id, self.label))

    def copy(self) -> "Vertex":
        """Return a shallow copy with a copied attribute dict."""
        return Vertex(self.id, self.label, dict(self.attrs))

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the vertex into a JSON-friendly dictionary."""
        return {"id": self.id, "label": self.label, "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Vertex":
        """Inverse of :meth:`to_dict`."""
        return cls(payload["id"], payload["label"], payload.get("attrs"))


class Edge:
    """A typed, timestamped, attributed directed edge.

    Every edge in a dynamic graph carries a timestamp; the temporal extent of
    any subgraph is derived from the timestamps of its edges (paper section
    2.1).  Edges are directed; undirected semantics are expressed at query
    time via :class:`~repro.graph.types.Direction`.

    Parameters
    ----------
    edge_id:
        Identifier unique within a graph.  The graph store assigns monotone
        integers when the caller does not supply one.
    source, target:
        Endpoint vertex identifiers.
    label:
        The edge type, e.g. ``"connectsTo"`` or ``"mentions"``.
    timestamp:
        Event time of the edge.
    attrs:
        Optional attribute mapping (e.g. ``{"bytes": 1400, "port": 53}``).
        A plain ``dict`` is adopted, not copied: the edge the window store
        keeps for a stream record shares that record's ``attrs``, and so
        does every match holding the edge, so a record's attributes are
        stored once.  The caller hands the dict over and must not change
        it afterwards.  Any other mapping is copied into a new dict;
        :meth:`copy` and :meth:`to_dict` return dicts of their own.
    """

    __slots__ = ("id", "source", "target", "label", "timestamp", "attrs")

    def __init__(
        self,
        edge_id: EdgeId,
        source: VertexId,
        target: VertexId,
        label: str,
        timestamp: Timestamp = 0.0,
        attrs: Optional[Mapping[str, Any]] = None,
    ):
        self.id = edge_id
        self.source = source
        self.target = target
        self.label = label
        self.timestamp = float(timestamp)
        if attrs is None:
            owned: Dict[str, Any] = {}
        elif type(attrs) is dict:
            owned = attrs
        else:
            owned = dict(attrs)
        self.attrs = owned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Edge({self.id}, {self.source!r}-[{self.label}]->{self.target!r}, "
            f"t={self.timestamp})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Edge):
            return NotImplemented
        return (
            self.id == other.id
            and self.source == other.source
            and self.target == other.target
            and self.label == other.label
            and self.timestamp == other.timestamp
            and self.attrs == other.attrs
        )

    def __hash__(self) -> int:
        return hash((self.id, self.source, self.target, self.label))

    @property
    def endpoints(self) -> Tuple[VertexId, VertexId]:
        """Return ``(source, target)``."""
        return (self.source, self.target)

    def other_endpoint(self, vertex_id: VertexId) -> VertexId:
        """Return the endpoint opposite to ``vertex_id``.

        Raises
        ------
        ValueError
            If ``vertex_id`` is not an endpoint of this edge.
        """
        if vertex_id == self.source:
            return self.target
        if vertex_id == self.target:
            return self.source
        raise ValueError(f"{vertex_id!r} is not an endpoint of {self!r}")

    def touches(self, vertex_id: VertexId) -> bool:
        """Return ``True`` when ``vertex_id`` is one of the edge endpoints."""
        return vertex_id == self.source or vertex_id == self.target

    def copy(self) -> "Edge":
        """Return a shallow copy with a copied attribute dict."""
        return Edge(self.id, self.source, self.target, self.label, self.timestamp, dict(self.attrs))

    def to_dict(self) -> Dict[str, Any]:
        """Serialise the edge into a JSON-friendly dictionary."""
        return {
            "id": self.id,
            "source": self.source,
            "target": self.target,
            "label": self.label,
            "timestamp": self.timestamp,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Edge":
        """Inverse of :meth:`to_dict`."""
        return cls(
            payload["id"],
            payload["source"],
            payload["target"],
            payload["label"],
            payload.get("timestamp", 0.0),
            payload.get("attrs"),
        )


def edges_span(edges: Iterable[Edge]) -> float:
    """Return the temporal extent ``τ`` of a collection of edges.

    The span is the difference between the latest and the earliest edge
    timestamp (paper section 2.1).  An empty collection has span ``0.0``.
    """
    timestamps = [edge.timestamp for edge in edges]
    if not timestamps:
        return 0.0
    return max(timestamps) - min(timestamps)
