"""Dynamic multi-relational property-graph substrate.

This package provides the storage layer StreamWorks runs on: a typed,
attributed, timestamped directed multigraph (:class:`PropertyGraph`), its
sliding-window streaming wrapper (:class:`DynamicGraph`), the per-vertex
records and ordered edge slots behind them, and window/expiry utilities.
"""

from .dynamic_graph import DynamicGraph
from .property_graph import PropertyGraph
from .types import (
    Direction,
    DuplicateEdgeError,
    DuplicateVertexError,
    Edge,
    EdgeId,
    EdgeNotFoundError,
    GraphError,
    Timestamp,
    Vertex,
    VertexId,
    VertexNotFoundError,
    edges_span,
)
from .window import ExpiryQueue, TimeWindow

__all__ = [
    "Direction",
    "DuplicateEdgeError",
    "DuplicateVertexError",
    "DynamicGraph",
    "Edge",
    "EdgeId",
    "EdgeNotFoundError",
    "ExpiryQueue",
    "GraphError",
    "PropertyGraph",
    "Timestamp",
    "TimeWindow",
    "Vertex",
    "VertexId",
    "VertexNotFoundError",
    "edges_span",
]
