"""(De)serialisation of query graphs.

Registered queries are long-lived objects: a monitoring deployment wants to
persist them, ship them between processes, and audit what is currently
registered.  This module converts query graphs to and from plain dictionaries
(and JSON strings) -- including the structured predicate algebra, which is
rebuilt class-by-class.  ``CustomPredicate`` wraps arbitrary Python callables
and therefore cannot round-trip; attempting to serialise one raises
:class:`QuerySerializationError` rather than silently dropping the constraint.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping

from .predicates import (
    And,
    AttrCompare,
    AttrEquals,
    AttrExists,
    AttrIn,
    AttrRange,
    Not,
    Or,
    Predicate,
    TruePredicate,
    always_true,
)
from .query_graph import QueryGraph

__all__ = [
    "QuerySerializationError",
    "predicate_to_dict",
    "predicate_from_dict",
    "query_to_dict",
    "query_from_dict",
    "query_to_json",
    "query_from_json",
]


class QuerySerializationError(ValueError):
    """Raised when a query (or predicate) cannot be serialised or parsed."""


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
def predicate_to_dict(predicate: Predicate) -> Dict[str, Any]:
    """Convert a structured predicate into a JSON-friendly dictionary."""
    if isinstance(predicate, TruePredicate):
        return {"type": "true"}
    if isinstance(predicate, AttrEquals):
        return {"type": "equals", "key": predicate.key, "value": predicate.value}
    if isinstance(predicate, AttrIn):
        return {"type": "in", "key": predicate.key, "values": sorted(predicate.values, key=repr)}
    if isinstance(predicate, AttrRange):
        return {
            "type": "range",
            "key": predicate.key,
            "low": predicate.low,
            "high": predicate.high,
            "low_exclusive": predicate.low_exclusive,
            "high_exclusive": predicate.high_exclusive,
        }
    if isinstance(predicate, AttrExists):
        return {"type": "exists", "key": predicate.key}
    if isinstance(predicate, AttrCompare):
        return {"type": "compare", "key": predicate.key, "op": predicate.op, "value": predicate.value}
    if isinstance(predicate, And):
        return {"type": "and", "parts": [predicate_to_dict(part) for part in predicate.predicates]}
    if isinstance(predicate, Or):
        return {"type": "or", "parts": [predicate_to_dict(part) for part in predicate.predicates]}
    if isinstance(predicate, Not):
        return {"type": "not", "part": predicate_to_dict(predicate.predicate)}
    raise QuerySerializationError(
        f"predicate {predicate.describe()!r} of type {type(predicate).__name__} is not serialisable"
    )


def predicate_from_dict(payload: Mapping[str, Any]) -> Predicate:
    """Rebuild a predicate from :func:`predicate_to_dict` output."""
    kind = payload.get("type")
    if kind == "true":
        return always_true
    if kind == "equals":
        return AttrEquals(payload["key"], payload["value"])
    if kind == "in":
        return AttrIn(payload["key"], payload["values"])
    if kind == "range":
        return AttrRange(
            payload["key"],
            payload.get("low"),
            payload.get("high"),
            payload.get("low_exclusive", False),
            payload.get("high_exclusive", False),
        )
    if kind == "exists":
        return AttrExists(payload["key"])
    if kind == "compare":
        return AttrCompare(payload["key"], payload["op"], payload["value"])
    if kind == "and":
        return And([predicate_from_dict(part) for part in payload["parts"]])
    if kind == "or":
        return Or([predicate_from_dict(part) for part in payload["parts"]])
    if kind == "not":
        return Not(predicate_from_dict(payload["part"]))
    raise QuerySerializationError(f"unknown predicate type {kind!r}")


# ----------------------------------------------------------------------
# query graphs
# ----------------------------------------------------------------------
def query_to_dict(query: QueryGraph) -> Dict[str, Any]:
    """Convert a query graph into a JSON-friendly dictionary.

    Vertices are written in declaration order, which :func:`query_from_dict`
    replays: a plan's slot layouts and a ``Match``'s ``vertex_map`` follow
    it, so a restored engine lays out and reports exactly as the one that
    wrote the snapshot.  Edges are written by id.
    """
    return {
        "name": query.name,
        "vertices": [
            {
                "name": vertex.name,
                "label": vertex.label,
                "predicate": predicate_to_dict(vertex.predicate),
            }
            for vertex in query.vertices()
        ],
        "edges": [
            {
                "id": edge.id,
                "source": edge.source,
                "target": edge.target,
                "label": edge.label,
                "directed": edge.directed,
                "predicate": predicate_to_dict(edge.predicate),
            }
            for edge in sorted(query.edges(), key=lambda e: e.id)
        ],
    }


def query_from_dict(payload: Mapping[str, Any]) -> QueryGraph:
    """Rebuild a query graph from :func:`query_to_dict` output."""
    try:
        query = QueryGraph(payload.get("name", "query"))
        for vertex in payload["vertices"]:
            query.add_vertex(
                vertex["name"],
                vertex.get("label"),
                predicate_from_dict(vertex.get("predicate", {"type": "true"})),
            )
        for edge in payload["edges"]:
            query.add_edge(
                edge["source"],
                edge["target"],
                edge.get("label"),
                predicate_from_dict(edge.get("predicate", {"type": "true"})),
                directed=edge.get("directed", True),
                edge_id=edge.get("id"),
            )
    except (KeyError, TypeError) as error:
        raise QuerySerializationError(f"malformed query payload: {error}") from error
    return query


def query_to_json(query: QueryGraph, indent: int = 2) -> str:
    """Serialise a query graph as a JSON string."""
    return json.dumps(query_to_dict(query), indent=indent, default=str)


def query_from_json(text: str) -> QueryGraph:
    """Parse a query graph from a JSON string produced by :func:`query_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise QuerySerializationError(f"invalid JSON: {error}") from error
    return query_from_dict(payload)
