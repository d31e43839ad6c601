"""StreamWorks reproduction: continuous subgraph matching over dynamic graphs.

This package reproduces the system described in "StreamWorks: A System for
Dynamic Graph Search" (Choudhury et al., SIGMOD 2013): users register graph
queries against a stream of timestamped, typed edges and are notified the
moment a matching subgraph emerges, via an incremental matching algorithm
built around the SJ-Tree query-decomposition data structure.

High-level entry points
-----------------------
:class:`repro.core.engine.StreamWorksEngine`
    Register continuous queries, feed edges, receive match events.
:class:`repro.core.sharded.ShardedStreamEngine`
    The same contract with queries partitioned across N shards, run one
    after another in-process, emitting the identical event stream.
:class:`repro.query.builder.QueryBuilder` / :func:`repro.query.parser.parse_query`
    Construct query graphs programmatically or from text.
:mod:`repro.workloads`
    Synthetic cyber / news / social stream generators used by the examples,
    tests and benchmarks.
"""

from .graph import DynamicGraph, Edge, PropertyGraph, TimeWindow, Vertex
from .isomorphism import Match, SubgraphMatcher
from .query import QueryBuilder, QueryGraph, parse_query

__version__ = "1.0.0"

__all__ = [
    "DynamicGraph",
    "Edge",
    "Match",
    "PropertyGraph",
    "QueryBuilder",
    "QueryGraph",
    "SubgraphMatcher",
    "TimeWindow",
    "Vertex",
    "parse_query",
    "__version__",
]
