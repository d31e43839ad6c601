"""The Subgraph Join Tree (SJ-Tree), the paper's central data structure.

Definition 4.1.1 of the paper: an SJ-Tree ``T`` is a binary tree whose nodes
each correspond to a subgraph of the query graph, with

* **Property 1** -- the root's subgraph is the query graph itself;
* **Property 2** -- every internal node's subgraph is the join (vertex union
  + edge union) of its children's subgraphs;
* **Property 3** -- every node maintains a collection of matching data
  subgraphs (partial matches) for its query subgraph; the root's matches
  are the engine's events, so the root keeps no collection of its own;
* **Property 4** -- every internal node stores a *cut subgraph*: the
  intersection of its children's subgraphs.  With an edge-disjoint
  decomposition the cut consists of the shared query vertices, and it is the
  join key on which child matches are combined.

The leaves carry the *search primitives* produced by query decomposition;
only leaves are searched against the stream (via local search around each
new edge), and partial matches climb the tree through joins.

Every node has a fixed :class:`SlotLayout`, derived from its subgraph: its
vertex names, then its query edge ids, in the subgraph's order -- the
root's in the query's declaration order.  A stored partial is one flat
tuple in that layout, ``(v..., e..., earliest, latest)``: data vertex ids,
bound data :class:`~repro.graph.types.Edge` values, then the temporal
extent.  Nothing is a :class:`~repro.isomorphism.match.Match` until it
completes at the root.

Match collections are hash-indexed by the projection of the partial onto the
parent's cut vertices -- one ``operator.itemgetter`` per node, computed once
per store and reused for the sibling probe -- so the probe during a join is
a dictionary lookup, not a scan.  Within a bucket a partial is filed under
an insertion serial: local search finds every embedding exactly once (the
newest-edge rule, :mod:`repro.core.local_search`), so a node is never
offered the same partial twice and needs no identity check.  Each node also
keeps an expiry queue so partials older than the query window can be swept
out cheaply.  Every non-root node is wired to its sibling's buckets and its
parent; :meth:`SJTree.compile_join` gives an internal node the merge plan
(:mod:`repro.core.join`) that combines its children's partials.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Any, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..graph.types import Edge, EdgeId
from ..graph.window import ExpiryQueue, TimeWindow
from ..isomorphism.match import Match
from ..query.query_graph import QueryGraph
from .join import JoinPlan, compile_join

__all__ = [
    "EARLIEST",
    "LATEST",
    "LaidOutMatch",
    "LeafWork",
    "Partial",
    "SlotLayout",
    "SJTreeNode",
    "SJTree",
    "SJTreeInvariantError",
]

#: A stored partial match: ``(v..., e..., earliest, latest)`` in its node's
#: :class:`SlotLayout`.
Partial = Tuple[Any, ...]
#: Slots of a partial's temporal extent (least and greatest bound timestamp).
EARLIEST = -2
LATEST = -1

#: A partial's bucket key: the projection onto the parent's cut vertices (a
#: bare value for a one-vertex cut, ``()`` for an empty one).
MatchKey = Any
#: A node's join wiring: ``(sibling's buckets, parent, the parent's merge
#: plan or ``None`` until :meth:`SJTree.compile_join` runs, whether this
#: node is the left child, the sibling leaf while it is lazy or ``None``)``.
#: The sibling is reached through its bucket dict; only a lazy sibling is
#: named, and a lazy leaf's own wiring never names its eager sibling, so no
#: two nodes point at each other.
NodeJoin = Tuple[
    Dict[MatchKey, Dict[int, Partial]], "SJTreeNode", Optional[JoinPlan], bool, Optional["SJTreeNode"]
]


#: The key of a partial whose parent's cut is empty (and of the root's).
NO_KEY = itemgetter(slice(0, 0))


class SlotLayout:
    """Where a node's partials keep each binding: vertex slots, edge slots, extent."""

    __slots__ = ("vertices", "edges", "first_edge", "width")

    def __init__(self, vertices: Tuple[str, ...], edges: Tuple[int, ...]) -> None:
        self.vertices = vertices
        self.edges = edges
        #: Slot of the first edge: the vertices come before it.
        self.first_edge = len(vertices)
        #: Slots in a partial, the extent included.
        self.width = len(vertices) + len(edges) + 2

    @classmethod
    def of(cls, subgraph: QueryGraph) -> "SlotLayout":
        """The layout of ``subgraph``: its vertices, then its edges, in declaration order."""
        return cls(*subgraph.declaration_order())

    def edges_of(self, partial: Partial) -> Tuple[Edge, ...]:
        """The data edges a partial binds, in layout order."""
        return partial[self.first_edge : -2]

    def vertex_slot(self, name: str) -> int:
        """Slot of a query vertex."""
        return self.vertices.index(name)

    def edge_slot(self, query_edge: int) -> int:
        """Slot of a query edge."""
        return self.first_edge + self.edges.index(query_edge)

    def from_maps(
        self, vertex_map: Mapping[str, Any], edge_map: Mapping[int, Edge]
    ) -> Partial:
        """Lay out bindings of exactly this layout's variables; the extent is read off the edges."""
        edges = tuple(edge_map[query_edge] for query_edge in self.edges)
        stamps = [edge.timestamp for edge in edges]
        return (
            *(vertex_map[name] for name in self.vertices),
            *edges,
            min(stamps),
            max(stamps),
        )

    def to_match(self, partial: Partial) -> "LaidOutMatch":
        """The :class:`Match` of a partial: the layout and the tuple, nothing copied.

        Its ``vertex_map`` and ``edge_map`` are read-only copies, built in
        layout order on each read (:class:`LaidOutMatch`).
        """
        return LaidOutMatch(self, partial)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotLayout({self.vertices}, {self.edges})"


class LaidOutMatch(Match):
    """A :class:`Match` that keeps a partial in its layout instead of two dicts.

    It holds the :class:`SlotLayout` and the tuple and nothing else: an
    emitted event retains its completion tuple, whose data
    :class:`~repro.graph.types.Edge` values are the stored edges
    themselves.  ``vertex_map`` and ``edge_map`` are read-only: each read
    builds a fresh dict in layout order, so changing one leaves the match
    as it was.  The extent, the size and the data edge ids are read off
    the tuple.  ``Match``'s own storage slots stay unset.  A copy or a
    pickle is a dict-backed :class:`Match` equal to this one.
    """

    __slots__ = ("layout", "partial")

    def __init__(self, layout: SlotLayout, partial: Partial) -> None:
        self.layout = layout
        self.partial = partial

    # read-only views of the tuple override Match's writable slots
    @property
    def vertex_map(self) -> Dict[str, Any]:  # type: ignore[override]
        return dict(zip(self.layout.vertices, self.partial))

    @property
    def edge_map(self) -> Dict[int, Edge]:  # type: ignore[override]
        layout = self.layout
        return dict(zip(layout.edges, layout.edges_of(self.partial)))

    @property
    def earliest(self) -> float:  # type: ignore[override]
        return self.partial[EARLIEST]  # type: ignore[no-any-return]

    @property
    def latest(self) -> float:  # type: ignore[override]
        return self.partial[LATEST]  # type: ignore[no-any-return]

    @property
    def span(self) -> float:
        return self.latest - self.earliest

    def data_edge_ids(self) -> FrozenSet[EdgeId]:
        return frozenset(edge.id for edge in self.layout.edges_of(self.partial))

    def __len__(self) -> int:
        return len(self.layout.edges)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (Match, (self.vertex_map, self.edge_map))


class SJTreeInvariantError(AssertionError):
    """Raised by :meth:`SJTree.validate` when a structural property is violated."""


@dataclass
class LeafWork:
    """A leaf's work counters and mode, by the names ``metrics()["leaves"]`` and snapshots use."""

    #: Records routed to the leaf.
    records_routed: int = 0
    #: Embeddings of the primitive found (eager, lazy and directed searches).
    embeddings_found: int = 0
    #: Records a lazy leaf turned away: no partner waiting in the sibling.
    lazy_misses: int = 0
    #: Searches for the (lazy) primitive run from a sibling partial's cut vertices.
    directed_searches: int = 0
    #: Mode switches, eager to lazy and back.
    mode_flips: int = 0
    #: ``True`` while the leaf is lazy: searched only where its sibling
    #: holds a partner, and storing nothing (its bucket is empty).
    lazy: bool = False


class SJTreeNode:
    """One node of an SJ-Tree: a query subgraph plus its collection of partials."""

    def __init__(self, node_id: int, subgraph: QueryGraph) -> None:
        self.id = node_id
        self.subgraph = subgraph
        # structure (parent/left/right/cuts/keys/layout/joins) is rebuilt
        # from the decomposition before load_state runs, never snapshotted
        self.parent_id: Optional[int] = None  # repro-lint: ignore[snapshot-coverage]
        self.left_id: Optional[int] = None  # repro-lint: ignore[snapshot-coverage]
        self.right_id: Optional[int] = None  # repro-lint: ignore[snapshot-coverage]
        #: Cut vertices shared by the two children (internal nodes only,
        #: Property 4).  Sorted so projection keys are canonical.
        self.cut_vertices: Tuple[str, ...] = ()  # repro-lint: ignore[snapshot-coverage]
        #: Vertices on which *this* node's partials are keyed, i.e. the cut
        #: of the parent node.  Empty for the root.
        self.key_vertices: Tuple[str, ...] = ()  # repro-lint: ignore[snapshot-coverage]
        #: Slot layout of this node's partials, a function of the subgraph.
        self.layout = SlotLayout.of(subgraph)
        #: Picks a partial's bucket key (:data:`MatchKey`); set with
        #: ``key_vertices`` by the tree build.
        self.key_of: "itemgetter[Any]" = NO_KEY  # repro-lint: ignore[snapshot-coverage]
        #: The :data:`NodeJoin`; ``None`` at the root.
        self.join: Optional[NodeJoin] = None  # repro-lint: ignore[snapshot-coverage]
        # key -> {insertion serial -> partial}
        self._matches: Dict[MatchKey, Dict[int, Partial]] = {}
        # the expiry queue and its counter are rebuilt by store_partial
        # during load_state re-insertion
        self._expiry: ExpiryQueue[Tuple[MatchKey, int]] = ExpiryQueue()  # repro-lint: ignore[snapshot-coverage]
        self._match_count = 0  # repro-lint: ignore[snapshot-coverage]
        self.total_inserted = 0
        self.total_expired = 0
        #: This leaf's work and mode (zero and eager on internal nodes).
        self.work = LeafWork()
        #: ``work.records_routed`` when the matcher's current marking epoch began.
        self.routed_mark = 0
        #: ``total_inserted`` when the matcher's current marking epoch began.
        self.stored_mark = 0

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        """Return ``True`` when the node has no children."""
        return self.left_id is None and self.right_id is None

    @property
    def is_root(self) -> bool:
        """Return ``True`` when the node has no parent."""
        return self.parent_id is None

    # ------------------------------------------------------------------
    # partial collection (Property 3)
    # ------------------------------------------------------------------
    def store_partial(self, partial: Partial) -> MatchKey:
        """Insert a partial under the next insertion serial; return its bucket key."""
        key = self.key_of(partial)
        bucket = self._matches.get(key)
        if bucket is None:
            bucket = self._matches[key] = {}
        serial = self.total_inserted
        bucket[serial] = partial
        self._expiry.push(partial[EARLIEST], (key, serial))
        self._match_count += 1
        self.total_inserted = serial + 1
        return key

    def partials_for_key(self, key: MatchKey) -> List[Partial]:
        """Return the stored partials whose projection equals ``key``, oldest first."""
        bucket = self._matches.get(key)
        if not bucket:
            return []
        return list(bucket.values())

    def partials(self) -> Iterator[Partial]:
        """Iterate over every stored partial, bucket by bucket."""
        for bucket in self._matches.values():
            yield from bucket.values()

    def match_count(self) -> int:
        """Return the number of currently stored partials."""
        return self._match_count

    def earliest_stored(self) -> float:
        """Return the least ``earliest`` among the stored partials (``inf`` when none).

        Every queued entry is a stored partial (partials leave the
        collection only through the queue), so the queue's head is exact.
        """
        oldest = self._expiry.peek_oldest()
        return float("inf") if oldest is None else oldest[0]

    def expire_matches(self, window: TimeWindow, now: float) -> int:
        """Drop partials that can no longer participate in a new in-window match.

        A partial with earliest edge timestamp ``t`` is dead once
        ``window.is_expired(t, now)``: any future edge only increases the
        span.  That is the span test joins and emission apply, computed the
        same way (``now - t`` against the duration), so a partial the sweep
        drops is one they would reject -- a threshold ``now - tW`` compared
        with ``t`` can round the other way on the boundary.  Returns the
        number of partials dropped.
        """
        if not window.bounded:
            return 0
        oldest = self._expiry.peek_oldest()
        if oldest is None or not window.is_expired(oldest[0], now):
            # nothing stored is old enough -- skip without touching the heap
            return 0
        dropped = 0
        for key, serial in self._expiry.pop_expired_at(window, now):
            bucket = self._matches.get(key)
            if not bucket:
                continue
            if serial in bucket:
                del bucket[serial]
                dropped += 1
                self._match_count -= 1
                self.total_expired += 1
            if not bucket:
                del self._matches[key]
        return dropped

    def clear_matches(self) -> int:
        """Remove every stored partial; return how many there were.

        The bucket dict is emptied in place: the sibling's join wiring
        holds it.
        """
        dropped = self._match_count
        self._matches.clear()
        self._expiry = ExpiryQueue()
        self._match_count = 0
        return dropped

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serialise the node's partials and lifetime counters.

        Each partial is written as a match entry, ``{"v": [[name, vertex],
        ...], "e": [[query edge, edge dict], ...]}`` in layout order, and
        the entries are listed bucket by bucket in the collection's
        iteration order.  That order is load-bearing: a bucket feeds join
        candidate enumeration, which decides the order partials climb the
        tree in, so :meth:`load_state` re-inserts in exactly this order.
        """
        layout = self.layout
        state: Dict[str, object] = {
            "matches": [
                {
                    "v": [list(pair) for pair in zip(layout.vertices, partial)],
                    "e": [
                        [query_edge, edge.to_dict()]
                        for query_edge, edge in zip(layout.edges, layout.edges_of(partial))
                    ],
                }
                for partial in self.partials()
            ],
            "total_inserted": self.total_inserted,
            "total_expired": self.total_expired,
        }
        if self.is_leaf:
            state["work"] = asdict(self.work)
            state["routed_mark"] = self.routed_mark
            state["stored_mark"] = self.stored_mark
        return state

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore the partials captured by :meth:`state_dict`.

        The node must be freshly built (keys assigned, nothing stored):
        re-inserting through :meth:`store_partial` reproduces the bucket
        layout and the expiry queue's tie-break order.  Serials restart from
        zero; only their order within a bucket is ever read.  Entries are
        read by name, so an entry's own binding order does not matter.
        """
        from_maps = self.layout.from_maps
        for payload in state["matches"]:
            self.store_partial(
                from_maps(
                    {name: vertex for name, vertex in payload["v"]},
                    {query_edge: Edge.from_dict(edge) for query_edge, edge in payload["e"]},
                )
            )
        self.total_inserted = state["total_inserted"]
        self.total_expired = state["total_expired"]
        if self.is_leaf:
            self.work = LeafWork(**state["work"])
            self.routed_mark = state["routed_mark"]
            self.stored_mark = state["stored_mark"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else ("root" if self.is_root else "internal")
        return (
            f"SJTreeNode(id={self.id}, {kind}, edges={sorted(self.subgraph.edge_ids())}, "
            f"matches={self._match_count})"
        )


class SJTree:
    """A binary join tree over an edge-disjoint decomposition of a query graph.

    Parameters
    ----------
    query:
        The full query graph (becomes the root's subgraph, Property 1).
    leaf_subgraphs:
        The ordered search primitives.  Order matters: with ``shape="left_deep"``
        the first two primitives join first, then each subsequent primitive
        joins the accumulated partial match (the paper's recommended layout,
        with the most selective primitive first).
    shape:
        ``"left_deep"`` (default) or ``"balanced"``.
    """

    LEFT_DEEP = "left_deep"
    BALANCED = "balanced"

    def __init__(
        self,
        query: QueryGraph,
        leaf_subgraphs: Sequence[QueryGraph],
        shape: str = LEFT_DEEP,
    ) -> None:
        if not leaf_subgraphs:
            raise ValueError("an SJ-Tree needs at least one leaf primitive")
        if shape not in (self.LEFT_DEEP, self.BALANCED):
            raise ValueError(f"unknown SJ-Tree shape {shape!r}")
        self.query = query
        self.shape = shape
        self.nodes: Dict[int, SJTreeNode] = {}
        # leaf_ids/root_id/_next_id are assigned by the deterministic tree
        # build that precedes load_state, so they are not snapshotted
        self.leaf_ids: List[int] = []  # repro-lint: ignore[snapshot-coverage]
        self.root_id: int = -1  # repro-lint: ignore[snapshot-coverage]
        self._next_id = 0  # repro-lint: ignore[snapshot-coverage]
        self._build(list(leaf_subgraphs), shape)
        # completions are read in the query's declaration order, and an
        # internal node's layout is free: so is the root's, leaf or not
        root = self.nodes[self.root_id]
        vertices, edges = query.declaration_order()
        if root.layout.vertices != vertices or root.layout.edges != edges:
            root.layout = SlotLayout(vertices, edges)
        self._assign_key_vertices()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_node(self, subgraph: QueryGraph) -> SJTreeNode:
        node = SJTreeNode(self._next_id, subgraph)
        self.nodes[node.id] = node
        self._next_id += 1
        return node

    def _join_nodes(self, left: SJTreeNode, right: SJTreeNode) -> SJTreeNode:
        parent = self._new_node(left.subgraph.union(right.subgraph))
        parent.left_id = left.id
        parent.right_id = right.id
        left.parent_id = parent.id
        right.parent_id = parent.id
        parent.cut_vertices = tuple(
            sorted(left.subgraph.vertex_intersection(right.subgraph))
        )
        return parent

    def _build(self, leaf_subgraphs: List[QueryGraph], shape: str) -> None:
        leaves = [self._new_node(subgraph) for subgraph in leaf_subgraphs]
        self.leaf_ids = [leaf.id for leaf in leaves]
        if len(leaves) == 1:
            self.root_id = leaves[0].id
            return
        if shape == self.LEFT_DEEP:
            current = leaves[0]
            for leaf in leaves[1:]:
                current = self._join_nodes(current, leaf)
            self.root_id = current.id
        else:  # balanced
            level: List[SJTreeNode] = leaves
            while len(level) > 1:
                next_level: List[SJTreeNode] = []
                for i in range(0, len(level) - 1, 2):
                    next_level.append(self._join_nodes(level[i], level[i + 1]))
                if len(level) % 2 == 1:
                    next_level.append(level[-1])
                level = next_level
            self.root_id = level[0].id

    def _assign_key_vertices(self) -> None:
        for node in self.nodes.values():
            if node.parent_id is None:
                node.key_vertices = ()
                continue
            parent = self.nodes[node.parent_id]
            node.key_vertices = parent.cut_vertices
            slots = [node.layout.vertices.index(name) for name in node.key_vertices]
            # a one-vertex cut keys on the bare vertex id: both siblings
            # project the same way, so their keys still agree
            node.key_of = itemgetter(*slots) if slots else NO_KEY
            left = parent.left_id == node.id
            sibling_id = parent.right_id if left else parent.left_id
            assert sibling_id is not None  # an internal node has two children
            node.join = (self.nodes[sibling_id]._matches, parent, None, left, None)

    def compile_join(self, parent: SJTreeNode, window: TimeWindow) -> JoinPlan:
        """Compile ``parent``'s merge plan under ``window`` into both children's joins.

        The matcher calls this the first time a partial meets a non-empty
        sibling bucket below ``parent``, so a node no partial ever reaches
        costs registration nothing.
        """
        assert parent.left_id is not None and parent.right_id is not None
        left, right = self.nodes[parent.left_id], self.nodes[parent.right_id]
        plan = compile_join(
            left.subgraph, left.layout, right.subgraph, right.layout, parent.layout, window
        )
        left.join = (right._matches, parent, plan, True, right if right.work.lazy else None)
        right.join = (left._matches, parent, plan, False, left if left.work.lazy else None)
        return plan

    def set_lazy(self, leaf: SJTreeNode, lazy: bool) -> None:
        """Mark ``leaf`` lazy or eager and rewire its sibling's join to match.

        A lazy leaf's sibling names it in its wiring, so a partial the
        sibling stores runs a directed search for the leaf's primitive
        instead of probing the leaf's (empty) bucket.  The buckets
        themselves are the caller's: it drops or rebuilds them.
        """
        leaf.work.lazy = lazy
        sibling = self.sibling(leaf)
        assert sibling is not None and sibling.join is not None
        buckets, parent, plan, left, _ = sibling.join
        sibling.join = (buckets, parent, plan, left, leaf if lazy else None)

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    @property
    def root(self) -> SJTreeNode:
        """Return the root node."""
        return self.nodes[self.root_id]

    def node(self, node_id: int) -> SJTreeNode:
        """Return a node by id."""
        return self.nodes[node_id]

    def leaves(self) -> List[SJTreeNode]:
        """Return the leaf nodes in decomposition order."""
        return [self.nodes[node_id] for node_id in self.leaf_ids]

    def parent(self, node: SJTreeNode) -> Optional[SJTreeNode]:
        """Return the parent node or ``None`` for the root."""
        if node.parent_id is None:
            return None
        return self.nodes[node.parent_id]

    def sibling(self, node: SJTreeNode) -> Optional[SJTreeNode]:
        """Return the sibling node or ``None`` for the root."""
        parent = self.parent(node)
        if parent is None:
            return None
        sibling_id = parent.right_id if parent.left_id == node.id else parent.left_id
        return self.nodes[sibling_id] if sibling_id is not None else None

    def depth(self) -> int:
        """Return the number of levels in the tree (single node -> 1)."""

        def node_depth(node_id: int) -> int:
            node = self.nodes[node_id]
            if node.is_leaf:
                return 1
            children = [c for c in (node.left_id, node.right_id) if c is not None]
            return 1 + max(node_depth(child) for child in children)

        return node_depth(self.root_id)

    def total_stored_matches(self) -> int:
        """Return the total number of partials currently stored in all nodes."""
        return sum(node.match_count() for node in self.nodes.values())

    def match_counts_by_node(self) -> Dict[int, int]:
        """Return ``{node id: stored match count}`` (a Fig. 7-style progress snapshot)."""
        return {node.id: node.match_count() for node in self.nodes.values()}

    def clear_matches(self) -> None:
        """Drop every stored partial match (query structure is kept)."""
        for node in self.nodes.values():
            node.clear_matches()

    # ------------------------------------------------------------------
    # persistence support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serialise every node's partials (structure is rebuilt, not stored).

        The tree *structure* is deterministic given the decomposition, so
        only the per-node collections are captured; :meth:`load_state`
        targets a tree freshly built from the same decomposition (node ids
        match by construction).
        """
        return {
            "nodes": [[node_id, self.nodes[node_id].state_dict()] for node_id in self.nodes],
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore per-node collections captured by :meth:`state_dict`."""
        for node_id, node_state in state["nodes"]:
            self.nodes[node_id].load_state(node_state)

    # ------------------------------------------------------------------
    # invariants (Properties 1, 2, 4 and decomposition sanity)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Verify the structural SJ-Tree properties; raise :class:`SJTreeInvariantError` otherwise."""
        root = self.root
        if not root.subgraph.same_structure(self.query):
            raise SJTreeInvariantError(
                "Property 1 violated: root subgraph differs from the query graph"
            )
        for node in self.nodes.values():
            if node.is_leaf:
                continue
            if node.left_id is None or node.right_id is None:
                raise SJTreeInvariantError(
                    f"internal node {node.id} must have exactly two children"
                )
            left = self.nodes[node.left_id].subgraph
            right = self.nodes[node.right_id].subgraph
            # same_structure against left.union(right), without building it
            subgraph = node.subgraph
            if (
                subgraph.vertex_names() != left.vertex_names() | right.vertex_names()
                or subgraph.edge_ids() != left.edge_ids() | right.edge_ids()
            ):
                raise SJTreeInvariantError(
                    f"Property 2 violated at node {node.id}: subgraph is not the "
                    "join of its children"
                )
            expected_cut = tuple(sorted(left.vertex_intersection(right)))
            if node.cut_vertices != expected_cut:
                raise SJTreeInvariantError(
                    f"Property 4 violated at node {node.id}: cut vertices "
                    f"{node.cut_vertices} != {expected_cut}"
                )
        # leaves must partition the query edges (edge-disjoint cover)
        covered: Set[int] = set()
        for leaf in self.leaves():
            leaf_edges = leaf.subgraph.edge_ids()
            if covered & leaf_edges:
                raise SJTreeInvariantError("leaf primitives overlap on query edges")
            covered |= leaf_edges
        if covered != self.query.edge_ids():
            raise SJTreeInvariantError("leaf primitives do not cover every query edge")

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def earliest_stored(self) -> float:
        """Return the least ``earliest`` among every node's stored matches (``inf`` when none)."""
        return min((node.earliest_stored() for node in self.nodes.values()), default=float("inf"))

    def expire_matches(self, window: TimeWindow, now: float) -> int:
        """Expire partial matches in every node; return the total dropped."""
        if not window.bounded:
            return 0
        return sum(node.expire_matches(window, now) for node in self.nodes.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SJTree(query={self.query.name!r}, leaves={len(self.leaf_ids)}, "
            f"shape={self.shape!r}, stored={self.total_stored_matches()})"
        )
