"""Tests for the SJ-Tree data structure and its invariants (Properties 1-4)."""

import pytest

from repro.core.sjtree import EARLIEST, LATEST, SJTree, SJTreeInvariantError
from repro.graph import TimeWindow
from repro.graph.types import Edge
from repro.query import QueryBuilder


def leaf_subgraphs(query, chunks):
    """Split the query's edge ids into primitives according to ``chunks``."""
    return [query.edge_subgraph(chunk, name=f"p{index}") for index, chunk in enumerate(chunks)]


@pytest.fixture
def tree_and_query(pair_query):
    ids = sorted(pair_query.edge_ids())
    # primitives: (a1 edges), (a2 edges)
    primitives = leaf_subgraphs(pair_query, [ids[:2], ids[2:]])
    return SJTree(pair_query, primitives), pair_query


class TestConstruction:
    def test_left_deep_structure(self, pair_query):
        ids = sorted(pair_query.edge_ids())
        primitives = leaf_subgraphs(pair_query, [[ids[0]], [ids[1]], [ids[2]], [ids[3]]])
        tree = SJTree(pair_query, primitives, shape=SJTree.LEFT_DEEP)
        assert len(tree.leaves()) == 4
        assert len(tree.nodes) == 7
        assert tree.depth() == 4
        tree.validate()

    def test_balanced_structure(self, pair_query):
        ids = sorted(pair_query.edge_ids())
        primitives = leaf_subgraphs(pair_query, [[ids[0]], [ids[1]], [ids[2]], [ids[3]]])
        tree = SJTree(pair_query, primitives, shape=SJTree.BALANCED)
        assert len(tree.nodes) == 7
        assert tree.depth() == 3
        tree.validate()

    def test_single_leaf_tree_is_its_own_root(self, pair_query):
        tree = SJTree(pair_query, [pair_query.copy()])
        assert tree.root.is_leaf and tree.root.is_root
        tree.validate()

    def test_root_subgraph_is_query(self, tree_and_query):
        tree, query = tree_and_query
        assert tree.root.subgraph.same_structure(query)

    def test_cut_vertices_are_child_intersection(self, tree_and_query):
        tree, _ = tree_and_query
        root = tree.root
        assert set(root.cut_vertices) == {"k", "loc"}

    def test_key_vertices_come_from_parent_cut(self, tree_and_query):
        tree, _ = tree_and_query
        for leaf in tree.leaves():
            assert leaf.key_vertices == tree.parent(leaf).cut_vertices
        assert tree.root.key_vertices == ()

    def test_sibling_and_parent_navigation(self, tree_and_query):
        tree, _ = tree_and_query
        left, right = tree.leaves()
        assert tree.sibling(left).id == right.id
        assert tree.sibling(right).id == left.id
        assert tree.parent(left).id == tree.root_id
        assert tree.parent(tree.root) is None
        assert tree.sibling(tree.root) is None

    def test_invalid_shape_rejected(self, pair_query):
        with pytest.raises(ValueError):
            SJTree(pair_query, [pair_query.copy()], shape="weird")

    def test_empty_leaves_rejected(self, pair_query):
        with pytest.raises(ValueError):
            SJTree(pair_query, [])


class TestValidation:
    def test_overlapping_leaves_detected(self, pair_query):
        ids = sorted(pair_query.edge_ids())
        primitives = leaf_subgraphs(pair_query, [ids[:3], ids[2:]])
        tree = SJTree(pair_query, primitives)
        with pytest.raises(SJTreeInvariantError):
            tree.validate()

    def test_incomplete_cover_detected(self, pair_query):
        ids = sorted(pair_query.edge_ids())
        primitives = leaf_subgraphs(pair_query, [ids[:2]])
        tree = SJTree(pair_query, primitives)
        with pytest.raises(SJTreeInvariantError):
            tree.validate()

    def test_valid_tree_passes(self, tree_and_query):
        tree, _ = tree_and_query
        tree.validate()


class TestMatchCollections:
    def make_partial(self, leaf, key_vertex_values, edge_id, timestamp):
        """A partial of the first leaf (``a1`` mentions ``k``, ``a1`` locatedIn ``loc``)."""
        keyword, location = key_vertex_values
        article = f"art{edge_id}"
        mentions, located = leaf.layout.edges
        return leaf.layout.from_maps(
            {"k": keyword, "loc": location, "a1": article},
            {
                mentions: Edge(edge_id, article, keyword, "mentions", timestamp),
                located: Edge(edge_id + 100, article, location, "locatedIn", timestamp),
            },
        )

    def test_leaf_layout_is_vertices_then_edges_then_extent(self, tree_and_query):
        tree, query = tree_and_query
        leaf = tree.leaves()[0]
        assert leaf.layout.vertices == ("a1", "k", "loc")
        assert leaf.layout.edges == tuple(sorted(query.edge_ids())[:2])
        partial = self.make_partial(leaf, ("kw1", "loc1"), 0, 1.0)
        assert partial[:3] == ("art0", "kw1", "loc1")
        assert [edge.id for edge in leaf.layout.edges_of(partial)] == [0, 100]
        assert partial[EARLIEST] == partial[LATEST] == 1.0
        match = leaf.layout.to_match(partial)
        assert leaf.layout.from_maps(match.vertex_map, match.edge_map) == partial

    def test_store_and_lookup_by_key(self, tree_and_query):
        tree, _ = tree_and_query
        leaf = tree.leaves()[0]
        assert leaf.key_vertices == ("k", "loc")
        partial = self.make_partial(leaf, ("kw1", "loc1"), 0, 1.0)
        assert leaf.store_partial(partial) == ("kw1", "loc1")
        assert leaf.partials_for_key(("kw1", "loc1")) == [partial]
        assert leaf.partials_for_key(("other", "loc1")) == []
        assert leaf.match_count() == 1

    def test_expire_matches_drops_old_entries(self, tree_and_query):
        tree, _ = tree_and_query
        leaf = tree.leaves()[0]
        old = self.make_partial(leaf, ("kw1", "loc1"), 0, 1.0)
        new = self.make_partial(leaf, ("kw2", "loc2"), 1, 95.0)
        leaf.store_partial(old)
        leaf.store_partial(new)
        dropped = leaf.expire_matches(TimeWindow(10.0), now=100.0)
        assert dropped == 1
        assert leaf.match_count() == 1
        assert leaf.total_expired == 1
        remaining = list(leaf.partials())
        assert remaining == [new]

    def test_expire_with_unbounded_window_is_noop(self, tree_and_query):
        tree, _ = tree_and_query
        leaf = tree.leaves()[0]
        leaf.store_partial(self.make_partial(leaf, ("kw1", "loc1"), 0, 1.0))
        assert leaf.expire_matches(TimeWindow(None), now=1e9) == 0

    def test_load_state_restores_every_node_and_an_empty_root(self, tree_and_query):
        # the root, the last node built, stores nothing: its collection is
        # written empty and loaded like every other node's (a format-1
        # snapshot's root completions are dropped by the upgrade step)
        tree, query = tree_and_query
        leaf = tree.leaves()[0]
        leaf.store_partial(self.make_partial(leaf, ("kw1", "loc1"), 0, 1.0))
        state = tree.state_dict()
        root_id, root_state = state["nodes"][-1]
        assert root_id == tree.root_id and root_state["matches"] == []
        restored = SJTree(query, [node.subgraph for node in tree.leaves()])
        restored.load_state(state)
        assert restored.state_dict() == state
        assert restored.root.match_count() == 0
        assert restored.total_stored_matches() == 1
        assert restored.match_counts_by_node() == tree.match_counts_by_node()

    def test_tree_level_counters(self, tree_and_query):
        tree, _ = tree_and_query
        leaf = tree.leaves()[0]
        leaf.store_partial(self.make_partial(leaf, ("kw1", "loc1"), 0, 1.0))
        assert tree.total_stored_matches() == 1
        counts = tree.match_counts_by_node()
        assert counts[leaf.id] == 1
        tree.clear_matches()
        assert tree.total_stored_matches() == 0
