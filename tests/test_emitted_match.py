"""What an emitted match keeps: its completion tuple, not two dicts.

A completion climbs the SJ-tree as a flat tuple in the root's slot layout,
and the event's match holds that layout and that tuple and nothing else.
``vertex_map`` and ``edge_map`` are read-only copies built on each read, in
the query's declaration order; everything else a ``Match`` answers (extent,
size, identities, state) equals what the dict-built match of the same
bindings answers.  A copy or a pickle of an event carries an equal match.
"""

import copy
import gc
import json
import pickle

import pytest

from repro.core import StreamWorksEngine
from repro.isomorphism.match import Match
from repro.query import QueryBuilder
from repro.streaming import StreamEdge


def path_records():
    hosts = ("h0", "h1", "h2", "h3", "h4")
    return [
        StreamEdge(source, target, "link", float(step), {"step": step},
                   source_label="Host", target_label="Host")
        for step, (source, target) in enumerate(zip(hosts, hosts[1:]), start=1)
    ]


@pytest.fixture(params=["one_leaf", "joined"])
def emitted(request, path_query, pair_query, news_record_factory):
    """``(engine, root layout, events)`` for a one-leaf root and a joined root."""
    if request.param == "one_leaf":
        query, records = path_query, path_records()
    else:
        query, records = pair_query, news_record_factory(8)
    engine = StreamWorksEngine()
    engine.register_query(query, window=100.0)
    engine.process_batch(records)
    tree = engine.queries[query.name].matcher.tree
    assert tree.root.is_leaf == (request.param == "one_leaf")
    events = engine.events(query.name)
    assert len(events) >= 2
    return engine, tree.root.layout, events


def dict_built(layout, completion):
    """The dict-backed match of a completion, maps in layout order."""
    return Match(
        dict(zip(layout.vertices, completion)),
        dict(zip(layout.edges, layout.edges_of(completion))),
    )


def completion_of(match):
    (completion,) = [item for item in gc.get_referents(match) if type(item) is tuple]
    return completion


def test_an_emitted_match_refers_to_its_layout_and_completion_tuple_and_no_dict(emitted):
    _, layout, events = emitted
    for event in events:
        referents = [item for item in gc.get_referents(event.match) if not isinstance(item, type)]
        assert not any(isinstance(item, dict) for item in referents)
        assert len(referents) == 2
        assert any(item is layout for item in referents)
        completion = completion_of(event.match)
        assert len(completion) == layout.width


def test_an_emitted_match_holds_the_stored_edges_by_identity(emitted):
    engine, layout, events = emitted
    stored = {edge.id: edge for edge in engine.graph.graph.edges()}
    for event in events:
        edges = layout.edges_of(completion_of(event.match))
        assert all(edge is stored[edge.id] for edge in edges)
        assert all(
            bound is held for bound, held in zip(event.match.edge_map.values(), edges)
        )


def test_the_maps_equal_the_dict_built_match_in_declaration_order(emitted):
    engine, layout, events = emitted
    query = engine.queries[events[0].query_name].query
    vertices, edges = query.declaration_order()
    for event in events:
        match = event.match
        reference = dict_built(layout, completion_of(match))
        assert list(match.vertex_map.items()) == list(reference.vertex_map.items())
        assert list(match.vertex_map) == list(vertices)
        assert [(qe, id(edge)) for qe, edge in match.edge_map.items()] == [
            (qe, id(edge)) for qe, edge in reference.edge_map.items()
        ]
        assert list(match.edge_map) == list(edges)
        assert (match.earliest, match.latest, match.span) == (
            reference.earliest, reference.latest, reference.span
        )
        assert (len(match), match.size) == (len(reference), reference.size)
        assert match.data_edge_ids() == reference.data_edge_ids()


def test_each_read_is_a_new_dict_and_changing_it_leaves_the_match_alone(emitted):
    _, layout, events = emitted
    match = events[0].match
    reference = dict_built(layout, completion_of(match))
    assert match.vertex_map is not match.vertex_map
    assert match.edge_map is not match.edge_map
    vertex_map, edge_map = match.vertex_map, match.edge_map
    vertex_map.clear()
    edge_map[max(edge_map) + 1] = next(iter(edge_map.values()))
    assert match.vertex_map == reference.vertex_map
    assert match.edge_map == reference.edge_map


def test_equality_hash_and_identities_equal_the_dict_built_match(emitted):
    _, layout, events = emitted
    for event in events:
        match = event.match
        reference = dict_built(layout, completion_of(match))
        assert match == reference and reference == match
        assert hash(match) == hash(reference)
        assert match.identity() == reference.identity()
        assert match.portable_identity() == reference.portable_identity()
        assert json.dumps(match.state_dict()) == json.dumps(reference.state_dict())
    assert events[0].match != events[1].match


@pytest.mark.parametrize(
    "clone",
    [
        pytest.param(lambda event: pickle.loads(pickle.dumps(event)), id="pickle"),
        pytest.param(
            lambda event: pickle.loads(pickle.dumps(event, pickle.HIGHEST_PROTOCOL)),
            id="pickle_highest",
        ),
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
    ],
)
def test_a_copied_or_pickled_event_carries_an_equal_match(emitted, clone):
    _, _, events = emitted
    for event in events:
        cloned = clone(event)
        assert (cloned.query_name, cloned.detected_at, cloned.sequence, cloned.trigger_index) == (
            event.query_name, event.detected_at, event.sequence, event.trigger_index
        )
        assert cloned.match == event.match
        assert json.dumps(cloned.match.state_dict()) == json.dumps(event.match.state_dict())
        assert cloned.to_dict() == event.to_dict()


def test_a_copied_match_is_dict_backed_and_independent():
    engine = StreamWorksEngine()
    engine.register_query(
        QueryBuilder("hop").vertex("x", "Host").vertex("y", "Host").edge("x", "y", "link").build(),
        window=100.0,
    )
    (event,) = engine.process_batch(path_records()[:1])
    for cloned in (copy.copy(event.match), copy.deepcopy(event.match)):
        assert type(cloned) is Match
        assert cloned == event.match
        cloned.vertex_map["x"] = "elsewhere"
        assert event.match.vertex_map["x"] == "h0"
