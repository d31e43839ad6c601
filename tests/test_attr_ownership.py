"""Who owns a record's attribute dicts once it is offered to an engine.

A stream record copies the mappings it is given.  The window store then
keeps the record's ``attrs`` dict itself: the stored ``Edge`` adopts it,
and every partial and emitted match holding the edge shares it, so a
record's attributes are stored once.  Vertex attributes are merged into
the stored vertex's own dict and never write into the record's.  The
copying helpers (``Edge.copy``, ``Edge.to_dict``, ``PropertyGraph.copy``)
hand out independent dicts.
"""

from types import MappingProxyType

from repro.core import StreamWorksEngine
from repro.graph.property_graph import PropertyGraph
from repro.graph.types import Edge
from repro.query.query_graph import QueryGraph
from repro.streaming import StreamEdge


def two_hop_query():
    query = QueryGraph("two_hop")
    for name in ("a", "b", "c"):
        query.add_vertex(name)
    query.add_edge("a", "b", "rel_x")
    query.add_edge("b", "c", "rel_y")
    return query


def two_hop_records():
    return [
        StreamEdge("u", "v", "rel_x", 1.0, {"port": 53}),
        StreamEdge("v", "w", "rel_y", 2.0, {"port": 80}),
    ]


def test_the_stored_edge_adopts_the_record_attrs_and_the_event_holds_that_edge():
    engine = StreamWorksEngine()
    engine.register_query(two_hop_query(), window=10.0)
    records = two_hop_records()
    engine.process_batch(records)

    stored = list(engine.graph.graph.edges())
    assert [edge.attrs is record.attrs for edge, record in zip(stored, records)] == [True, True]
    (event,) = engine.events("two_hop")
    matched = sorted(event.match.edge_map.values(), key=lambda edge: edge.timestamp)
    assert [edge is stored_edge for edge, stored_edge in zip(matched, stored)] == [True, True]


def test_merging_source_attrs_into_a_stored_vertex_leaves_the_record_dict_alone():
    engine = StreamWorksEngine()
    engine.register_query(two_hop_query(), window=10.0)
    first = StreamEdge("u", "v", "rel_x", 1.0, source_attrs={"os": "linux"})
    second = StreamEdge("u", "w", "rel_x", 2.0, source_attrs={"zone": "dmz"})
    engine.process_batch([first, second])

    vertex = engine.graph.graph.vertex("u")
    assert vertex.attrs == {"os": "linux", "zone": "dmz"}
    assert vertex.attrs is not first.source_attrs
    assert first.source_attrs == {"os": "linux"}
    assert second.source_attrs == {"zone": "dmz"}


def test_a_record_copies_the_mappings_it_is_given():
    attrs, source_attrs = {"port": 53}, {"os": "linux"}
    record = StreamEdge("u", "v", "rel_x", 1.0, attrs, source_attrs=source_attrs)
    assert record.attrs == attrs and record.attrs is not attrs
    assert record.source_attrs == source_attrs and record.source_attrs is not source_attrs


def test_an_edge_adopts_a_plain_dict_and_copies_any_other_mapping():
    attrs = {"w": 1}
    assert Edge(1, "a", "b", "link", 1.0, attrs).attrs is attrs
    proxy = MappingProxyType({"w": 1})
    copied = Edge(1, "a", "b", "link", 1.0, proxy).attrs
    assert type(copied) is dict and copied == {"w": 1}
    assert Edge(1, "a", "b", "link").attrs == {}


def test_edge_copy_and_to_dict_return_dicts_of_their_own():
    attrs = {"w": 1}
    edge = Edge(1, "a", "b", "link", 1.0, attrs)
    assert edge.copy().attrs is not attrs
    assert edge.copy().attrs == attrs
    assert edge.to_dict()["attrs"] is not attrs


def test_property_graph_copy_does_not_share_edge_or_vertex_attrs():
    graph = PropertyGraph()
    attrs = {"w": 1}
    edge = graph.add_edge("a", "b", "link", 1.0, attrs, source_label="H", target_label="H")
    assert edge.attrs is attrs
    graph.add_vertex("a", "H", {"os": "linux"})

    clone = graph.copy()
    assert clone.edge(edge.id).attrs == attrs
    assert clone.edge(edge.id).attrs is not attrs
    assert clone.vertex("a").attrs is not graph.vertex("a").attrs
    clone.edge(edge.id).attrs["w"] = 2
    assert attrs == {"w": 1}
