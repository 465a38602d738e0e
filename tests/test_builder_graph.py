"""Unit tests for GraphBuilder and the CSR PropertyGraph."""

import pytest

from repro.errors import GraphError, InvalidEdgeError, InvalidVertexError
from repro.graph import GraphBuilder


def build_triangle():
    builder = GraphBuilder()
    a = builder.add_vertex(label="person", age=31)
    b = builder.add_vertex(label="person", age=17)
    c = builder.add_vertex(label="item", price=9.5)
    builder.add_edge(a, b, label="friend", since=2015)
    builder.add_edge(b, c, label="bought")
    builder.add_edge(a, c, label="bought", when=2020)
    return builder.build()


class TestBuilder:
    def test_shape(self):
        graph = build_triangle()
        assert graph.num_vertices == 3
        assert graph.num_edges == 3

    def test_add_vertices_bulk(self):
        builder = GraphBuilder()
        ids = builder.add_vertices(5, label="x")
        assert list(ids) == [0, 1, 2, 3, 4]
        graph = builder.build()
        assert graph.num_vertices == 5
        assert graph.vertex_label_name(3) == "x"

    def test_edge_endpoint_validation(self):
        builder = GraphBuilder()
        builder.add_vertex()
        with pytest.raises(GraphError):
            builder.add_edge(0, 7)

    def test_single_use(self):
        builder = GraphBuilder()
        builder.add_vertex()
        builder.build()
        with pytest.raises(GraphError):
            builder.add_vertex()
        with pytest.raises(GraphError):
            builder.build()

    def test_set_props_after_add(self):
        builder = GraphBuilder()
        v = builder.add_vertex()
        e = builder.add_edge(v, v)
        builder.set_vertex_prop(v, "age", 9)
        builder.set_edge_prop(e, "w", 0.5)
        graph = builder.build()
        assert graph.vertex_prop("age", v) == 9
        assert graph.edge_prop("w", 0) == 0.5

    def test_set_prop_unknown_entity(self):
        builder = GraphBuilder()
        with pytest.raises(GraphError):
            builder.set_vertex_prop(3, "age", 1)
        with pytest.raises(GraphError):
            builder.set_edge_prop(0, "w", 1.0)

    def test_empty_graph(self):
        graph = GraphBuilder().build()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        out = graph.statistics().out_degrees_all
        assert (out.min, out.max, out.mean) == (0, 0, 0.0)


class TestAdjacency:
    def test_out_edges_sorted_by_destination(self):
        builder = GraphBuilder()
        for _ in range(4):
            builder.add_vertex()
        builder.add_edge(0, 3)
        builder.add_edge(0, 1)
        builder.add_edge(0, 2)
        graph = builder.build()
        dst, _ = graph.out_edges(0)
        assert list(dst) == [1, 2, 3]

    def test_in_edges_sorted_by_source(self):
        builder = GraphBuilder()
        for _ in range(4):
            builder.add_vertex()
        builder.add_edge(3, 0)
        builder.add_edge(1, 0)
        builder.add_edge(2, 0)
        graph = builder.build()
        src, _ = graph.in_edges(0)
        assert list(src) == [1, 2, 3]

    def test_in_out_share_edge_ids(self):
        graph = build_triangle()
        for vertex in graph.vertices():
            dst, eids = graph.out_edges(vertex)
            for d, eid in zip(dst, eids):
                assert graph.edge_endpoints(int(eid)) == (vertex, int(d))
            src, eids = graph.in_edges(vertex)
            for s, eid in zip(src, eids):
                assert graph.edge_endpoints(int(eid)) == (int(s), vertex)

    def test_degrees(self):
        graph = build_triangle()
        assert graph.out_degree(0) == 2
        assert graph.in_degree(2) == 2
        assert graph.in_degree(0) == 0

    def test_edges_between_parallel(self):
        builder = GraphBuilder()
        builder.add_vertex()
        builder.add_vertex()
        builder.add_edge(0, 1)
        builder.add_edge(0, 1)
        builder.add_edge(1, 0)
        graph = builder.build()
        assert len(graph.edges_between(0, 1)) == 2
        assert len(graph.edges_between(1, 0)) == 1
        assert graph.edges_between(1, 1) == []

    def test_in_edges_from(self):
        graph = build_triangle()
        # edge a(0) -> c(2) exists
        assert graph.in_edges_from(2, 0) == graph.edges_between(0, 2)
        assert graph.in_edges_from(0, 2) == []

    def test_has_edge(self):
        graph = build_triangle()
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_self_loop(self):
        builder = GraphBuilder()
        v = builder.add_vertex()
        builder.add_edge(v, v)
        graph = builder.build()
        assert graph.has_edge(v, v)
        assert graph.out_degree(v) == 1
        assert graph.in_degree(v) == 1


class TestLabelsAndProps:
    def test_labels(self):
        graph = build_triangle()
        assert graph.vertex_label_name(0) == "person"
        assert graph.vertex_label_name(2) == "item"
        labels = {graph.edge_label_name(e) for e in range(3)}
        assert labels == {"friend", "bought"}

    def test_unlabeled_graph(self):
        builder = GraphBuilder()
        builder.add_vertex()
        graph = builder.build()
        assert graph.vertex_label_name(0) is None

    def test_edge_props_follow_renumbering(self):
        builder = GraphBuilder()
        for _ in range(3):
            builder.add_vertex()
        # Insert in an order that forces CSR renumbering.
        builder.add_edge(2, 0, tag=1)
        builder.add_edge(0, 1, tag=2)
        builder.add_edge(1, 2, tag=3)
        graph = builder.build()
        for eid in range(3):
            src, dst = graph.edge_endpoints(eid)
            expected = {(2, 0): 1, (0, 1): 2, (1, 2): 3}[(src, dst)]
            assert graph.edge_prop("tag", eid) == expected

    def test_default_property_values(self):
        graph = build_triangle()
        # vertex 2 never set "age": dense columns default it.
        assert graph.vertex_prop("age", 2) == 0

    def test_bounds_checks(self):
        graph = build_triangle()
        with pytest.raises(InvalidVertexError):
            graph.check_vertex(99)
        with pytest.raises(InvalidEdgeError):
            graph.edge_endpoints(99)

    def test_label_fraction(self):
        graph = build_triangle()
        stats = graph.statistics()
        assert stats.vertex_label_fraction("person") == pytest.approx(2 / 3)
