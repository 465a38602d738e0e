"""Tests for SELECT DISTINCT and partial aggregation merging."""

import pytest

from repro import ClusterConfig, run_query
from repro.graph import GraphBuilder, uniform_random_graph
from repro.runtime.aggregation import GroupAccumulator, RowCollector


def diamond_graph():
    """a -> f1 -> b and a -> f2 -> b: two paths, one distinct pair."""
    builder = GraphBuilder()
    a = builder.add_vertex(name="a")
    f1 = builder.add_vertex(name="f1")
    f2 = builder.add_vertex(name="f2")
    b = builder.add_vertex(name="b")
    builder.add_edge(a, f1)
    builder.add_edge(a, f2)
    builder.add_edge(f1, b)
    builder.add_edge(f2, b)
    return builder.build()


class TestSelectDistinct:
    def test_duplicates_removed(self):
        graph = diamond_graph()
        plain = run_query(
            graph,
            "SELECT a, b WHERE (a)-[]->(f)-[]->(b)",
            ClusterConfig(num_machines=2),
        )
        distinct = run_query(
            graph,
            "SELECT DISTINCT a, b WHERE (a)-[]->(f)-[]->(b)",
            ClusterConfig(num_machines=2),
        )
        assert len(plain.rows) == 2
        assert distinct.rows == [(0, 3)]

    def test_distinct_respects_projection(self, random_graph):
        result = run_query(
            random_graph,
            "SELECT DISTINCT a.type WHERE (a)-[]->(b)",
            ClusterConfig(num_machines=3),
        )
        values = [row[0] for row in result.rows]
        assert len(values) == len(set(values))

    def test_distinct_with_order_and_limit(self, random_graph):
        result = run_query(
            random_graph,
            "SELECT DISTINCT a.type WHERE (a)-[]->(b) "
            "ORDER BY a.type LIMIT 2",
            ClusterConfig(num_machines=3),
        )
        assert result.rows == [(0,), (1,)]

    @pytest.mark.parametrize("machines", [1, 2, 5])
    def test_distinct_independent_of_cluster(self, random_graph, machines):
        query = "SELECT DISTINCT b WHERE (a)-[]->(b), a.type = 1"
        result = run_query(
            random_graph, query, ClusterConfig(num_machines=machines)
        )
        reference = run_query(
            random_graph, query, ClusterConfig(num_machines=1)
        )
        assert sorted(result.rows) == sorted(reference.rows)


class TestPartialAggregation:
    def test_machines_use_group_accumulators(self, random_graph):
        from repro.plan import plan_query
        from repro.runtime.aggregation import make_collector

        plan = plan_query(
            "SELECT COUNT(*) WHERE (a)-[]->(b)", random_graph
        )
        collector = make_collector(plan.output)
        assert isinstance(collector, GroupAccumulator)

        plain = plan_query("SELECT a WHERE (a)-[]->(b)", random_graph)
        assert isinstance(make_collector(plain.output), RowCollector)

    def test_merge_equals_single_machine(self, random_graph):
        query = (
            "SELECT a.type, COUNT(*), SUM(b.value), MIN(b.value), "
            "MAX(b.value), AVG(b.value) WHERE (a)-[]->(b) "
            "GROUP BY a.type ORDER BY a.type"
        )
        merged = run_query(
            random_graph, query, ClusterConfig(num_machines=5)
        )
        single = run_query(
            random_graph, query, ClusterConfig(num_machines=1)
        )
        assert merged.rows == single.rows

    def test_distinct_aggregate_across_machines(self):
        # The same b reached from machines all over the cluster must be
        # counted once by COUNT(DISTINCT b).
        graph = uniform_random_graph(60, 600, seed=44)
        query = "SELECT COUNT(DISTINCT b) WHERE (a)-[]->(b)"
        merged = run_query(graph, query, ClusterConfig(num_machines=6))
        distinct_targets = {
            graph.edge_destination(e) for e in range(graph.num_edges)
        }
        assert merged.rows == [(len(distinct_targets),)]

    def test_distinct_over_grouped_rows(self, random_graph):
        # SELECT DISTINCT COUNT(*) ... GROUP BY dedups equal group counts.
        plain = run_query(
            random_graph,
            "SELECT COUNT(*) WHERE (a)-[]->(b) GROUP BY a",
            ClusterConfig(num_machines=2),
        )
        distinct = run_query(
            random_graph,
            "SELECT DISTINCT COUNT(*) WHERE (a)-[]->(b) GROUP BY a",
            ClusterConfig(num_machines=2),
        )
        assert len(set(plain.rows)) == len(distinct.rows)
        assert len(distinct.rows) < len(plain.rows)

    def test_group_keys_spanning_machines(self, random_graph):
        query = (
            "SELECT b.type, COUNT(*) WHERE (a)-[]->(b) "
            "GROUP BY b.type ORDER BY b.type"
        )
        result = run_query(
            random_graph, query, ClusterConfig(num_machines=4)
        )
        total = sum(row[1] for row in result.rows)
        assert total == random_graph.num_edges
