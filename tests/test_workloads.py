"""Tests for the BSBM-like and random-pattern workload generators."""

import pytest

from repro import ClusterConfig, run_query
from repro.baselines import SharedMemoryEngine
from repro.errors import GraphError
from repro.pgql import parse_and_validate
from repro.workloads import (
    generate_bsbm,
    query5,
    query5_parts,
    random_pattern_query,
    random_query_suite,
    split_heavy_fast,
)


@pytest.fixture(scope="module")
def bsbm():
    return generate_bsbm(num_products=100, seed=3)


class TestBsbmGenerator:
    def test_deterministic(self):
        first = generate_bsbm(50, seed=1).graph
        second = generate_bsbm(50, seed=1).graph
        assert first.num_vertices == second.num_vertices
        assert first.num_edges == second.num_edges

    def test_schema_shape(self, bsbm):
        graph = bsbm.graph
        assert len(bsbm.product_ids) == 100
        for product in bsbm.product_ids[:5]:
            assert graph.vertex_label_name(product) == "product"
            assert 0 <= graph.vertex_prop("num1", product) < 2000
        for offer in bsbm.offer_ids[:5]:
            assert graph.vertex_label_name(offer) == "offer"
            assert graph.vertex_prop("price", offer) > 0

    def test_every_product_has_producer_and_features(self, bsbm):
        graph = bsbm.graph
        producer_label = graph.labels.lookup("producer")
        feature_label = graph.labels.lookup("feature")
        for product in bsbm.product_ids:
            labels = [
                graph.edge_label(int(eid))
                for eid in graph.out_edges(product)[1]
            ]
            assert producer_label in labels
            assert feature_label in labels

    def test_feature_popularity_is_skewed(self):
        # A wider feature pool makes the quadratic skew visible.
        bsbm = generate_bsbm(num_products=400, seed=3, num_features=100)
        graph = bsbm.graph
        degrees = sorted(
            (graph.in_degree(f) for f in bsbm.feature_ids), reverse=True
        )
        assert degrees[0] > 3 * max(1, degrees[len(degrees) // 2])

    @pytest.mark.parametrize("sizes", [
        dict(num_products=0), dict(num_products=-3),
        dict(num_products=50, num_features=0),
        dict(num_products=50, num_features=-1),
    ])
    def test_empty_sizes_are_a_graph_error(self, sizes):
        with pytest.raises(GraphError, match="at least one product"):
            generate_bsbm(**sizes)


class TestQuery5:
    def test_query_parses(self, bsbm):
        query = query5(bsbm.product_ids[0])
        parsed = parse_and_validate(query)
        assert parsed.vertex_vars() == ["p", "f", "p2"]

    def test_parts_are_distinct_and_deterministic(self, bsbm):
        parts = query5_parts(bsbm, num_parts=10, seed=5)
        assert len(parts) == 10
        assert parts == query5_parts(bsbm, num_parts=10, seed=5)

    def test_parts_have_spread_workloads(self, bsbm):
        parts = query5_parts(bsbm, num_parts=10, seed=5)
        engine = SharedMemoryEngine(bsbm.graph)
        works = [engine.query(part).metrics.total_ops for part in parts]
        assert max(works) > 2 * min(works)

    def test_semantics_similar_products(self, bsbm):
        """Verify one part against a direct computation of 'similarity'."""
        graph = bsbm.graph
        origin = bsbm.product_ids[0]
        result = run_query(
            graph, query5(origin), ClusterConfig(num_machines=2)
        )
        feature_label = graph.labels.lookup("feature")
        origin_features = {
            int(t)
            for t, e in zip(*graph.out_edges(origin))
            if graph.edge_label(int(e)) == feature_label
        }
        expected = set()
        for product in bsbm.product_ids:
            if product == origin:
                continue
            features = {
                int(t)
                for t, e in zip(*graph.out_edges(product))
                if graph.edge_label(int(e)) == feature_label
            }
            if not (features & origin_features):
                continue
            if abs(graph.vertex_prop("num1", product)
                   - graph.vertex_prop("num1", origin)) >= 120:
                continue
            if abs(graph.vertex_prop("num2", product)
                   - graph.vertex_prop("num2", origin)) >= 170:
                continue
            expected.add(product)
        assert {row[0] for row in result.rows} == expected


class TestRandomQueries:
    def test_deterministic(self):
        assert random_pattern_query(7) == random_pattern_query(7)
        assert random_query_suite(5, seed=2) == random_query_suite(5, seed=2)

    def test_edge_count(self):
        for seed in range(10):
            query = parse_and_validate(random_pattern_query(seed,
                                                            num_edges=4))
            edges = sum(len(path.edges) for path in query.paths)
            assert edges == 4

    def test_queries_are_connected(self):
        """No cartesian restarts: every query is one connected pattern."""
        from repro.plan import build_logical_plan, CartesianRootMatch

        for seed in range(20):
            query = parse_and_validate(random_pattern_query(seed))
            plan = build_logical_plan(query)
            assert not any(
                isinstance(op, CartesianRootMatch) for op in plan.ops
            )

    def test_queries_run(self, random_graph):
        for query in random_query_suite(3, seed=4):
            result = run_query(
                random_graph, query, ClusterConfig(num_machines=2)
            )
            reference = SharedMemoryEngine(random_graph).query(query)
            assert sorted(result.rows) == sorted(reference.rows)


class TestSeededWorkload:
    def test_derives_everything_from_config_seed(self):
        from repro.workloads import seeded_workload

        config = ClusterConfig(num_machines=2, seed=13)
        graph_a, queries_a = seeded_workload(config, num_vertices=50,
                                             num_edges=200, num_queries=3)
        graph_b, queries_b = seeded_workload(config, num_vertices=50,
                                             num_edges=200, num_queries=3)
        assert queries_a == queries_b
        assert graph_a.num_edges == graph_b.num_edges
        for vertex in graph_a.vertices():
            assert list(graph_a.out_neighbors(vertex)) == \
                list(graph_b.out_neighbors(vertex))

    def test_different_seeds_differ(self):
        from repro.workloads import seeded_workload

        _graph, queries_a = seeded_workload(ClusterConfig(seed=1),
                                            num_vertices=50, num_edges=200)
        _graph, queries_b = seeded_workload(ClusterConfig(seed=2),
                                            num_vertices=50, num_edges=200)
        assert queries_a != queries_b


class TestHeavyFastSplit:
    def test_split_by_geometric_middle(self):
        heavy, fast = split_heavy_fast({"a": 1, "b": 10, "c": 10_000})
        assert "c" in heavy
        assert "a" in fast

    def test_empty(self):
        assert split_heavy_fast({}) == ([], [])

    def test_explicit_threshold(self):
        heavy, fast = split_heavy_fast({"a": 5, "b": 50}, threshold=10)
        assert heavy == ["b"]
        assert fast == ["a"]


class TestSkewedWorkload:
    def test_deterministic(self):
        from repro.workloads import skewed_workload

        graph_a, queries_a = skewed_workload(ClusterConfig(seed=3))
        graph_b, queries_b = skewed_workload(ClusterConfig(seed=3))
        assert queries_a == queries_b
        assert graph_a.num_edges == graph_b.num_edges
        for vertex in graph_a.vertices():
            assert list(graph_a.out_neighbors(vertex)) == \
                list(graph_b.out_neighbors(vertex))

    def test_degree_skew_is_real(self):
        from repro.workloads import skewed_music_graph

        stats = skewed_music_graph(seed=0).statistics()
        bands = stats.in_degrees["band"]
        # The hub band has far more fans than the mean band.
        assert bands.max > 3 * bands.mean
        # Curators fan out much wider than ordinary persons.
        assert stats.out_degrees["curator"].mean > \
            4 * stats.out_degrees["person"].mean

    def test_queries_are_naive_bad(self):
        from repro.workloads import skewed_query_suite

        queries = skewed_query_suite(seed=0)
        assert len(queries) == 4
        # Text order anchors every chain at the fat person end while the
        # selective equality filter sits on a later variable.
        assert queries[0].index("(p:person)") < queries[0].index("b.name")
        assert "<-[:likes]-" in queries[3]  # the CN intersection
