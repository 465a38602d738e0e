"""Unit/integration tests for the three baseline engines."""

import pytest

from repro import ClusterConfig, PlannerOptions, run_query
from repro.baselines import BftEngine, JoinEngine, SharedMemoryEngine
from repro.errors import ClusterConfigError, PlanError
from repro.graph import DistributedGraph, uniform_random_graph
from repro.plan import MatchSemantics
from repro.workloads import generate_bsbm, query5_parts, random_query_suite


class TestSharedMemoryEngine:
    def test_matches_distributed(self, random_graph):
        query = "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"
        single = SharedMemoryEngine(random_graph).query(query)
        distributed = run_query(
            random_graph, query, ClusterConfig(num_machines=3)
        )
        assert sorted(single.rows) == sorted(distributed.rows)

    def test_counts_ops(self, random_graph):
        result = SharedMemoryEngine(random_graph).query(
            "SELECT a WHERE (a)-[]->(b)"
        )
        assert result.metrics.total_ops > random_graph.num_vertices
        assert result.metrics.ticks >= 1

    def test_supports_all_semantics(self, random_graph):
        for semantics in MatchSemantics:
            result = SharedMemoryEngine(random_graph).query(
                "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c)",
                PlannerOptions(semantics=semantics),
            )
            assert result.metrics.num_results == len(result.rows) or \
                result.metrics.num_results >= len(result.rows)

    def test_supports_common_neighbor_plans(self, random_graph):
        query = "SELECT a, c, b WHERE (a)-[]->(c)<-[]-(b)"
        plain = SharedMemoryEngine(random_graph).query(query)
        optimized = SharedMemoryEngine(random_graph).query(
            query, PlannerOptions(use_common_neighbors=True)
        )
        assert sorted(plain.rows) == sorted(optimized.rows)

    def test_single_vertex_origin(self, social_graph):
        result = SharedMemoryEngine(social_graph).query(
            "SELECT v, b WHERE (v WITH id() = 0)-[]->(b)"
        )
        assert sorted(result.rows) == [(0, 1), (0, 4)]

    def test_aggregation(self, social_graph):
        result = SharedMemoryEngine(social_graph).query(
            "SELECT COUNT(*) WHERE (a:person)"
        )
        assert result.rows == [(4,)]


class TestBftEngine:
    def test_matches_reference(self, random_graph):
        query = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.type = 0"
        reference = SharedMemoryEngine(random_graph).query(query)
        bft = BftEngine(random_graph, ClusterConfig(num_machines=4))
        result = bft.query(query)
        assert sorted(result.rows) == sorted(reference.rows)

    def test_intermediate_state_explosion(self, random_graph):
        """The §1 claim: BFT materializes far more state than async DFT."""
        query = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c)"
        config = ClusterConfig(num_machines=4)
        bft = BftEngine(random_graph, config).query(query)
        dft = run_query(random_graph, query, config)
        assert bft.metrics.peak_buffered_contexts > \
            5 * dft.metrics.peak_buffered_contexts

    def test_single_vertex_origin(self, social_graph):
        bft = BftEngine(social_graph, ClusterConfig(num_machines=2))
        result = bft.query("SELECT v, b WHERE (v WITH id() = 0)-[]->(b)")
        assert sorted(result.rows) == [(0, 1), (0, 4)]

    def test_rejects_common_neighbor_plans(self, random_graph):
        bft = BftEngine(random_graph, ClusterConfig(num_machines=2))
        with pytest.raises(PlanError):
            bft.query(
                "SELECT a WHERE (a)-[]->(c)<-[]-(b)",
                PlannerOptions(use_common_neighbors=True),
            )

    @pytest.mark.parametrize("partitions,machines", [(4, 2), (2, 4)])
    def test_rejects_mismatched_partitioning(self, random_graph, partitions,
                                             machines):
        # Fewer machines than partitions used to drop the frontiers of
        # the unvisited partitions; more died with an IndexError.
        dist = DistributedGraph.create(random_graph, partitions)
        with pytest.raises(ClusterConfigError):
            BftEngine(dist, ClusterConfig(num_machines=machines))

    def test_barrier_cost_scales_with_stages(self, random_graph):
        config = ClusterConfig(num_machines=4)
        short = BftEngine(random_graph, config).query(
            "SELECT a WHERE (a WITH type = 3)"
        )
        unmatched = BftEngine(random_graph, config).query(
            "SELECT a, b, c WHERE (a WITH value > 999999)-[]->(b)-[]->(c)"
        )
        # Even with no matches, every superstep pays its barrier.
        assert unmatched.metrics.ticks > short.metrics.ticks


class TestJoinEngine:
    def test_matches_reference(self, random_graph):
        query = "SELECT a, b WHERE (a)-[]->(b), a.type = b.type"
        reference = SharedMemoryEngine(random_graph).query(query)
        result = JoinEngine(random_graph).query(query)
        assert sorted(result.rows) == sorted(reference.rows)

    def test_peak_rows_tracks_intermediates(self, random_graph):
        result = JoinEngine(random_graph).query(
            "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c)"
        )
        assert result.metrics.peak_buffered_contexts >= len(result.rows)

    def test_edge_check_join(self, social_graph):
        result = JoinEngine(social_graph).query(
            "SELECT a, b WHERE (a)-[:friend]->(b), (b)-[:friend]->(a)"
        )
        assert result.rows == []

    def test_edge_labels(self, social_graph):
        result = JoinEngine(social_graph).query(
            "SELECT a, i WHERE (a)-[:bought]->(i)"
        )
        assert len(result.rows) == 3

    def test_unknown_label_matches_nothing(self, social_graph):
        result = JoinEngine(social_graph).query(
            "SELECT a, b WHERE (a)-[:ghost]->(b)"
        )
        assert result.rows == []

    def test_rejects_aggregates(self, social_graph):
        with pytest.raises(PlanError):
            JoinEngine(social_graph).query("SELECT COUNT(*) WHERE (a)")

    def test_rejects_isomorphism(self, social_graph):
        with pytest.raises(PlanError):
            JoinEngine(social_graph).query(
                "SELECT a WHERE (a)-[]->(b)",
                PlannerOptions(semantics=MatchSemantics.ISOMORPHISM),
            )


# ----------------------------------------------------------------------
# Op accounting of the two plan-driven baselines, recorded before they
# became schedulers over ``runtime.hops``: (ticks, total_ops,
# num_results, peak_live_frames, peak_buffered_contexts) on the
# benchmark suite's cost base (benchmarks/conftest.py), shared memory on
# one machine and BFT on four.
# ----------------------------------------------------------------------
BENCH_BASE = dict(workers_per_machine=4, ops_per_tick=4, network_latency=4)
GOLDEN_FIELDS = ("ticks", "total_ops", "num_results", "peak_live_frames",
                 "peak_buffered_contexts")
GOLDEN = [
    ("fig5-P2", (65, 1038, 1, 3, 0), (49, 1188, 1, 0, 147)),
    ("fig5-P3", (118, 1879, 3, 3, 0), (79, 2148, 3, 0, 267)),
    ("fig5-P4", (331, 5291, 3, 3, 0), (185, 6050, 3, 0, 754)),
    ("abl1-E1", (104, 1650, 750, 2, 0), (70, 2400, 750, 0, 750)),
    ("abl1-E2", (518, 8278, 3689, 3, 0), (334, 12717, 3689, 0, 3689)),
    ("abl1-E3", (2550, 40797, 18104, 4, 0), (1589, 63340, 18104, 0, 18104)),
    ("fig6-Q1", (120, 1920, 0, 2, 0), (102, 2520, 0, 0, 600)),
    ("fig6-Q2", (2553, 40847, 16728, 8, 0), (1712, 64118, 16728, 0, 16728)),
    ("fig6-Q3", (722, 11547, 504, 7, 0), (516, 15880, 504, 0, 3124)),
    ("cycle", (88, 1395, 15, 3, 0), (62, 2010, 15, 0, 600)),
]


@pytest.fixture(scope="module")
def golden_cases():
    cases = {}
    bsbm = generate_bsbm(num_products=400, seed=7, num_features=40)
    for index, part in enumerate(query5_parts(bsbm, num_parts=4, seed=7)):
        cases["fig5-P%d" % (index + 1)] = (bsbm.graph, part)
    graph = uniform_random_graph(150, 750, seed=13)
    query = "SELECT v0 WHERE (v0)"
    for edges in range(1, 4):
        query = query[:-1] + ")-[]->(v%d)" % edges
        cases["abl1-E%d" % edges] = (graph, query)
    graph = uniform_random_graph(120, 600, seed=11, num_types=8)
    for index, query in enumerate(
            random_query_suite(num_queries=3, num_edges=4, seed=11)):
        cases["fig6-Q%d" % (index + 1)] = (graph, query)
    cases["cycle"] = (
        graph,
        "SELECT a, b WHERE (a)-[e1]->(b), (b)-[e2]->(a), "
        "e1.weight < e2.weight",
    )
    return cases


class TestGoldenAccounting:
    @pytest.mark.parametrize(
        "name,shared,bft", GOLDEN, ids=[row[0] for row in GOLDEN]
    )
    def test_metrics_unchanged(self, golden_cases, name, shared, bft):
        graph, query = golden_cases[name]
        engines = (
            (SharedMemoryEngine, ClusterConfig(num_machines=1, **BENCH_BASE),
             shared),
            (BftEngine, ClusterConfig(num_machines=4, **BENCH_BASE), bft),
        )
        for cls, config, expected in engines:
            metrics = cls(graph, config).query(query).metrics
            got = tuple(getattr(metrics, field) for field in GOLDEN_FIELDS)
            assert got == expected, cls.__name__
