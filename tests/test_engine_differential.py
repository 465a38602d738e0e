"""Differential tests: async engine vs brute-force oracle vs baselines.

Every engine in the repository must agree on every query: the
distributed async engine (across machine counts), the shared-memory
PGX-like engine, the BFT baseline, the join baseline, and the naive
brute-force oracle.
"""

import pytest

from repro import ClusterConfig, PlannerOptions, run_query
from repro.baselines import BftEngine, JoinEngine, SharedMemoryEngine
from repro.graph import uniform_random_graph
from repro.plan import MatchSemantics, SchedulingPolicy

from .oracle import brute_force_rows

QUERIES = [
    "SELECT a, b WHERE (a)-[]->(b)",
    "SELECT a, b WHERE (a WITH type = 1)-[]->(b WITH type = 0)",
    "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c)",
    "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.type = c.type",
    "SELECT a, c, b WHERE (a)-[]->(c)<-[]-(b), a.value < b.value",
    "SELECT a, b WHERE (a)-[]->(b), (b)-[]->(a)",
    "SELECT a, b WHERE (a)<-[]-(b), a.type != b.type",
    "SELECT v, b WHERE (v WITH id() = 3)-[]->(b)",
    "SELECT a, b, c WHERE (a)-[]->(b), (a)-[]->(c), b.value > c.value",
    "SELECT e.weight, a WHERE (a)-[e]->(b), e.weight > 0.7",
    "SELECT a, b WHERE (a)-[:linked]->(b WITH value < 1000)",
    "SELECT a, b, c, d WHERE (a)-[]->(b)-[]->(c)-[]->(d), a.type = 2",
    # Edge-to-edge comparison: e1's weight must be captured at the first
    # hop for the second hop's filter.
    "SELECT a, c WHERE (a)-[e1]->(b)-[e2]->(c), e1.weight < e2.weight",
    # Edge prop used only at output.
    "SELECT e1.weight, e2.weight WHERE (a)-[e1]->(b), (b)-[e2]->(a)",
    # has() of a declared property nothing captures, and of an
    # undeclared one: answered by the graph, as in WHERE.
    "SELECT a, a.has('value') WHERE (a)",
    "SELECT a, e.has('weight'), b.has('pop') WHERE (a)-[e]->(b)",
]


@pytest.fixture(scope="module")
def tiny_graph():
    # Small enough for the V^k brute force on 3-4 variables.
    return uniform_random_graph(14, 60, seed=99, num_types=3,
                                value_range=2_000)


class TestAgainstOracle:
    @pytest.mark.parametrize("query", QUERIES)
    def test_homomorphism(self, tiny_graph, query):
        expected = sorted(brute_force_rows(tiny_graph, query))
        got = sorted(
            run_query(
                tiny_graph, query, ClusterConfig(num_machines=3),
                debug_checks=True,
            ).rows
        )
        assert got == expected

    @pytest.mark.parametrize(
        "semantics",
        [MatchSemantics.ISOMORPHISM, MatchSemantics.INDUCED],
    )
    @pytest.mark.parametrize(
        "query",
        [
            "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c)",
            "SELECT a, b WHERE (a)-[]->(b), (b)-[]->(a)",
            "SELECT a, b, c WHERE (a)-[]->(b), (a)-[]->(c)",
        ],
    )
    def test_strict_semantics(self, tiny_graph, query, semantics):
        expected = sorted(brute_force_rows(tiny_graph, query, semantics))
        got = sorted(
            run_query(
                tiny_graph, query, ClusterConfig(num_machines=3),
                options=PlannerOptions(semantics=semantics),
                debug_checks=True,
            ).rows
        )
        assert got == expected


class TestEnginesAgree:
    @pytest.mark.parametrize("query", QUERIES)
    def test_all_engines(self, tiny_graph, query):
        reference = sorted(SharedMemoryEngine(tiny_graph).query(query).rows)
        async_result = run_query(
            tiny_graph, query, ClusterConfig(num_machines=4),
            debug_checks=True,
        )
        bft_result = BftEngine(
            tiny_graph, ClusterConfig(num_machines=4)
        ).query(query)
        join_result = JoinEngine(tiny_graph).query(query)
        assert sorted(async_result.rows) == reference
        assert sorted(bft_result.rows) == reference
        assert sorted(join_result.rows) == reference

    @pytest.mark.parametrize("query", QUERIES[:6])
    def test_scheduling_does_not_change_answers(self, tiny_graph, query):
        reference = sorted(brute_force_rows(tiny_graph, query))
        got = sorted(
            run_query(
                tiny_graph, query, ClusterConfig(num_machines=3),
                options=PlannerOptions(
                    scheduling=SchedulingPolicy.SELECTIVITY
                ),
                debug_checks=True,
            ).rows
        )
        assert got == reference

    def test_common_neighbor_hop_agrees(self, tiny_graph):
        query = "SELECT a, c, b WHERE (a)-[]->(c)<-[]-(b), a.type = b.type"
        reference = sorted(brute_force_rows(tiny_graph, query))
        got = sorted(
            run_query(
                tiny_graph, query, ClusterConfig(num_machines=4),
                options=PlannerOptions(use_common_neighbors=True),
                debug_checks=True,
            ).rows
        )
        assert got == reference
