"""Property-based tests: every executor vs the brute-force oracle on
randomly generated graphs, queries, and cluster configurations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, PlannerOptions, run_query
from repro.baselines import BftEngine, SharedMemoryEngine
from repro.errors import PlanError
from repro.graph import GraphBuilder
from repro.plan import HopKind, MatchSemantics, SchedulingPolicy

from .oracle import brute_force_rows


@st.composite
def small_graphs(draw):
    """Propertied random multigraphs small enough for brute force."""
    # At least one edge so that every property column referenced by the
    # query pool exists (missing properties are a plan-time error).
    num_vertices = draw(st.integers(min_value=1, max_value=8))
    num_edges = draw(st.integers(min_value=1, max_value=16))
    builder = GraphBuilder()
    for _ in range(num_vertices):
        builder.add_vertex(
            t=draw(st.integers(min_value=0, max_value=2)),
            v=draw(st.integers(min_value=0, max_value=9)),
        )
    for _ in range(num_edges):
        builder.add_edge(
            draw(st.integers(min_value=0, max_value=num_vertices - 1)),
            draw(st.integers(min_value=0, max_value=num_vertices - 1)),
            label=draw(st.sampled_from(["x", "y"])),
            w=draw(st.integers(min_value=0, max_value=5)),
        )
    return builder.build()


QUERY_POOL = [
    "SELECT a, b WHERE (a)-[]->(b)",
    "SELECT a, b WHERE (a)-[:x]->(b)",
    "SELECT a, b WHERE (a)<-[]-(b), a.t = b.t",
    "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.v < c.v",
    "SELECT a, b WHERE (a)-[]->(b), (b)-[]->(a)",
    "SELECT a, b, c WHERE (a)-[]->(b), (a)-[]->(c), b != c",
    "SELECT a, e.w WHERE (a)-[e]->(b), e.w > 2",
    "SELECT a WHERE (a WITH t = 1)-[]->(b WITH v > 4)",
    # A common-neighbor opportunity (CN_COLLECT/CN_PROBE when enabled)
    # and a cartesian restart (ALL_VERTICES).
    "SELECT a, b, c WHERE (a)-[e1]->(c)<-[e2]-(b), e1.w <= e2.w",
    "SELECT a, b WHERE (a WITH t = 0), (b WITH v > 6)",
]


class TestEngineMatchesOracle:
    @given(
        graph=small_graphs(),
        query=st.sampled_from(QUERY_POOL),
        machines=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, graph, query, machines):
        expected = sorted(brute_force_rows(graph, query))
        got = sorted(
            run_query(
                graph, query, ClusterConfig(num_machines=machines),
                debug_checks=True,
            ).rows
        )
        assert got == expected

    @given(
        graph=small_graphs(),
        query=st.sampled_from(QUERY_POOL[:6]),
        window=st.integers(min_value=1, max_value=3),
        bulk=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_flow_control_never_changes_answers(self, graph, query, window,
                                                bulk):
        expected = sorted(brute_force_rows(graph, query))
        got = sorted(
            run_query(
                graph,
                query,
                ClusterConfig(
                    num_machines=3,
                    flow_control_window=window,
                    bulk_message_size=bulk,
                ),
            ).rows
        )
        assert got == expected

    @given(graph=small_graphs(), query=st.sampled_from(QUERY_POOL[:5]))
    @settings(max_examples=30, deadline=None)
    def test_isomorphism(self, graph, query):
        expected = sorted(
            brute_force_rows(graph, query, MatchSemantics.ISOMORPHISM)
        )
        got = sorted(
            run_query(
                graph, query, ClusterConfig(num_machines=2),
                options=PlannerOptions(
                    semantics=MatchSemantics.ISOMORPHISM
                ),
            ).rows
        )
        assert got == expected

    @given(
        graph=small_graphs(),
        query=st.sampled_from(QUERY_POOL),
        semantics=st.sampled_from(list(MatchSemantics)),
        common_neighbors=st.booleans(),
        scheduling=st.sampled_from(list(SchedulingPolicy)),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_executor(self, graph, query, semantics, common_neighbors,
                            scheduling):
        """Generated kernels, the micro-stepped cursor and both
        plan-driven baselines — four schedulers, two statements of the
        stage semantics — against an oracle that shares neither."""
        expected = sorted(brute_force_rows(graph, query, semantics))
        options = PlannerOptions(
            semantics=semantics, scheduling=scheduling,
            use_common_neighbors=common_neighbors,
        )
        for bulk_kernels in (True, False):
            config = ClusterConfig(num_machines=3, bulk_kernels=bulk_kernels)
            result = run_query(graph, query, config, options=options,
                               debug_checks=True)
            assert sorted(result.rows) == expected, bulk_kernels
        shared = SharedMemoryEngine(graph).query(query, options)
        assert sorted(shared.rows) == expected
        bft = BftEngine(graph, ClusterConfig(num_machines=3))
        if any(stage.hop.kind in (HopKind.CN_COLLECT, HopKind.CN_PROBE)
               for stage in shared.plan.stages):
            with pytest.raises(PlanError):
                bft.query(query, options)
        else:
            assert sorted(bft.query(query, options).rows) == expected
