"""The cost model and cost-based plan chooser (`repro.plan.cost`)."""

import pytest

from repro import ClusterConfig, PlannerOptions, run_query
from repro.graph import GraphBuilder
from repro.graph.property_table import PropertyColumn, PropertyTable
from repro.pgql import parse_and_validate
from repro.plan import (
    CostModel,
    SchedulingPolicy,
    candidate_orders,
    choose_plan,
    plan_query,
)
from repro.stats import GraphStatistics
from repro.workloads.bsbm import generate_bsbm, query5_parts
from repro.workloads.skewed import (
    skewed_music_graph,
    skewed_query_suite,
    skewed_workload,
)


@pytest.fixture(scope="module")
def skewed():
    return skewed_music_graph(seed=0)


@pytest.fixture(scope="module")
def chain_query():
    return parse_and_validate(
        "SELECT p, b, s WHERE (p:person)-[:fan_of]->(b:band)"
        "-[:recorded]->(s:song), b.name = 'band7'"
    )


@pytest.fixture(scope="module")
def cn_query():
    return parse_and_validate(
        "SELECT a, s, b WHERE (a:curator)-[:likes]->(s:song)"
        "<-[:likes]-(b:curator), a.name = 'c0', b.name = 'c7'"
    )


class TestCostModel:
    def test_variable_scores_rank_the_selective_anchor(
        self, skewed, chain_query
    ):
        scores = CostModel(skewed).variable_scores(chain_query)
        assert set(scores) == {"p", "b", "s"}
        # The filtered band variable is by far the cheapest anchor; the
        # unfiltered person population is the worst.
        assert scores["b"] < scores["s"] < scores["p"]

    def test_estimate_prefers_selective_first(self, skewed, chain_query):
        model = CostModel(skewed)
        naive = model.estimate(chain_query, ("p", "b", "s"))
        reordered = model.estimate(chain_query, ("b", "s", "p"))
        assert reordered.cost < naive.cost
        assert reordered.rows > 0

    def test_estimate_charges_messages(self, skewed, chain_query):
        estimate = CostModel(skewed).estimate(chain_query, ("p", "b", "s"))
        assert estimate.messages > 0
        assert estimate.cost > estimate.work  # message weight applies


class TestCandidateOrders:
    def test_orders_are_connected_prefixes(self, skewed, chain_query):
        scores = CostModel(skewed).variable_scores(chain_query)
        orders = candidate_orders(chain_query, scores)
        assert ("p", "b", "s") in orders
        assert ("b", "p", "s") in orders
        # A prefix that needs a cartesian restart is never enumerated.
        assert ("p", "s", "b") not in orders

    def test_enumeration_covers_all_rotations(self, skewed, cn_query):
        scores = CostModel(skewed).variable_scores(cn_query)
        orders = candidate_orders(cn_query, scores)
        starts = {order[0] for order in orders}
        assert starts == {"a", "s", "b"}


class TestChoosePlan:
    def test_reorders_naive_bad_chain(self, skewed, chain_query):
        choice = choose_plan(chain_query, skewed)
        assert choice.policy == "cost"
        assert choice.order[0] != "p"  # not the fat end
        assert choice.candidates_considered > 1
        assert choice.alternatives  # at least one rejected alternative
        best_rejected = choice.alternatives[0]
        assert best_rejected.estimate.cost >= choice.chosen.estimate.cost

    def test_auto_enables_common_neighbors(self, skewed, cn_query):
        choice = choose_plan(cn_query, skewed)
        assert choice.use_common_neighbors
        assert choice.auto_common_neighbors

    def test_force_off_is_respected(self, skewed, cn_query):
        choice = choose_plan(cn_query, skewed,
                             force_common_neighbors=False)
        assert not choice.use_common_neighbors
        assert not choice.auto_common_neighbors

    def test_force_on_is_marked_forced(self, skewed, chain_query):
        choice = choose_plan(chain_query, skewed,
                             force_common_neighbors=True)
        assert not choice.auto_common_neighbors

    def test_describe_is_the_explain_surface(self, skewed, cn_query):
        text = choose_plan(cn_query, skewed).describe()
        assert "planner: policy=cost" in text
        assert "est. cost=" in text
        assert "rejected:" in text
        assert "scores:" in text
        assert "common-neighbors on (auto)" in text

    def test_deterministic(self, skewed, chain_query):
        first = choose_plan(chain_query, skewed)
        second = choose_plan(chain_query, skewed)
        assert first.order == second.order
        assert first.chosen.estimate.cost == second.chosen.estimate.cost


#: Seven vertex variables: past ORDER_ENUM_LIMIT, so the candidates are
#: the appearance order and the greedy order over the model's scores.
SEVEN_VAR_QUERY = (
    "SELECT p, b, s, q, c, s2, b2 WHERE (p:person)-[:fan_of]->(b:band)"
    "-[:recorded]->(s:song)<-[:likes]-(q:person), "
    "(c:curator)-[:likes]->(s), "
    "(c)-[:likes]->(s2:song)<-[:recorded]-(b2:band), "
    "c.name = 'c3', q.age < 30"
)


def _choices(graph, queries):
    picked = []
    for text in queries:
        choice = choose_plan(parse_and_validate(text), graph)
        picked.append((choice.order, choice.use_common_neighbors))
    return picked


class TestGoldenChoices:
    """Orders and CN decisions recorded at eba60bf, when property
    statistics were sketches and SELECTIVITY scanned the columns: exact
    statistics and the single estimator must not move a plan."""

    def test_bsbm_query5_parts(self):
        bsbm = generate_bsbm(num_products=2000, seed=0)
        parts = query5_parts(bsbm, 11, seed=0)
        assert _choices(bsbm.graph, parts) == [(("p", "f", "p2"), False)] * 11

    def test_ledger_skewed_music(self):
        graph, queries = skewed_workload(
            ClusterConfig(num_machines=4, seed=0), num_persons=3000,
            num_bands=16, num_songs=200, fan_edges=9000, likes_edges=6000,
        )
        assert _choices(graph, queries) == [
            (("s", "b", "p"), False),
            (("s", "p"), False),
            (("s", "b", "p"), False),
            (("a", "s", "b"), False),
        ]

    def test_bench_planner_pillar(self, skewed):
        assert _choices(skewed, skewed_query_suite(seed=0)) == [
            (("s", "b", "p"), False),
            (("s", "p"), False),
            (("s", "b", "p"), False),
            (("b", "a", "s"), True),
        ]

    def test_seven_variable_pattern(self, skewed):
        assert _choices(skewed, [SEVEN_VAR_QUERY]) == [
            (("c", "s", "b", "s2", "b2", "q", "p"), False),
        ]

    def test_abl5_selectivity_order(self):
        from benchmarks.test_abl5_scheduling import (
            PAPER_QUERY,
            build_music_graph,
        )

        plan = plan_query(
            PAPER_QUERY, build_music_graph(),
            PlannerOptions(scheduling=SchedulingPolicy.SELECTIVITY),
        )
        assert plan.choice.order == ("band", "song", "person")


class TestStatisticsOnly:
    def test_cost_planning_never_reads_property_storage(
        self, skewed, monkeypatch
    ):
        """The model's promise: planning against a statistics snapshot
        re-attached from JSON touches no property column."""
        query = parse_and_validate(SEVEN_VAR_QUERY)
        expected = choose_plan(query, skewed)

        graph = skewed_music_graph(seed=0)
        graph.attach_statistics(
            GraphStatistics.from_json(graph.statistics().to_json())
        )

        def forbidden(*_args, **_kwargs):
            raise AssertionError("planner read a property column")

        monkeypatch.setattr(PropertyColumn, "values", forbidden)
        monkeypatch.setattr(PropertyColumn, "get", forbidden)
        monkeypatch.setattr(PropertyTable, "column", forbidden)
        choice = choose_plan(query, graph)
        assert choice.describe() == expected.describe()
        assert choice.scores == expected.scores


class TestEnginePolicyWiring:
    def test_plan_query_attaches_choice(self, skewed):
        query = parse_and_validate(
            "SELECT p, b WHERE (p:person)-[:fan_of]->(b:band), "
            "b.name = 'band7'"
        )
        options = PlannerOptions(scheduling=SchedulingPolicy.COST)
        plan = plan_query(query, skewed, options)
        assert plan.choice is not None
        assert plan.choice.policy == "cost"
        assert "planner: policy=cost" in plan.describe()

    def test_appearance_policy_unchanged(self, skewed):
        query = parse_and_validate(
            "SELECT p, b WHERE (p:person)-[:fan_of]->(b:band)"
        )
        plan = plan_query(query, skewed, PlannerOptions())
        assert plan.choice is None

    def test_cost_policy_returns_identical_rows(self, skewed):
        config = ClusterConfig(num_machines=3, seed=0)
        cost = PlannerOptions(scheduling=SchedulingPolicy.COST)
        naive = PlannerOptions()
        for query in skewed_query_suite(seed=0):
            expected = sorted(run_query(skewed, query, config, naive).rows)
            got = sorted(run_query(skewed, query, config, cost).rows)
            assert got == expected, query

    def test_cost_policy_does_less_work_on_the_suite(self, skewed):
        config = ClusterConfig(num_machines=3, seed=0)
        cost = PlannerOptions(scheduling=SchedulingPolicy.COST)
        naive = PlannerOptions()
        cost_ops = naive_ops = 0
        for query in skewed_query_suite(seed=0):
            cost_ops += run_query(skewed, query, config,
                                  cost).metrics.total_ops
            naive_ops += run_query(skewed, query, config,
                                   naive).metrics.total_ops
        assert cost_ops < naive_ops
