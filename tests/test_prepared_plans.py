"""The engine's prepared queries: parse, plan and compile once per
distinct query (paper Figure 2, steps i-iii), launch per run (step iv).

Oracle: a query answered from an engine's prepared plans is
indistinguishable — rows, every metric, stage profile, EXPLAIN text —
from the same query on an engine that has never seen it.
"""

import collections
from dataclasses import asdict, fields, replace

import pytest

import repro.pgql
import repro.plan
import repro.runtime.engine
import repro.runtime.kernels
from repro import (
    ClusterConfig,
    ExecutionContext,
    MatchSemantics,
    PgxdAsyncEngine,
    PlannerOptions,
    QueryAborted,
    SchedulingPolicy,
    parse_and_validate,
    uniform_random_graph,
)
from repro.bench import WORKLOADS
from repro.engine_api import QueryStatus
from repro.graph.distributed import DistributedGraph
from repro.obs import Recording
from repro.obs.feedback import FeedbackStore
from repro.service import QueryService, ServiceConfig
from repro.stats import collect_statistics
from repro.workloads.bsbm import generate_bsbm, query5_parts
from repro.workloads.random_graphs import seeded_workload
from repro.workloads.skewed import skewed_workload

PATH = "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"
TWO_HOP = "SELECT a, c WHERE (a)-[]->(b), (b)-[]->(c), a.type = 1"
COST = PlannerOptions(scheduling=SchedulingPolicy.COST)


def _engine(graph, **config):
    return PgxdAsyncEngine(graph, ClusterConfig(num_machines=3, **config))


@pytest.fixture
def work(monkeypatch):
    """Calls into steps i-iii and kernel compilation, by function."""
    calls = collections.Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(repro.pgql, "parse_and_validate")
    counted(repro.runtime.engine, "parse_and_validate")
    counted(repro.plan, "choose_plan")
    counted(repro.plan, "build_execution_plan")
    counted(repro.runtime.kernels, "compile_plan_kernels")
    return calls


# ----------------------------------------------------------------------
# (1) differential: one engine run three times == three fresh engines
# ----------------------------------------------------------------------
def _corpora():
    """``(deployment, queries)`` pairs: every bench-matrix query and the
    ledger's BSBM / skewed mix, on graphs small enough for tier 1 (the
    generated texts depend on the seed and the schema, not the size)."""
    corpora = []
    for _key, spec in WORKLOADS:
        config = ClusterConfig(num_machines=spec["machines"], seed=0)
        if spec.get("kind") == "planner":
            graph, queries = skewed_workload(
                config, num_persons=90, num_bands=spec["bands"],
                num_songs=spec["songs"], fan_edges=220, likes_edges=160,
            )
        else:
            graph, queries = seeded_workload(
                config, num_vertices=70, num_edges=240,
                num_queries=spec["queries"],
                query_edges=spec["query_edges"],
            )
        corpora.append((config, graph, queries))
    config = ClusterConfig(num_machines=4, seed=0)
    bsbm = generate_bsbm(num_products=100, seed=0)
    corpora.append((config, bsbm.graph, query5_parts(bsbm, 3, seed=0)))
    corpora.append((config,) + skewed_workload(
        config, num_persons=120, num_bands=4, num_songs=20,
        fan_edges=300, likes_edges=200,
    ))
    return [
        (config, DistributedGraph.create(graph, config.num_machines),
         queries)
        for config, graph, queries in corpora
    ]


def _observation(result):
    """Everything one run reports."""
    return {
        "columns": result.columns,
        "rows": result.rows,
        # per-machine MachineMetrics included
        "metrics": asdict(result.metrics),
        "stage_profile": result.stage_profile,
        "explain_analyze": result.explain_analyze(),
        "describe": result.plan.describe(),
        "profile": result.execution_profile().to_dict(),
    }


def _three_runs(engine_for_run, query, options, feedback):
    """Three runs of *query*; with *feedback*, each run's profile is
    recorded into the store the next run plans from (the bench planner
    pillar's record-then-rerun loop)."""
    if feedback:
        options = replace(options, feedback=FeedbackStore())
    observations = []
    for run in range(3):
        result = engine_for_run(run).query(query, options)
        observations.append(_observation(result))
        if feedback:
            options.feedback.record(result.plan.query, result.plan.graph,
                                    result.plan.choice,
                                    result.execution_profile())
    return observations


class TestDifferential:
    @pytest.mark.parametrize("scheduling", list(SchedulingPolicy))
    def test_one_engine_equals_fresh_engines(self, scheduling):
        replans = 0
        for config, deployment, queries in _corpora():
            for feedback in (False, True):
                options = PlannerOptions(scheduling=scheduling)
                kept = PgxdAsyncEngine(deployment, config)
                for query in queries:
                    fresh = _three_runs(
                        lambda run: PgxdAsyncEngine(deployment, config),
                        query, options, feedback,
                    )
                    assert _three_runs(
                        lambda run: kept, query, options, feedback
                    ) == fresh
                    replans += (fresh[0]["describe"]
                                != fresh[-1]["describe"])
        # The feedback loop did change plans under COST (so the kept
        # engine had to notice), and only there.
        assert (replans > 0) == (scheduling is SchedulingPolicy.COST)


# ----------------------------------------------------------------------
# (2) a hit does none of the front end's work
# ----------------------------------------------------------------------
class TestZeroWorkHit:
    def test_second_query_parses_plans_and_compiles_nothing(
            self, random_graph, work):
        engine = _engine(random_graph)
        first = engine.query(PATH, COST)
        assert work == {"parse_and_validate": 1, "choose_plan": 1,
                        "build_execution_plan": 1,
                        "compile_plan_kernels": 1}
        work.clear()
        second = engine.query(PATH, COST)
        assert not work
        assert second.plan is first.plan
        assert second.rows == first.rows

    def test_second_submit_parses_plans_and_compiles_nothing(
            self, random_graph, work):
        engine = _engine(random_graph)
        service = QueryService(engine)
        first = service.submit(PATH, COST).result()
        work.clear()
        # A service built later shares the deployment's plans.
        second = QueryService(engine).submit(PATH, COST).result()
        assert not work
        assert second.plan is first.plan
        assert asdict(second.metrics) == asdict(first.metrics)

    def test_whitespace_variant_and_ast_share_the_plan(
            self, random_graph, work):
        engine = _engine(random_graph)
        plan = engine.query(PATH, COST).plan
        work.clear()
        spaced = PATH.replace(", ", " ,\n   ").replace("SELECT", "SELECT  ")
        assert spaced != PATH
        assert engine.query(spaced, COST).plan is plan
        assert work == {"parse_and_validate": 1}
        work.clear()
        assert engine.query(parse_and_validate(PATH), COST).plan is plan
        assert engine.plan(PATH, COST) is plan
        assert not work

    def test_kernels_off_deployment_never_compiles(self, random_graph, work):
        engine = _engine(random_graph, bulk_kernels=False)
        engine.query(PATH)
        engine.query(PATH)
        assert work["compile_plan_kernels"] == 0
        assert work["build_execution_plan"] == 1

    def test_errors_are_not_remembered(self, random_graph, work):
        engine = _engine(random_graph)
        for _ in range(2):
            with pytest.raises(repro.PgqlSyntaxError):
                engine.query("SELECT a WHERE (a")
            with pytest.raises(repro.PlanError):
                engine.query("SELECT a WHERE (a WITH nonexistent > 3)")
        assert work["parse_and_validate"] == 3  # the valid text only once


# ----------------------------------------------------------------------
# (3) one home per setting: the cluster, the plan, the run
# ----------------------------------------------------------------------
class TestKeySensitivity:
    """``ClusterConfig`` describes the cluster, ``PlannerOptions`` the
    plan — so every field of it is prepared-plan key material — and
    ``ExecutionContext`` the run."""

    #: For each PlannerOptions field, a value other than its default.  A
    #: new plan-shaping option needs an entry here, and then fails
    #: below unless ``PgxdAsyncEngine.plan`` also keys on it.
    OTHER_VALUE = {
        "semantics": MatchSemantics.ISOMORPHISM,
        "scheduling": SchedulingPolicy.SELECTIVITY,
        "use_common_neighbors": True,
        "vertex_order": ["b", "a"],
    }

    def test_no_setting_has_two_homes(self):
        homes = [
            {spec.name for spec in fields(settings)}
            for settings in (ClusterConfig, PlannerOptions,
                             ExecutionContext)
        ]
        assert [len(names) for names in homes] == [18, 5, 4]
        for index, names in enumerate(homes):
            for other in homes[index + 1:]:
                assert not names & other

    @pytest.mark.parametrize(
        "name", [spec.name for spec in fields(PlannerOptions)]
    )
    def test_plan_shaping_option_is_part_of_the_key(self, random_graph,
                                                    name):
        engine = _engine(random_graph)
        base_options = PlannerOptions()
        if name == "feedback":
            # Read only where COST prices candidates, and by content:
            # a store holding this query's recorded actuals.
            base_options = COST
            first = engine.query(PATH, COST)
            value = FeedbackStore()
            value.record(first.plan.query, first.plan.graph,
                         first.plan.choice, first.execution_profile())
        else:
            value = self.OTHER_VALUE[name]
        changed = replace(base_options, **{name: value})
        base = engine.plan(PATH, base_options)
        other = engine.plan(PATH, changed)
        assert other is not base
        assert engine.plan(PATH, replace(changed)) is other
        assert engine.plan(PATH, replace(base_options)) is base

    def test_run_shaping_options_share_the_plan(self, random_graph):
        engine = _engine(random_graph)
        plain = engine.query(PATH)
        assert plain.recording is None

        recording = Recording()
        recorded = engine.query(PATH, context=ExecutionContext(
            recording=recording
        ))
        assert recorded.plan is plain.plan
        assert recorded.recording is recording and len(recording) > 0
        assert recording.series.num_samples > 0

        # A deadline on a hit still aborts; and the next call does not
        # inherit it.
        with pytest.raises(QueryAborted) as excinfo:
            engine.query(PATH, context=ExecutionContext(deadline=3))
        assert excinfo.value.tick == 3
        again = engine.query(PATH)
        assert again.plan is plain.plan
        assert again.recording is None
        assert asdict(again.metrics) == asdict(plain.metrics)

    @pytest.mark.parametrize("route", [
        lambda engine, *run: engine.query(*run),
        lambda engine, *run: engine.submit(*run[:2], context=run[2]).result(),
        lambda engine, *run: QueryService(engine).submit(
            *run[:2], context=run[2]).result(),
    ], ids=["engine.query", "engine.submit", "service.submit"])
    def test_the_context_bounds_and_observes_the_run(self, random_graph,
                                                     route):
        """The Motivation probe of ISSUE 21: whatever the options say,
        the caller's deadline aborts the run and the caller's recording
        is the one that recorded it."""
        engine = _engine(random_graph)
        recording = Recording()
        with pytest.raises(QueryAborted) as excinfo:
            route(engine, PATH, COST, ExecutionContext(
                recording=recording, deadline=3
            ))
        assert excinfo.value.tick == 3
        assert excinfo.value.recording is recording
        assert recording.meta["ticks"] == recording.series.ticks[-1] == 3

        recording = Recording()
        result = route(engine, PATH, COST, ExecutionContext(
            recording=recording
        ))
        assert result.recording is recording
        assert recording.meta["ticks"] == result.metrics.ticks


# ----------------------------------------------------------------------
# (4) invalidation
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_recorded_feedback_replans_that_query_only(self, random_graph,
                                                       work):
        engine = _engine(random_graph)
        store = FeedbackStore()
        options = PlannerOptions(scheduling=SchedulingPolicy.COST,
                                 feedback=store)
        first = engine.query(TWO_HOP, options)
        other = engine.query(PATH, options)
        assert first.plan.choice.feedback_ops == 0
        # An empty store plans as no store at all.
        assert engine.plan(TWO_HOP, COST) is first.plan
        store.record(first.plan.query, first.plan.graph, first.plan.choice,
                     first.execution_profile())
        work.clear()
        second = engine.query(TWO_HOP, options)
        assert second.plan is not first.plan
        assert second.plan.choice.feedback_ops > 0
        assert engine.query(PATH, options).plan is other.plan
        assert work["choose_plan"] == 1
        # Same corrections, same plan: no timer, no revision.
        assert engine.query(TWO_HOP, options).plan is second.plan
        # And the uncorrected plan is still the answer without the store.
        assert engine.plan(TWO_HOP, COST) is first.plan

    def test_new_statistics_object_reprices(self, work):
        graph = uniform_random_graph(80, 320, seed=1234, num_types=4)
        engine = _engine(graph)
        first = engine.plan(TWO_HOP, COST)
        assert engine.plan(TWO_HOP, COST) is first
        graph.attach_statistics(collect_statistics(graph))
        work.clear()
        second = engine.plan(TWO_HOP, COST)
        assert second is not first
        assert work["choose_plan"] == 1
        assert engine.plan(TWO_HOP, COST) is second
        graph.statistics(refresh=True)
        assert engine.plan(TWO_HOP, COST) is not second

    def test_mutated_caller_ast_is_another_query(self, random_graph):
        engine = _engine(random_graph)
        query = parse_and_validate(PATH)
        first = engine.query(query)
        query.limit = 5
        query.select_items.reverse()
        limited = engine.query(query)
        assert limited.plan is not first.plan
        assert limited.columns == ["b", "a"] and len(limited.rows) == 5
        # The first plan kept a private copy of what it compiled.
        again = engine.query(PATH)
        assert again.plan is first.plan
        assert (again.columns, again.rows) == (first.columns, first.rows)


# ----------------------------------------------------------------------
# (5) the bound
# ----------------------------------------------------------------------
class TestBound:
    TEXTS = ["SELECT a, b WHERE (a)-[]->(b), a.type = %d" % kind
             for kind in range(5)]

    def test_least_recently_used_is_evicted(self, random_graph,
                                            monkeypatch, work):
        monkeypatch.setattr(repro.runtime.engine, "PREPARED_LIMIT", 4)
        engine = _engine(random_graph)
        results = [engine.query(text) for text in self.TEXTS[:4]]
        engine.query(self.TEXTS[0])                 # 1 is now the oldest
        engine.query(self.TEXTS[4])                 # ... and goes
        assert len(engine._plans) == 4 and len(engine._queries) == 4
        work.clear()
        for index in (0, 2, 3):
            assert engine.query(self.TEXTS[index]).plan \
                is results[index].plan
        assert not work
        replanned = engine.query(self.TEXTS[1])
        assert work == {"parse_and_validate": 1, "build_execution_plan": 1,
                        "compile_plan_kernels": 1}
        assert replanned.plan is not results[1].plan
        assert _observation(replanned) == _observation(results[1])
        assert len(engine._plans) == 4 and len(engine._queries) == 4

    def test_eviction_order_is_deterministic(self, random_graph,
                                             monkeypatch):
        monkeypatch.setattr(repro.runtime.engine, "PREPARED_LIMIT", 3)
        order = [0, 1, 2, 0, 3, 1, 4, 0, 2]
        kept = []
        for _ in range(2):
            engine = _engine(random_graph)
            for index in order:
                engine.query(self.TEXTS[index])
            kept.append([key[0] for key in engine._plans])
        assert kept[0] == kept[1]
        assert len(kept[0]) == 3


# ----------------------------------------------------------------------
# (6) sharing
# ----------------------------------------------------------------------
class TestSharing:
    def test_eight_tenants_hold_one_plan(self, random_graph, work):
        engine = _engine(random_graph, flow_control_window=8)
        service = QueryService(engine, ServiceConfig(max_concurrent=8))
        handles = [service.submit(TWO_HOP, COST, priority=1 + index % 2)
                   for index in range(8)]
        assert service.peak_active == 8
        service.drain()
        assert work["build_execution_plan"] == 1
        assert work["compile_plan_kernels"] == 1
        plans = {id(service.scope(h.query_id).plan) for h in handles}
        assert len(plans) == 1
        solo = PgxdAsyncEngine(
            random_graph, service.scope_config
        ).query(TWO_HOP, COST)
        for handle in handles:
            assert handle.status is QueryStatus.DONE
            tenant = handle.result()
            assert tenant.rows == solo.rows
            assert tenant.stage_profile == solo.stage_profile
            assert asdict(tenant.metrics) == asdict(solo.metrics)

    def test_quantified_path_plans_each_expansion_once(self, random_graph,
                                                       work):
        engine = _engine(random_graph)
        text = "SELECT DISTINCT a, b WHERE (a)-/{1,3}/->(b), a.type = 0"
        first = engine.query(text)
        assert work["build_execution_plan"] == 3
        second = engine.query(text)
        assert work["build_execution_plan"] == 3
        assert work["parse_and_validate"] == 1
        assert second.rows == first.rows
        assert asdict(second.metrics) == asdict(first.metrics)
        assert second.stage_profile == first.stage_profile


# ----------------------------------------------------------------------
# The text-or-Query seam
# ----------------------------------------------------------------------
class TestQueryArgument:
    @pytest.mark.parametrize("bad", [123, None, b"SELECT a WHERE (a)"])
    def test_every_entry_point_raises_the_same_type_error(
            self, random_graph, bad):
        engine = _engine(random_graph)
        for entry in (engine.query, engine.plan, engine.submit,
                      engine.service().submit,
                      lambda query: repro.plan_query(query, random_graph)):
            with pytest.raises(TypeError,
                               match="expected PGQL text or a parsed Query"):
                entry(bad)
        assert not engine.service().ever_submitted
