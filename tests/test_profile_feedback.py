"""Plan-vs-actual observability: the per-stage counters, the execution
profile (drift + skew), the planner feedback store, and the Prometheus
round-trip for hostile label payloads.

The load-bearing property: the five per-stage counters every machine
keeps in its ``MachineMetrics`` (``visits`` / ``passes`` /
``remote_in`` / ``scanned`` / ``emitted``) must sum across machines to
the same totals whichever execution path ran — compiled bulk kernels,
micro-stepped cursors, or a chaotic network behind the reliability
layer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, ExecutionContext, PlannerOptions, \
    run_query
from repro.chaos import profile as chaos_profile
from repro.errors import QueryAborted
from repro.graph import uniform_random_graph
from repro.obs import (
    FeedbackStore,
    Recording,
    parse_prometheus,
    q_error,
    query_fingerprint,
)
from repro.obs.export import exposition
from repro.obs.feedback import CORRECTION_MAX, CORRECTION_MIN
from repro.plan import SchedulingPolicy
from repro.runtime import PgxdAsyncEngine
from repro.workloads.skewed import skewed_workload

QUERY_POOL = [
    "SELECT a, b WHERE (a)-[]->(b)",
    "SELECT a, b WHERE (a WITH type = 1)-[]->(b WITH value > 5000)",
    "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.value < c.value",
    "SELECT a, COUNT(*) WHERE (a)-[]->(b) GROUP BY a",
]


def profiled_run(query, machines=3, seed=2, bulk_kernels=True, chaos=None):
    graph = uniform_random_graph(80, 360, seed=seed, num_types=4)
    config = ClusterConfig(
        num_machines=machines,
        bulk_kernels=bulk_kernels,
        chaos=chaos,
        reliability=chaos is not None,
    )
    return run_query(graph, query, config)


def rows_exact(query):
    """True when emitted rows equal result rows (no aggregation,
    grouping, DISTINCT, or LIMIT collapsing matches after emission)."""
    from repro.pgql.ast import Aggregate

    if query.group_by or query.distinct or query.limit is not None:
        return False
    return not any(
        isinstance(node, Aggregate)
        for item in query.select_items
        for node in item.expr.walk()
    )


def check_invariants(result):
    """The cross-machine sums must agree with the engine's own books."""
    totals = result.execution_profile().stages
    assert len(totals) == result.plan.num_stages
    # stage_profile is the public three-counter cut of these totals.
    for entry, expected in zip(totals, result.stage_profile):
        assert entry["visits"] == expected["visits"]
        assert entry["passes"] == expected["passes"]
        assert entry["remote_in"] == expected["remote_in"]
    # emitted[s] is the continuation weight stage s produced — exactly
    # the contexts entering stage s+1 — and the output stage emits one
    # row per passing context (aggregation collapses rows *after*
    # emission, so this equals len(rows) only for non-aggregates).
    for stage in range(len(totals) - 1):
        assert totals[stage]["emitted"] == totals[stage + 1]["visits"]
    assert totals[-1]["emitted"] == totals[-1]["passes"]
    if rows_exact(result.plan.query):
        assert totals[-1]["emitted"] == len(result.rows)
    # A stage can only pass contexts it scanned candidates for (root
    # bootstrap stages scan nothing, hence no lower bound on scanned).
    for entry in totals:
        assert entry["scanned"] >= 0
    return totals


class TestStageProfilerProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        machines=st.integers(min_value=1, max_value=4),
        query=st.sampled_from(QUERY_POOL),
        bulk=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_totals_match_engine_counters(self, seed, machines, query,
                                          bulk):
        result = profiled_run(query, machines=machines, seed=seed,
                              bulk_kernels=bulk)
        check_invariants(result)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        query=st.sampled_from(QUERY_POOL),
    )
    @settings(max_examples=10, deadline=None)
    def test_kernels_and_cursors_profile_identically(self, seed, query):
        fast = profiled_run(query, seed=seed, bulk_kernels=True)
        slow = profiled_run(query, seed=seed, bulk_kernels=False)
        assert fast.execution_profile().to_dict() \
            == slow.execution_profile().to_dict()

    def test_profile_survives_chaos(self):
        clean = profiled_run(QUERY_POOL[2], machines=4)
        chaotic = profiled_run(
            QUERY_POOL[2], machines=4,
            chaos=chaos_profile("soak", seed=5),
        )
        assert sorted(chaotic.rows) == sorted(clean.rows)
        totals = check_invariants(chaotic)
        assert totals[-1]["emitted"] == len(clean.rows)


class TestExecutionProfile:
    def cost_run(self, options=None):
        config = ClusterConfig(num_machines=4)
        graph, queries = skewed_workload(
            config, num_persons=120, num_bands=6, num_songs=30,
            fan_edges=360, likes_edges=240,
        )
        engine = PgxdAsyncEngine(graph, config)
        options = options or PlannerOptions(
            scheduling=SchedulingPolicy.COST
        )
        return graph, queries, [
            engine.query(query, options) for query in queries
        ]

    def test_drift_join_and_q_error(self):
        _graph, _queries, results = self.cost_run()
        joined = False
        for result in results:
            profile = result.execution_profile()
            assert profile is not None
            for row in profile.operators:
                if row["actual"] is not None:
                    joined = True
                    assert row["q_error"] >= 1.0
                    assert row["q_error"] == q_error(
                        row["estimated"], row["actual"]
                    )
        assert joined, "no operator joined estimates against actuals"

    def test_explain_analyze_sections(self):
        _graph, _queries, results = self.cost_run()
        text = results[0].explain_analyze()
        assert "scanned=" in text and "emitted=" in text
        assert "estimated vs actual rows (q-error):" in text
        assert "worst q-error:" in text
        assert "per-machine skew" in text
        assert "straggler:" in text

    def test_drift_gauges_reach_prometheus(self):
        config = ClusterConfig(num_machines=4)
        graph, queries = skewed_workload(
            config, num_persons=120, num_bands=6, num_songs=30,
            fan_edges=360, likes_edges=240,
        )
        engine = PgxdAsyncEngine(graph, config)
        result = engine.query(
            queries[0],
            PlannerOptions(scheduling=SchedulingPolicy.COST),
            ExecutionContext(recording=Recording()),
        )
        text = result.recording.prometheus()
        assert "repro_plan_q_error_max" in text
        assert "repro_stage_skew_ratio" in text
        parsed = parse_prometheus(text)
        drift = {name for name, _labels in parsed
                 if name.startswith("repro_plan_")}
        assert "repro_plan_estimated_rows" in drift
        assert "repro_plan_actual_rows" in drift

    @pytest.mark.parametrize("deadline", [None, 3])
    def test_no_q_error_of_zero(self, random_graph, deadline):
        """q-error is >= 1 by definition: a run without estimates (an
        APPEARANCE plan, an abort) exports no worst-q-error sample, only
        the family's headers."""
        recording = Recording()
        try:
            run_query(random_graph, QUERY_POOL[0],
                      ClusterConfig(num_machines=3),
                      context=ExecutionContext(recording=recording,
                                               deadline=deadline))
        except QueryAborted:
            assert deadline is not None
        text = recording.prometheus()
        assert "# TYPE repro_plan_q_error_max gauge" in text
        assert not any(line.startswith("repro_plan_q_error_max")
                       for line in text.splitlines())


class TestFeedbackStore:
    def record_all(self, persons=120, bands=6, songs=30, fans=360,
                   likes=240):
        config = ClusterConfig(num_machines=4)
        graph, queries = skewed_workload(
            config, num_persons=persons, num_bands=bands, num_songs=songs,
            fan_edges=fans, likes_edges=likes,
        )
        engine = PgxdAsyncEngine(graph, config)
        store = FeedbackStore()
        options = PlannerOptions(scheduling=SchedulingPolicy.COST)
        results = []
        for query in queries:
            result = engine.query(query, options)
            store.record(result.plan.query, result.plan.graph,
                         result.plan.choice, result.execution_profile())
            results.append(result)
        return graph, queries, engine, store, results

    def test_record_and_corrections(self):
        graph, _queries, _engine, store, results = self.record_all()
        assert len(store) > 0
        for result in results:
            factors = store.corrections(result.plan.query, graph)
            assert factors, "recorded query yielded no corrections"
            for factor in factors.values():
                assert CORRECTION_MIN <= factor <= CORRECTION_MAX
        # An unseen query has no entry and thus no corrections.
        other = uniform_random_graph(10, 20, seed=1, num_types=2)
        assert store.corrections(results[0].plan.query, other) == {}

    def test_round_trip_is_deterministic(self, tmp_path):
        _graph, _queries, _engine, store, _results = self.record_all()
        first = tmp_path / "feedback_a.json"
        second = tmp_path / "feedback_b.json"
        store.save(str(first))
        store.save(str(second))
        assert first.read_bytes() == second.read_bytes()
        loaded = FeedbackStore(str(first))
        assert loaded.to_dict() == store.to_dict()

    def test_feedback_identical_rows_never_worse(self):
        # The bench pillar's exact spec (skewed_planner_300p_q4): the CI
        # drift gate asserts the same dominance on the same simulation.
        graph, queries, engine, store, results = self.record_all(
            persons=300, bands=8, songs=40, fans=900, likes=600,
        )
        corrected_options = PlannerOptions(
            scheduling=SchedulingPolicy.COST, feedback=store
        )
        for query, baseline in zip(queries, results):
            rerun = engine.query(query, corrected_options)
            assert sorted(rerun.rows) == sorted(baseline.rows)
            assert rerun.metrics.ticks <= baseline.metrics.ticks
            assert rerun.metrics.total_ops <= baseline.metrics.total_ops
            assert rerun.metrics.work_messages \
                <= baseline.metrics.work_messages

    def test_fingerprint_scoped_by_graph_shape(self):
        small = uniform_random_graph(10, 20, seed=1, num_types=2)
        large = uniform_random_graph(20, 40, seed=1, num_types=2)
        config = ClusterConfig(num_machines=1)
        result = run_query(small, QUERY_POOL[0], config)
        query = result.plan.query
        assert query_fingerprint(query, small) \
            != query_fingerprint(query, large)
        assert query_fingerprint(query, small) \
            == query_fingerprint(query, small)


HOSTILE_VALUES = [
    'back\\slash',
    'quote"quote',
    'new\nline',
    '\\n literal backslash-n',
    'trailing backslash\\',
    'spaces and {braces} and = signs',
    '"',
    '\\',
    '\\\\n',
]


class TestPrometheusRoundTrip:
    def exposition_with(self, values):
        return exposition([(
            "repro_hostile", "hostile labels", "gauge", "name",
            [(value, index + 1) for index, value in enumerate(values)],
        )])

    def test_eof_terminator_and_sorted_families(self, random_graph):
        recording = Recording()
        run_query(random_graph, QUERY_POOL[0], ClusterConfig(num_machines=2),
                  context=ExecutionContext(recording=recording))
        text = recording.prometheus()
        assert text.endswith("# EOF\n")
        families = [line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE")]
        assert families == sorted(families)

    def test_hostile_label_values_round_trip(self):
        parsed = parse_prometheus(self.exposition_with(HOSTILE_VALUES))
        seen = {}
        for (name, labels), value in parsed.items():
            if name == "repro_hostile":
                seen[dict(labels)["name"]] = value
        assert seen == {
            value: index + 1 for index, value in enumerate(HOSTILE_VALUES)
        }

    @given(value=st.text(
        alphabet=st.characters(
            codec="utf-8", exclude_characters="\r",
        ),
        min_size=0, max_size=24,
    ))
    @settings(max_examples=80, deadline=None)
    def test_any_label_value_round_trips(self, value):
        parsed = parse_prometheus(self.exposition_with([value]))
        assert parsed[
            ("repro_hostile", frozenset({("name", value)}))
        ] == 1
