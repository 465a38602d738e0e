"""Tests for the union/aggregation seams of quantified-path execution.

Quantified paths run as a union of fixed-length expansions; these tests
pin down how the per-expansion metrics, stage profiles, and EXPLAIN
ANALYZE output are stitched back together.
"""

import pytest

from repro import ClusterConfig, ExecutionContext, QueryMetrics
from repro.cluster.metrics import MachineMetrics
from repro.errors import QueryAborted
from repro.obs import Recording, parse_prometheus
from repro.plan import PlannerOptions, SchedulingPolicy
from repro.runtime import PgxdAsyncEngine


@pytest.fixture
def engine(random_graph):
    return PgxdAsyncEngine(random_graph, ClusterConfig(num_machines=3))


class TestQueryMetricsMerge:
    def test_counters_sum_and_peaks_max(self):
        first = QueryMetrics(ticks=10, num_machines=3, total_ops=100,
                             work_messages=7, num_results=4,
                             peak_buffered_contexts=20, peak_live_frames=5,
                             flow_control_blocks=2)
        second = QueryMetrics(ticks=6, num_machines=3, total_ops=50,
                              work_messages=3, num_results=1,
                              peak_buffered_contexts=9, peak_live_frames=8,
                              flow_control_blocks=1)
        merged = first.merge(second)
        assert merged is first
        assert merged.ticks == 16
        assert merged.total_ops == 150
        assert merged.work_messages == 10
        assert merged.num_results == 5
        assert merged.flow_control_blocks == 3
        assert merged.num_machines == 3
        assert merged.peak_buffered_contexts == 20
        assert merged.peak_live_frames == 8

    def test_every_field_participates(self):
        # A field added to QueryMetrics must merge by default; this
        # catches a new counter being forgotten (the old _merge_metrics
        # helper enumerated fields by hand and silently dropped new ones).
        ones = {
            spec.name: 1
            for spec in QueryMetrics.__dataclass_fields__.values()
            if spec.name != "per_machine"
        }
        merged = QueryMetrics(**ones).merge(QueryMetrics(**ones))
        for name, value in ones.items():
            expected = 1 if name in QueryMetrics._MERGE_BY_MAX else 2
            assert getattr(merged, name) == expected, name

    def test_per_machine_merged_positionally(self):
        first = QueryMetrics(
            num_machines=2,
            per_machine=[MachineMetrics(ops=5, peak_live_frames=3),
                         MachineMetrics(ops=7)],
        )
        second = QueryMetrics(
            num_machines=2,
            per_machine=[MachineMetrics(ops=1, peak_live_frames=9),
                         MachineMetrics(ops=2)],
        )
        merged = first.merge(second)
        assert [m.ops for m in merged.per_machine] == [6, 9]
        assert merged.per_machine[0].peak_live_frames == 9

    def test_blank_record_adopts_copies(self):
        run = QueryMetrics(num_machines=2, per_machine=[
            MachineMetrics(ops=5, num_stages=2), MachineMetrics(ops=7),
        ])
        run.per_machine[0].stage_visits[1] = 3
        merged = QueryMetrics().merge(run)
        assert [m.ops for m in merged.per_machine] == [5, 7]
        assert merged.per_machine[0].stage_visits == [0, 3]
        merged.merge(run)
        # The first run's own records are untouched by later merges.
        assert [m.ops for m in run.per_machine] == [5, 7]
        assert run.per_machine[0].stage_visits == [0, 3]
        assert merged.per_machine[0].stage_visits == [0, 6]

    def test_stage_counters_merge_by_position(self):
        short = MachineMetrics(num_stages=2)
        long = MachineMetrics(num_stages=3)
        short.stage_visits[:] = [1, 2]
        long.stage_visits[:] = [10, 20, 30]
        assert short.merge(long).stage_visits == [11, 22, 30]

    def test_per_machine_dropped_on_shape_mismatch(self):
        first = QueryMetrics(per_machine=[MachineMetrics(ops=5)])
        second = QueryMetrics(per_machine=[MachineMetrics(), MachineMetrics()])
        assert first.merge(second).per_machine == []


class TestUnionExecution:
    def test_union_metrics_aggregate_expansions(self, engine, random_graph):
        union = engine.query("SELECT a, b WHERE (a)-/{1,2}/->(b)")
        hop1 = engine.query("SELECT a, b WHERE (a)-[]->(b)")
        # The union ran both expansions back to back: its tick count and
        # message volume strictly dominate the one-hop run alone.
        assert union.metrics.ticks > hop1.metrics.ticks
        assert union.metrics.work_messages >= hop1.metrics.work_messages
        assert union.metrics.num_machines == 3
        assert union.metrics.num_results == len(union.rows)

    def test_distinct_order_by_limit_over_expansions(self, engine):
        full = engine.query("SELECT DISTINCT a, b WHERE (a)-/{1,3}/->(b) "
                            "ORDER BY a, b")
        limited = engine.query("SELECT DISTINCT a, b WHERE (a)-/{1,3}/->(b) "
                               "ORDER BY a, b LIMIT 5")
        assert len(set(full.rows)) == len(full.rows)
        assert full.rows == sorted(full.rows)
        assert limited.rows == full.rows[:5]
        # DISTINCT/LIMIT apply after the union; the metrics keep the raw
        # emission count, which dominates the deduplicated row count.
        assert limited.metrics.num_results >= len(full.rows)

    def test_union_stage_profile_aggregated(self, engine):
        result = engine.query("SELECT a, b WHERE (a)-/{1,3}/->(b)")
        profile = result.stage_profile
        assert profile, "union queries must keep a stage profile"
        # Reported against the longest expansion's plan.
        assert len(profile) == result.plan.num_stages
        assert all(stage["visits"] > 0 for stage in profile)
        single = engine.query("SELECT a, b WHERE (a)-[]->(b)").stage_profile
        # Stage 0 aggregates the root visits of all three expansions.
        assert profile[0]["visits"] == 3 * single[0]["visits"]


    def test_union_keeps_per_machine_metrics(self, engine):
        metrics = engine.query("SELECT a, b WHERE (a)-/{1,2}/->(b)").metrics
        assert len(metrics.per_machine) == 3
        assert sum(m.ops for m in metrics.per_machine) == metrics.total_ops

    def test_union_profile_has_no_operator_rows(self, engine):
        options = PlannerOptions(scheduling=SchedulingPolicy.COST)
        result = engine.query("SELECT a, b WHERE (a)-/{1,2}/->(b)", options)
        profile = result.execution_profile()
        # Each expansion was planned on its own: no one estimate covers
        # the union's actuals, but stage totals and skew still report.
        assert profile.operators == []
        assert len(profile.stages) == result.plan.num_stages
        assert profile.skew
        assert "q-error" not in result.explain_analyze()


class TestUnionContext:
    """A caller's ExecutionContext reaches every expansion."""

    QUERY = "SELECT DISTINCT a, b WHERE (a)-/{1,2}/->(b)"

    def test_deadline_applies_to_each_expansion(self, engine):
        with pytest.raises(QueryAborted) as info:
            engine.query(self.QUERY, context=ExecutionContext(deadline=1))
        assert info.value.tick == 1
        # Each expansion gets the full deadline: one that fits them all
        # individually lets the union finish.
        longest = engine.query("SELECT a, b WHERE (a)-/{2,2}/->(b)")
        whole = engine.query(self.QUERY, context=ExecutionContext(
            deadline=longest.metrics.ticks + 1
        ))
        assert whole.metrics.ticks > longest.metrics.ticks

    def test_context_recorders_collect_the_merged_run(self, engine):
        recording = Recording()
        result = engine.query(self.QUERY, context=ExecutionContext(
            recording=recording, query_id="tenant-7",
        ))
        assert result.recording is recording
        again = engine.query(self.QUERY, context=ExecutionContext(
            recording=Recording(),
        )).recording
        assert [event.to_dict() for event in recording] == \
            [event.to_dict() for event in again]
        assert recording.meta == again.meta
        assert recording.meta["ticks"] == result.metrics.ticks
        assert recording.series.ticks == again.series.ticks
        assert recording.prometheus() == again.prometheus()

    def test_registry_totals_add_across_expansions(self, engine):
        """The machines' counters are kept once per expansion, at its
        seal; exported, they are the union's QueryMetrics totals."""
        recording = Recording()
        metrics = engine.query(self.QUERY, context=ExecutionContext(
            recording=recording
        )).metrics
        parsed = parse_prometheus(recording.prometheus())

        def total(name):
            return sum(value for (metric, _labels), value in parsed.items()
                       if metric == name)

        assert total("repro_ops_total") == metrics.total_ops
        assert total("repro_work_messages_sent_total") \
            == metrics.work_messages
        assert total("repro_contexts_sent_total") \
            == metrics.contexts_shipped
        assert total("repro_control_messages_sent_total") \
            == metrics.control_messages
        assert total("repro_results_emitted_total") == metrics.num_results
        assert total("repro_idle_ticks_total") == metrics.total_idle_ticks
        for machine_id, columns in recording.series.machines.items():
            assert parsed[(
                "repro_ops_total", frozenset({("machine", str(machine_id))})
            )] == sum(columns["ops"])

    def test_union_exports_its_own_drift(self, engine):
        """The expansions were planned separately, so a union exports no
        operator drift; its skew gauges are its own profile's."""
        recording = Recording()
        result = engine.query(
            self.QUERY, PlannerOptions(scheduling=SchedulingPolicy.COST),
            ExecutionContext(recording=recording),
        )
        profile = result.execution_profile()
        assert profile.operators == []
        parsed = parse_prometheus(recording.prometheus())
        names = {name for name, _labels in parsed}
        assert not names & {"repro_plan_estimated_rows",
                            "repro_plan_actual_rows", "repro_plan_q_error",
                            "repro_plan_q_error_max"}
        skew = {int(dict(labels)["stage"]): value
                for (name, labels), value in parsed.items()
                if name == "repro_stage_skew_ratio"}
        assert profile.skew
        assert skew == {row["stage"]: row["ratio"] for row in profile.skew}

    def test_aborted_union_exports_no_drift(self, engine):
        first = engine.query("SELECT a, b WHERE (a)-[]->(b)")
        recording = Recording()
        with pytest.raises(QueryAborted):
            engine.query(
                self.QUERY, PlannerOptions(scheduling=SchedulingPolicy.COST),
                ExecutionContext(recording=recording,
                                 deadline=first.metrics.ticks + 2),
            )
        assert recording.drift is None
        assert not any(
            name.startswith(("repro_plan_", "repro_stage_skew"))
            for name, _labels in parse_prometheus(recording.prometheus())
        )

    def test_abort_keeps_the_aborting_expansions_recording(self, engine):
        """Expansion 2 of 2 runs out of budget: the caller's recording
        holds both expansions on the union's timeline, up to the abort."""
        first = engine.query("SELECT a, b WHERE (a)-[]->(b)")
        deadline = first.metrics.ticks + 2  # fits {1}, not {2}
        recording = Recording()
        with pytest.raises(QueryAborted) as info:
            engine.query(self.QUERY, context=ExecutionContext(
                recording=recording, deadline=deadline,
            ))
        aborted = info.value
        end = first.metrics.ticks + deadline
        assert aborted.recording is recording
        assert aborted.tick == aborted.metrics.ticks == end
        assert recording.meta["ticks"] == end
        assert recording.events[-1].kind == "aborted"
        assert recording.events[-1].tick == end
        assert recording.series.ticks[-1] == end
        assert "at tick %d" % end in str(aborted)


class TestExplainAnalyze:
    def test_direct_query(self, engine):
        result = engine.query("SELECT a, b WHERE (a)-[]->(b), "
                              "a.value > b.value")
        text = result.explain_analyze()
        assert "visits=" in text
        assert "passes=" in text
        for stage in range(result.plan.num_stages):
            assert "Stage %d" % stage in text

    def test_union_query(self, engine):
        result = engine.query("SELECT a, b WHERE (a)-/{1,3}/->(b)")
        text = result.explain_analyze()
        assert "visits=" in text
        # Every aggregated stage row is printed, including the deepest
        # stage that only the {3} expansion reaches.
        assert text.count("visits=") == result.plan.num_stages

    def test_union_query_with_trace(self, engine):
        result = engine.query(
            "SELECT a, b WHERE (a)-/{1,2}/->(b)",
            context=ExecutionContext(recording=Recording()),
        )
        text = result.explain_analyze()
        assert "total: %d ticks" % result.metrics.ticks in text
