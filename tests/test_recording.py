"""One recording per run: its channels agree, it says when it is
truncated, its utilisation counts every tick, and the runtime knows it
by one name.

The event stream, the per-tick series and the metrics of a
:class:`~repro.obs.Recording` are three views of one run, taken at one
seam; the first half of this file holds them to each other and to the
run's own :class:`~repro.cluster.metrics.MachineMetrics`.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, ExecutionContext, PgxdAsyncEngine, \
    Recording, uniform_random_graph
from repro.errors import QueryAborted
from repro.obs import parse_prometheus
from repro.plan import PlannerOptions, SchedulingPolicy
from repro.workloads import seeded_workload
from tests.test_idle_path import QUERIES, _cluster_configs, _max_examples

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
UNION_QUERY = "SELECT a, b WHERE (a)-/{1,3}/->(b)"


def _ops_by_machine(recording, num_machines):
    spans = [0] * num_machines
    for event in recording.events_of("worker_span"):
        spans[event.machine] += event.ops
    sampled = [sum(recording.series.machines[machine]["ops"])
               for machine in range(num_machines)]
    return spans, sampled


# ----------------------------------------------------------------------
# The channels agree
# ----------------------------------------------------------------------
class TestChannelsAgree:
    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        vertices=st.integers(min_value=2, max_value=60),
        density=st.integers(min_value=1, max_value=5),
        query=st.sampled_from(QUERIES + [UNION_QUERY]),
        config=_cluster_configs(),
        interval=st.sampled_from([1, 4]),
    )
    @settings(max_examples=_max_examples(40), deadline=None)
    def test_events_series_and_metrics_tell_one_story(
            self, graph_seed, vertices, density, query, config, interval):
        graph = uniform_random_graph(
            vertices, vertices * density, seed=graph_seed, num_types=3
        )
        recording = Recording(max_events=200_000, interval=interval)
        result = PgxdAsyncEngine(graph, config).query(
            query, context=ExecutionContext(recording=recording)
        )
        metrics = result.metrics
        series = recording.series
        spans, sampled = _ops_by_machine(recording, config.num_machines)
        # The series is whole whatever max_events cut off the stream
        # (a blocking-mode run under chaos spins out a million events).
        if not recording.dropped:
            assert spans == sampled
        assert sum(sampled) == metrics.total_ops
        assert len(metrics.per_machine) == config.num_machines
        for machine, counters in enumerate(metrics.per_machine):
            assert sampled[machine] == counters.ops
            assert max(series.machines[machine]["buffered_max"]) \
                == counters.peak_buffered_contexts
        assert series.peak("buffered_max") == metrics.peak_buffered_contexts
        # Offset-correct across expansions: one timeline, one duration.
        assert recording.meta["ticks"] == metrics.ticks == series.ticks[-1]
        assert series.ticks == sorted(series.ticks)
        assert "aborted" not in recording.meta

    @pytest.mark.parametrize("query", [QUERIES[1], UNION_QUERY])
    @pytest.mark.parametrize("interval", [1, 4])
    def test_aborted_run_is_sealed(self, random_graph, query, interval):
        engine = PgxdAsyncEngine(random_graph, ClusterConfig(
            num_machines=3, flow_control_window=1, bulk_message_size=4,
        ))
        whole = engine.query(query).metrics.ticks
        recording = Recording(interval=interval)
        with pytest.raises(QueryAborted) as info:
            engine.query(query, context=ExecutionContext(
                recording=recording, deadline=whole // 3,
            ))
        aborted = info.value
        assert aborted.recording is recording
        assert "deadline" in recording.meta["aborted"]
        assert recording.meta["ticks"] == aborted.tick \
            == recording.series.ticks[-1] == recording.events[-1].tick
        assert recording.events[-1].kind == "aborted"
        spans, sampled = _ops_by_machine(recording, 3)
        assert spans == sampled
        assert sum(sampled) == aborted.metrics.total_ops


# ----------------------------------------------------------------------
# Utilisation and the timeline count every tick
# ----------------------------------------------------------------------
class TestSkippedTicksCount:
    """A latency-bound run fast-forwards most of its ticks; they are idle
    time, not missing time (the parent divided by *sampled* ticks and
    reported ~11x the truth here)."""

    @pytest.fixture(scope="class")
    def workload(self):
        config = ClusterConfig(num_machines=4, network_latency=64)
        graph, queries = seeded_workload(config, num_vertices=300,
                                         num_edges=1_500)
        return PgxdAsyncEngine(graph, config), queries, config

    @pytest.mark.parametrize("interval", [1, 4])
    def test_utilisation_is_ops_over_capacity_times_ticks(self, workload,
                                                           interval):
        engine, queries, config = workload
        capacity = config.workers_per_machine * config.ops_per_tick
        exact = 0
        for index in (4, 5, 6, 9):  # the light, latency-bound ones
            query = queries[index]
            recording = Recording(interval=interval)
            metrics = engine.query(query, context=ExecutionContext(
                recording=recording
            )).metrics
            profile = recording.profile()
            series = recording.series
            # Most ticks were skipped, so the bias would show.
            assert series.num_samples * interval < metrics.ticks / 2
            overshot = any(
                ops > capacity * span
                for columns in series.machines.values()
                for ops, span in zip(columns["ops"], series.spans)
            )
            for machine, counters in enumerate(metrics.per_machine):
                truth = counters.ops / (capacity * metrics.ticks)
                measured = profile.worker_utilization(machine)
                assert measured <= truth + 1e-12
                if not overshot:
                    assert measured == pytest.approx(truth, abs=1e-9)
            exact += not overshot
        assert exact >= 3  # the identity was exercised, not just the bound

    def test_timeline_buckets_weigh_elapsed_ticks(self, workload):
        engine, queries, _config = workload
        recording = Recording()
        engine.query(queries[6], context=ExecutionContext(
            recording=recording
        ))
        # ~1 % utilisation: no bucket of a 16-column timeline is busy
        # enough to leave the idle level (the parent averaged over the
        # few sampled ticks of a bucket and drew them half full).
        rows = [line for line in recording.timeline(width=16).splitlines()
                if line.startswith("m")]
        assert len(rows) == 4
        for row in rows:
            assert set(row[row.index("|"):]) <= set("| .!")


# ----------------------------------------------------------------------
# A truncated recording says so everywhere
# ----------------------------------------------------------------------
class TestTruncationIsReported:
    @pytest.mark.parametrize("query", [QUERIES[1], UNION_QUERY])
    def test_dropped_reaches_every_rendering(self, random_graph, query):
        engine = PgxdAsyncEngine(random_graph, ClusterConfig(num_machines=2))
        whole = Recording()
        engine.query(query, context=ExecutionContext(recording=whole))
        recording = Recording(max_events=10)
        result = engine.query(query, context=ExecutionContext(
            recording=recording
        ))
        # Exactly once: what a union's merge cuts off mid-expansion is
        # counted beside what each expansion dropped itself.
        assert len(recording) == 10
        assert recording.dropped == len(whole) - 10
        dropped = "%d events dropped" % recording.dropped
        assert dropped in recording.summary()
        assert dropped in recording.timeline().splitlines()[0]
        assert dropped in recording.profile().summary()
        assert dropped in result.explain_analyze()
        assert parse_prometheus(recording.prometheus())[
            ("repro_recording_events_dropped_total", frozenset())
        ] == recording.dropped
        chrome = json.loads(recording.to_chrome_json())
        assert chrome["otherData"]["dropped_events"] == recording.dropped
        # The series is not bounded by max_events and stays whole.
        assert recording.series.ticks == whole.series.ticks
        assert "dropped" not in whole.summary()
        assert "dropped" not in whole.timeline()


# ----------------------------------------------------------------------
# The Prometheus text, byte for byte
# ----------------------------------------------------------------------
#: ``prometheus()`` of a 3-machine COST run on ``uniform_random_graph(24,
#: 72, seed=5)``, rendered from what the recording holds.
GOLDEN_PROMETHEUS = """\
# HELP repro_buffered_contexts buffered contexts (inbox + parked + outgoing) per machine
# TYPE repro_buffered_contexts gauge
repro_buffered_contexts{machine="0"} 0
repro_buffered_contexts{machine="1"} 0
repro_buffered_contexts{machine="2"} 0
# HELP repro_buffered_contexts_budget configured receiver-side context budget (stages * senders * bulk * (window + 1))
# TYPE repro_buffered_contexts_budget gauge
repro_buffered_contexts_budget 640
# HELP repro_buffered_contexts_peak high-water mark of buffered contexts per machine
# TYPE repro_buffered_contexts_peak gauge
repro_buffered_contexts_peak{machine="0"} 13
repro_buffered_contexts_peak{machine="1"} 15
repro_buffered_contexts_peak{machine="2"} 16
# HELP repro_contexts_sent_total contexts shipped remotely
# TYPE repro_contexts_sent_total counter
repro_contexts_sent_total{machine="0"} 16
repro_contexts_sent_total{machine="1"} 19
repro_contexts_sent_total{machine="2"} 20
# HELP repro_control_messages_sent_total acks/COMPLETED/quota traffic
# TYPE repro_control_messages_sent_total counter
repro_control_messages_sent_total{machine="0"} 8
repro_control_messages_sent_total{machine="1"} 8
repro_control_messages_sent_total{machine="2"} 8
# HELP repro_flow_control_blocks_total sends refused by flow control
# TYPE repro_flow_control_blocks_total counter
# HELP repro_flow_inflight_window total unacknowledged flow-control window occupancy
# TYPE repro_flow_inflight_window gauge
repro_flow_inflight_window{machine="0"} 0
repro_flow_inflight_window{machine="1"} 0
repro_flow_inflight_window{machine="2"} 0
# HELP repro_ghost_prunes_total remote hops pruned at ghost vertices
# TYPE repro_ghost_prunes_total counter
# HELP repro_idle_ticks_total worker polls that found no work
# TYPE repro_idle_ticks_total counter
repro_idle_ticks_total{machine="0"} 38
repro_idle_ticks_total{machine="1"} 36
repro_idle_ticks_total{machine="2"} 38
# HELP repro_inbox_depth queued work messages per machine, sampled per tick
# TYPE repro_inbox_depth histogram
repro_inbox_depth_bucket{le="0",machine="0"} 11
repro_inbox_depth_bucket{le="1",machine="0"} 11
repro_inbox_depth_bucket{le="2",machine="0"} 11
repro_inbox_depth_bucket{le="4",machine="0"} 11
repro_inbox_depth_bucket{le="8",machine="0"} 11
repro_inbox_depth_bucket{le="16",machine="0"} 11
repro_inbox_depth_bucket{le="32",machine="0"} 11
repro_inbox_depth_bucket{le="64",machine="0"} 11
repro_inbox_depth_bucket{le="128",machine="0"} 11
repro_inbox_depth_bucket{le="+Inf",machine="0"} 11
repro_inbox_depth_sum{machine="0"} 0
repro_inbox_depth_count{machine="0"} 11
repro_inbox_depth_bucket{le="0",machine="1"} 11
repro_inbox_depth_bucket{le="1",machine="1"} 11
repro_inbox_depth_bucket{le="2",machine="1"} 11
repro_inbox_depth_bucket{le="4",machine="1"} 11
repro_inbox_depth_bucket{le="8",machine="1"} 11
repro_inbox_depth_bucket{le="16",machine="1"} 11
repro_inbox_depth_bucket{le="32",machine="1"} 11
repro_inbox_depth_bucket{le="64",machine="1"} 11
repro_inbox_depth_bucket{le="128",machine="1"} 11
repro_inbox_depth_bucket{le="+Inf",machine="1"} 11
repro_inbox_depth_sum{machine="1"} 0
repro_inbox_depth_count{machine="1"} 11
repro_inbox_depth_bucket{le="0",machine="2"} 11
repro_inbox_depth_bucket{le="1",machine="2"} 11
repro_inbox_depth_bucket{le="2",machine="2"} 11
repro_inbox_depth_bucket{le="4",machine="2"} 11
repro_inbox_depth_bucket{le="8",machine="2"} 11
repro_inbox_depth_bucket{le="16",machine="2"} 11
repro_inbox_depth_bucket{le="32",machine="2"} 11
repro_inbox_depth_bucket{le="64",machine="2"} 11
repro_inbox_depth_bucket{le="128",machine="2"} 11
repro_inbox_depth_bucket{le="+Inf",machine="2"} 11
repro_inbox_depth_sum{machine="2"} 0
repro_inbox_depth_count{machine="2"} 11
# HELP repro_inbox_wait_ticks hop service time: work-message delivery to consumption
# TYPE repro_inbox_wait_ticks histogram
repro_inbox_wait_ticks_bucket{le="0"} 12
repro_inbox_wait_ticks_bucket{le="1"} 12
repro_inbox_wait_ticks_bucket{le="2"} 12
repro_inbox_wait_ticks_bucket{le="4"} 12
repro_inbox_wait_ticks_bucket{le="8"} 12
repro_inbox_wait_ticks_bucket{le="16"} 12
repro_inbox_wait_ticks_bucket{le="32"} 12
repro_inbox_wait_ticks_bucket{le="64"} 12
repro_inbox_wait_ticks_bucket{le="128"} 12
repro_inbox_wait_ticks_bucket{le="256"} 12
repro_inbox_wait_ticks_bucket{le="+Inf"} 12
repro_inbox_wait_ticks_sum 0
repro_inbox_wait_ticks_count 12
# HELP repro_kernel_batch_ops micro-ops charged per bulk-kernel computation slice
# TYPE repro_kernel_batch_ops histogram
repro_kernel_batch_ops_bucket{le="1"} 0
repro_kernel_batch_ops_bucket{le="2"} 15
repro_kernel_batch_ops_bucket{le="4"} 19
repro_kernel_batch_ops_bucket{le="8"} 21
repro_kernel_batch_ops_bucket{le="16"} 33
repro_kernel_batch_ops_bucket{le="32"} 41
repro_kernel_batch_ops_bucket{le="64"} 41
repro_kernel_batch_ops_bucket{le="128"} 41
repro_kernel_batch_ops_bucket{le="+Inf"} 41
repro_kernel_batch_ops_sum 434
repro_kernel_batch_ops_count 41
# HELP repro_live_frames live traversal frames per machine
# TYPE repro_live_frames gauge
repro_live_frames{machine="0"} 0
repro_live_frames{machine="1"} 0
repro_live_frames{machine="2"} 0
# HELP repro_message_latency_ticks network transit time per delivered message
# TYPE repro_message_latency_ticks histogram
repro_message_latency_ticks_bucket{le="1"} 0
repro_message_latency_ticks_bucket{le="2"} 0
repro_message_latency_ticks_bucket{le="4"} 0
repro_message_latency_ticks_bucket{le="8"} 36
repro_message_latency_ticks_bucket{le="16"} 36
repro_message_latency_ticks_bucket{le="32"} 36
repro_message_latency_ticks_bucket{le="64"} 36
repro_message_latency_ticks_bucket{le="128"} 36
repro_message_latency_ticks_bucket{le="256"} 36
repro_message_latency_ticks_bucket{le="+Inf"} 36
repro_message_latency_ticks_sum 288
repro_message_latency_ticks_count 36
# HELP repro_ops_total worker micro-operations executed
# TYPE repro_ops_total counter
repro_ops_total{machine="0"} 125
repro_ops_total{machine="1"} 170
repro_ops_total{machine="2"} 139
# HELP repro_plan_actual_rows measured rows surviving each logical operator
# TYPE repro_plan_actual_rows gauge
repro_plan_actual_rows{operator="0"} 24
repro_plan_actual_rows{operator="1"} 32
# HELP repro_plan_estimated_rows cost-model estimated rows after each logical operator
# TYPE repro_plan_estimated_rows gauge
repro_plan_estimated_rows{operator="0"} 24
repro_plan_estimated_rows{operator="1"} 36
# HELP repro_plan_q_error per-operator q-error max(est/actual, actual/est)
# TYPE repro_plan_q_error gauge
repro_plan_q_error{operator="0"} 1
repro_plan_q_error{operator="1"} 1.125
# HELP repro_plan_q_error_max worst per-operator cardinality q-error of the run
# TYPE repro_plan_q_error_max gauge
repro_plan_q_error_max 1.125
# HELP repro_quota_granted_total window slots received from peers
# TYPE repro_quota_granted_total counter
# HELP repro_quota_requests_total dynamic-memory quota requests sent
# TYPE repro_quota_requests_total counter
# HELP repro_recording_events_dropped_total events discarded after the recording reached max_events
# TYPE repro_recording_events_dropped_total counter
repro_recording_events_dropped_total 0
# HELP repro_results_emitted_total final matches collected
# TYPE repro_results_emitted_total counter
repro_results_emitted_total{machine="0"} 5
repro_results_emitted_total{machine="1"} 15
repro_results_emitted_total{machine="2"} 12
# HELP repro_retransmit_attempt attempt number of each reliability-layer retransmission
# TYPE repro_retransmit_attempt histogram
repro_retransmit_attempt_bucket{le="1"} 0
repro_retransmit_attempt_bucket{le="2"} 0
repro_retransmit_attempt_bucket{le="3"} 0
repro_retransmit_attempt_bucket{le="4"} 0
repro_retransmit_attempt_bucket{le="6"} 0
repro_retransmit_attempt_bucket{le="8"} 0
repro_retransmit_attempt_bucket{le="12"} 0
repro_retransmit_attempt_bucket{le="16"} 0
repro_retransmit_attempt_bucket{le="+Inf"} 0
repro_retransmit_attempt_sum 0
repro_retransmit_attempt_count 0
# HELP repro_retransmits_total reliability-layer frame retransmissions
# TYPE repro_retransmits_total counter
# HELP repro_stage_skew_ratio per-stage machine imbalance: max/mean of stage visits
# TYPE repro_stage_skew_ratio gauge
repro_stage_skew_ratio{stage="0"} 1.125
repro_stage_skew_ratio{stage="1"} 1.1666666666666667
# HELP repro_stages_complete stages this machine has declared COMPLETED
# TYPE repro_stages_complete gauge
repro_stages_complete{machine="0"} 2
repro_stages_complete{machine="1"} 2
repro_stages_complete{machine="2"} 2
# HELP repro_work_messages_sent_total bulk work messages handed to the network
# TYPE repro_work_messages_sent_total counter
repro_work_messages_sent_total{machine="0"} 4
repro_work_messages_sent_total{machine="1"} 4
repro_work_messages_sent_total{machine="2"} 4
# EOF
"""


def test_prometheus_text_is_golden():
    recording = Recording()
    PgxdAsyncEngine(
        uniform_random_graph(24, 72, seed=5), ClusterConfig(num_machines=3)
    ).query(
        "SELECT a, b WHERE (a)-[]->(b), a.value > b.value",
        PlannerOptions(scheduling=SchedulingPolicy.COST),
        ExecutionContext(recording=recording),
    )
    assert recording.prometheus() == GOLDEN_PROMETHEUS


# ----------------------------------------------------------------------
# One name
# ----------------------------------------------------------------------
def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value.lineno


def test_runtime_knows_the_recorder_by_one_name():
    """No identifier in the runtime, cluster or chaos layers is spelled
    like one of the recorders this one replaced (``trace_offset`` and
    ``trace_name`` are other words)."""
    retired = {"trace", "tracer", "telemetry"}
    found = []
    for package in ("runtime", "cluster", "chaos"):
        for path in sorted((SRC_REPRO / package).glob("*.py")):
            tree = ast.parse(path.read_text())
            found.extend(
                "%s:%d %s" % (path.relative_to(SRC_REPRO), line, name)
                for name, line in _identifiers(tree)
                if name.lstrip("_") in retired
            )
    assert found == []
