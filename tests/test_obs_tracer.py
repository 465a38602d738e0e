"""Tests for the event stream and profile of a recording (repro.obs)."""

import json

import pytest

from repro import ClusterConfig, ExecutionContext, uniform_random_graph
from repro.graph import DistributedGraph, power_law_graph
from repro.obs import EVENT_KINDS, Recording
from repro.runtime import PgxdAsyncEngine

QUERY = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.value > 2000"


def traced(**settings):
    """A run context with a recording of its own."""
    return ExecutionContext(recording=Recording(**settings))


@pytest.fixture(scope="module")
def traced_result():
    graph = uniform_random_graph(200, 1_000, seed=2, num_types=4)
    engine = PgxdAsyncEngine(
        graph,
        ClusterConfig(num_machines=4, flow_control_window=1,
                      bulk_message_size=4),
    )
    return engine.query(QUERY, context=traced())


class TestTracerBasics:
    def test_trace_none_by_default(self, random_graph):
        engine = PgxdAsyncEngine(random_graph, ClusterConfig(num_machines=2))
        result = engine.query("SELECT a WHERE (a)-[]->(b)")
        assert result.recording is None

    def test_traced_query_yields_many_event_kinds(self, traced_result):
        kinds = traced_result.recording.kinds()
        assert kinds <= set(EVENT_KINDS)
        # The acceptance bar: at least 6 distinct typed events.
        assert len(kinds) >= 6
        for expected in ("worker_span", "message_send",
                         "message_deliver", "stage_completed", "result"):
            assert expected in kinds

    def test_tracing_does_not_perturb_execution(self, random_graph):
        # The one recorded-vs-None differential: a recording observes
        # the run and changes nothing it reports (QueryMetrics equality
        # covers every field of every machine's MachineMetrics).
        config = ClusterConfig(num_machines=3, flow_control_window=1,
                               bulk_message_size=4)
        for query in ("SELECT a, b WHERE (a)-[]->(b), a.value > b.value",
                      "SELECT a, b WHERE (a)-/{1,2}/->(b)"):
            plain = PgxdAsyncEngine(random_graph, config).query(query)
            recorded = PgxdAsyncEngine(random_graph, config).query(
                query, context=traced(interval=3)
            )
            assert recorded.metrics == plain.metrics
            assert recorded.rows == plain.rows
            assert recorded.stage_profile == plain.stage_profile

    def test_event_ticks_nondecreasing(self, traced_result):
        ticks = [event.tick for event in traced_result.recording]
        assert ticks == sorted(ticks)

    def test_counts_and_events_of(self, traced_result):
        recording = traced_result.recording
        counts = recording.counts()
        assert sum(counts.values()) == len(recording)
        spans = recording.events_of("worker_span")
        assert spans and all(event.kind == "worker_span" for event in spans)

    def test_event_to_dict_and_repr(self, traced_result):
        event = traced_result.recording.events_of("worker_span")[0]
        record = event.to_dict()
        assert record["kind"] == "worker_span"
        assert {"tick", "machine", "worker", "stage", "ops"} <= set(record)
        assert "WorkerSpan" in repr(event)

    def test_max_events_cap(self, random_graph):
        engine = PgxdAsyncEngine(random_graph, ClusterConfig(num_machines=2))
        result = engine.query("SELECT a, b WHERE (a)-[]->(b)",
                              context=traced(max_events=50))
        assert len(result.recording) == 50
        assert result.recording.dropped > 0

    def test_flow_control_block_events_under_pressure(self, traced_result):
        kinds = traced_result.recording.kinds()
        assert "flow_block" in kinds
        assert "flow_unblock" in kinds
        blocks = traced_result.recording.events_of("flow_block")
        assert traced_result.metrics.flow_control_blocks == len(blocks)

    def test_stage_completed_once_per_machine_per_stage(self, traced_result):
        events = traced_result.recording.events_of("stage_completed")
        seen = {(event.machine, event.stage) for event in events}
        assert len(seen) == len(events)
        meta = traced_result.recording.meta
        assert len(events) == meta["num_machines"] * meta["num_stages"]

    def test_ghost_prune_events(self):
        graph = power_law_graph(200, 1_600, seed=19, num_types=4)
        dist = DistributedGraph.create(graph, 3, ghost_threshold=50)
        engine = PgxdAsyncEngine(dist, ClusterConfig(num_machines=3))
        result = engine.query(
            "SELECT a, b WHERE (a)-[]->(b WITH type = 1)",
            context=traced(),
        )
        prunes = result.recording.events_of("ghost_prune")
        assert len(prunes) == result.metrics.ghost_prunes
        assert result.metrics.ghost_prunes > 0


class TestProfile:
    def test_stage_stats_shape(self, traced_result):
        profile = traced_result.recording.profile()
        assert profile.num_stages == traced_result.plan.num_stages
        for stage in range(profile.num_stages):
            stats = profile.stage_stats(stage)
            assert stats["blocked_ticks"] >= 0
            assert stats["completed_at"] is not None

    def test_first_result_and_utilization(self, traced_result):
        profile = traced_result.recording.profile()
        assert profile.first_result_tick is not None
        assert profile.first_result_tick <= traced_result.metrics.ticks
        for machine in range(traced_result.metrics.num_machines):
            utilization = profile.worker_utilization(machine)
            assert 0.0 <= utilization <= 1.0
            assert profile.peak_buffered(machine) >= 0

    def test_machine_series_tracks_every_machine(self, traced_result):
        series = traced_result.recording.profile().series
        assert series is traced_result.recording.series
        assert set(series.machines) == set(
            range(traced_result.metrics.num_machines)
        )
        for columns in series.machines.values():
            assert len(series.ticks) == len(columns["ops"])
            assert len(series.ticks) == len(columns["buffered"])

    def test_summary_text(self, traced_result):
        text = traced_result.recording.profile().summary()
        assert "time to first result" in text
        assert "machine 0" in text
        assert "stage 0" in text


class TestExport:
    def test_chrome_trace_valid_json(self, traced_result):
        payload = traced_result.recording.to_chrome_json()
        obj = json.loads(payload)
        assert isinstance(obj["traceEvents"], list)
        assert obj["traceEvents"], "chrome trace must not be empty"
        phases = {event["ph"] for event in obj["traceEvents"]}
        assert {"X", "C", "i", "M"} <= phases
        for event in obj["traceEvents"]:
            assert "pid" in event and "name" in event

    def test_chrome_trace_writes_file(self, traced_result, tmp_path):
        path = tmp_path / "trace.json"
        traced_result.recording.to_chrome_json(path)
        obj = json.loads(path.read_text())
        assert obj["otherData"]["num_machines"] == 4

    def test_timeline_renders_every_machine(self, traced_result):
        text = traced_result.recording.timeline(width=40)
        for machine in range(traced_result.metrics.num_machines):
            assert "m%d" % machine in text

    def test_timeline_empty_trace(self):
        assert Recording().timeline() == "(empty recording)"


class TestExplainAnalyzeWithTrace:
    def test_trace_columns_present(self, traced_result):
        text = traced_result.explain_analyze()
        assert "blocked_ticks=" in text
        assert "completed_at=" in text
        assert "time to first result" in text

    def test_plain_result_keeps_old_format(self, random_graph):
        engine = PgxdAsyncEngine(random_graph, ClusterConfig(num_machines=2))
        text = engine.query("SELECT a WHERE (a)-[]->(b)").explain_analyze()
        assert "visits=" in text
        assert "blocked_ticks=" not in text


class TestUnionTrace:
    def test_union_merges_expansion_traces(self, random_graph):
        engine = PgxdAsyncEngine(random_graph, ClusterConfig(num_machines=2))
        result = engine.query(
            "SELECT a, b WHERE (a)-/{1,3}/->(b)",
            context=traced(),
        )
        recording = result.recording
        assert recording is not None
        assert len(recording.kinds()) >= 5
        # The merged timeline spans the summed expansion durations.
        assert recording.meta["ticks"] == result.metrics.ticks
        ticks = [event.tick for event in recording]
        assert ticks == sorted(ticks)
