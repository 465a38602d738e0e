"""One recording per run: its channels agree, it says when it is
truncated, its utilisation counts every tick, and the runtime knows it
by one name.

The event stream, the per-tick series and the registry of a
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
