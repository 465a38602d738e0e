"""A recording's metrics: registry semantics, sampling, exporters,
acceptance.

Covers label-aware metric families with
Prometheus ``le`` bucket semantics, the per-tick time-series sampler's
determinism and its bounded-memory acceptance property
(``max(buffered_max) == QueryMetrics.peak_buffered_contexts <= budget``),
exporter round-trips, union-seam merging, and the abort diagnostics the
flow-control gauges feed.
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import QueryAborted, TelemetryError
from repro.graph import uniform_random_graph
from repro.obs import (
    MACHINE_COLUMNS,
    MetricsRegistry,
    Recording,
    parse_prometheus,
    parse_series_csv,
    parse_series_jsonl,
    prometheus_text,
    series_csv,
    series_jsonl,
)
from repro.context import ExecutionContext
from repro.runtime import PgxdAsyncEngine

QUERY = "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"


def run_telemetry_query(machines=4, seed=0, interval=1, query=QUERY,
                        vertices=150, edges=600, **config_kwargs):
    graph = uniform_random_graph(vertices, edges, seed=seed)
    config = ClusterConfig(num_machines=machines, seed=seed,
                           **config_kwargs)
    engine = PgxdAsyncEngine(graph, config)
    return engine.query(query, context=ExecutionContext(
        recording=Recording(interval=interval)
    ))


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.get() == 5
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_gauge_up_and_down(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(3)
        gauge.dec()
        assert gauge.get() == 12

    def test_invalid_metric_name(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("9bad-name")


class TestLabels:
    def test_children_per_labelset(self):
        registry = MetricsRegistry()
        family = registry.counter("msgs_total", labels=("machine",))
        family.labels(0).inc()
        family.labels("0").inc()  # stringified: same child
        family.labels(1).inc(5)
        assert family.labels(0).get() == 2
        assert family.labels(1).get() == 5
        assert [values for values, _ in family.children()] == [
            ("0",), ("1",)
        ]

    def test_labels_by_keyword(self):
        registry = MetricsRegistry()
        family = registry.gauge("g", labels=("machine", "stage"))
        family.labels(machine=1, stage=2).set(7)
        assert family.labels(1, 2).get() == 7

    def test_wrong_label_count_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labels=("machine",))
        with pytest.raises(TelemetryError):
            family.labels(1, 2)
        with pytest.raises(TelemetryError):
            family.labels(stage=1)

    def test_labelled_family_rejects_direct_use(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labels=("machine",))
        with pytest.raises(TelemetryError):
            family.inc()

    def test_redeclare_same_signature_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", labels=("machine",))
        again = registry.counter("c_total", labels=("machine",))
        assert first is again

    def test_conflicting_redeclare_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TelemetryError):
            registry.gauge("m")
        registry.histogram("h", buckets=(1, 2))
        with pytest.raises(TelemetryError):
            registry.histogram("h", buckets=(1, 2, 3))


class TestHistogramBuckets:
    def test_le_semantics_at_the_edges(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1, 2, 4))
        # A value exactly on a bound belongs to that bound's bucket
        # (Prometheus "le" semantics); one past the last bound overflows.
        for value in (0, 1, 2, 3, 4, 5, 100):
            histogram.observe(value)
        child = histogram._sole_child()
        assert child.counts == [2, 1, 2, 2]  # <=1, <=2, <=4, +Inf
        assert child.count == 7
        assert child.sum == 115

    def test_cumulative_ends_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1, 2))
        histogram.observe(0)
        histogram.observe(9)
        cumulative = histogram._sole_child().cumulative()
        assert cumulative == [(1, 1), (2, 1), (float("inf"), 2)]

    def test_bucketless_histogram_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().histogram("h", buckets=())


class TestMerge:
    def test_counters_add_gauges_take_later_value(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("c_total").inc(3)
        second.counter("c_total").inc(4)
        first.gauge("g").set(10)
        second.gauge("g").set(2)
        first.merge(second)
        assert first.get("c_total").get() == 7
        assert first.get("g").get() == 2

    def test_histograms_add_bucketwise(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("h", buckets=(1, 2)).observe(1)
        second.histogram("h", buckets=(1, 2)).observe(5)
        first.merge(second)
        child = first.get("h")._sole_child()
        assert child.counts == [1, 0, 1]
        assert child.count == 2

    def test_mismatched_bounds_rejected(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("h", buckets=(1, 2)).observe(1)
        second.histogram("h", buckets=(1, 4)).observe(1)
        with pytest.raises(TelemetryError):
            first.merge(second)

    def test_merge_imports_missing_families(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        second.counter("only_there_total", labels=("machine",)) \
            .labels(3).inc(9)
        first.merge(second)
        assert first.get("only_there_total").labels(3).get() == 9


# ----------------------------------------------------------------------
# Exporter round-trips
# ----------------------------------------------------------------------
class TestExporters:
    def build_registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", "ops", labels=("machine",)) \
            .labels(0).inc(42)
        registry.get("repro_ops_total").labels(1).inc(7)
        registry.gauge("repro_budget", "budget").set(960)
        histogram = registry.histogram(
            "repro_latency_ticks", "latency", buckets=(1, 2, 4)
        )
        for value in (0, 1, 3, 9):
            histogram.observe(value)
        return registry

    def test_prometheus_round_trip(self):
        registry = self.build_registry()
        text = prometheus_text(registry)
        parsed = parse_prometheus(text)
        assert parsed[("repro_ops_total", frozenset({("machine", "0")}))] \
            == 42
        assert parsed[("repro_budget", frozenset())] == 960
        # le buckets are cumulative and end with +Inf.
        assert parsed[(
            "repro_latency_ticks_bucket", frozenset({("le", "4")})
        )] == 3
        assert parsed[(
            "repro_latency_ticks_bucket", frozenset({("le", "+Inf")})
        )] == 4
        assert parsed[("repro_latency_ticks_count", frozenset())] == 4
        # Every sample the registry flattens appears in the text.
        assert len(parsed) == len(registry.samples())

    def test_prometheus_headers(self):
        text = prometheus_text(self.build_registry())
        assert "# TYPE repro_ops_total counter" in text
        assert "# TYPE repro_latency_ticks histogram" in text
        assert "# HELP repro_budget budget" in text

    def test_series_round_trip(self):
        result = run_telemetry_query()
        sampler = result.recording.series
        meta, rows = parse_series_jsonl(series_jsonl(sampler))
        assert meta["samples"] == sampler.num_samples
        assert meta["columns"] == list(MACHINE_COLUMNS)
        assert meta["budget"] == sampler.budget
        assert len(rows) == sampler.num_samples * len(sampler.machines)
        # CSV carries the identical rows with identical types.
        assert parse_series_csv(series_csv(sampler)) == rows
        # Spot-check one row against the in-memory series.
        row = rows[0]
        series = sampler.series(row["machine"])
        index = series["ticks"].index(row["tick"])
        assert row["buffered"] == series["buffered"][index]


# ----------------------------------------------------------------------
# End-to-end acceptance
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_off_by_default(self):
        graph = uniform_random_graph(60, 240, seed=0)
        engine = PgxdAsyncEngine(graph, ClusterConfig(num_machines=2))
        assert engine.query(QUERY).recording is None

    def test_per_query_opt_in(self):
        graph = uniform_random_graph(60, 240, seed=0)
        engine = PgxdAsyncEngine(graph, ClusterConfig(num_machines=2))
        recording = Recording()
        result = engine.query(
            QUERY, context=ExecutionContext(recording=recording)
        )
        assert result.recording is recording
        assert recording.series.num_samples > 0

    def test_peak_matches_series_and_stays_under_budget(self):
        result = run_telemetry_query()
        sampler = result.recording.series
        # The acceptance property: the recorded curve's high-water mark
        # IS the metrics' peak, and it never exceeds the budget.
        assert sampler.peak("buffered_max") \
            == result.metrics.peak_buffered_contexts
        assert sampler.peak("buffered_max") <= sampler.budget
        assert sampler.budget > 0

    def test_peak_matches_with_sparse_sampling(self):
        result = run_telemetry_query(interval=7)
        sampler = result.recording.series
        assert sampler.peak("buffered_max") \
            == result.metrics.peak_buffered_contexts
        # Sparse sampling really sampled less.
        assert sampler.num_samples < result.metrics.ticks

    def test_series_is_deterministic(self):
        first = run_telemetry_query(seed=3)
        second = run_telemetry_query(seed=3)
        s1, s2 = first.recording.series, second.recording.series
        assert s1.ticks == s2.ticks
        assert s1.machines == s2.machines
        assert s1.wavefront == s2.wavefront
        assert first.recording.prometheus() \
            == second.recording.prometheus()

    def test_mirrored_counters_match_query_metrics(self):
        result = run_telemetry_query()
        registry = result.recording.registry
        total_ops = sum(
            child.get()
            for _values, child in registry.get("repro_ops_total").children()
        )
        assert total_ops == result.metrics.total_ops
        results_emitted = sum(
            child.get()
            for _values, child in
            registry.get("repro_results_emitted_total").children()
        )
        assert results_emitted == result.metrics.num_results

    def test_message_latency_histogram_populated(self):
        result = run_telemetry_query()
        latency = result.recording.message_latency._sole_child()
        assert latency.count > 0
        # Transit time can never be negative in the simulator.
        assert latency.sum >= latency.count  # latency >= 1 tick each

    def test_wavefront_ends_fully_complete(self):
        result = run_telemetry_query()
        sampler = result.recording.series
        final = sampler.wavefront[-1]
        assert len(final) == result.plan.num_stages
        assert all(done == result.metrics.num_machines for done in final)

    def test_meta_and_summary(self):
        result = run_telemetry_query()
        recording = result.recording
        assert recording.meta["ticks"] == result.metrics.ticks
        assert recording.meta["num_machines"] == 4
        summary = recording.summary()
        assert "samples=%d" % recording.series.num_samples in summary
        assert "peak_buffered=" in summary

    def test_union_query_merges_telemetry(self):
        result = run_telemetry_query(
            query="SELECT a, b WHERE (a)-/{1,2}/->(b)",
            vertices=60, edges=240, machines=2,
        )
        recording = result.recording
        assert recording is not None
        # Ticks accumulate across the expansions, and the series'
        # acceptance property still holds through the merge.
        assert recording.meta["ticks"] == result.metrics.ticks
        assert recording.series.peak("buffered_max") \
            == result.metrics.peak_buffered_contexts


class TestAbortDiagnostics:
    def test_deadline_abort_carries_flow_state(self):
        graph = uniform_random_graph(200, 800, seed=0)
        engine = PgxdAsyncEngine(
            graph, ClusterConfig(num_machines=4, seed=0)
        )
        with pytest.raises(QueryAborted) as aborted:
            engine.query(QUERY, context=ExecutionContext(deadline=3))
        state = aborted.value.flow_state
        assert state is not None and len(state) == 4
        for machine_id, entry in enumerate(state):
            assert entry["machine"] == machine_id
            assert entry["inflight_total"] >= 0
            assert entry["buffered_contexts"] >= 0
            assert isinstance(entry["occupancy"], dict)
        # Mid-flight state: something was buffered or in flight.
        assert any(
            entry["buffered_contexts"] or entry["occupancy"]
            for entry in state
        )
        assert "flow: machine 0:" in str(aborted.value)
        assert "flow:" not in aborted.value.detail

    def test_abort_flushes_partial_series(self):
        graph = uniform_random_graph(200, 800, seed=0)
        engine = PgxdAsyncEngine(
            graph, ClusterConfig(num_machines=4, seed=0)
        )
        recording = Recording()
        with pytest.raises(QueryAborted):
            engine.query(QUERY, context=ExecutionContext(
                recording=recording, deadline=5
            ))
        # The caller owns the recorder, so the samples up to the abort —
        # the ones a timeout investigation wants — survive it.
        assert recording.series.ticks[-1] == recording.meta["ticks"] == 5
        assert "deadline" in recording.meta["aborted"]


class TestTraceDroppedWarning:
    def test_explain_analyze_and_profile_warn_on_truncation(self):
        graph = uniform_random_graph(150, 600, seed=0)
        engine = PgxdAsyncEngine(
            graph, ClusterConfig(num_machines=4, seed=0)
        )
        result = engine.query(QUERY, context=ExecutionContext(
            recording=Recording(max_events=50)
        ))
        assert result.recording.dropped > 0
        assert "WARNING: recording truncated" in result.explain_analyze()
        assert "WARNING: recording truncated" \
            in result.recording.profile().summary()

    def test_no_warning_when_nothing_dropped(self):
        graph = uniform_random_graph(60, 240, seed=0)
        engine = PgxdAsyncEngine(graph, ClusterConfig(num_machines=2))
        result = engine.query(
            QUERY, context=ExecutionContext(recording=Recording())
        )
        assert result.recording.dropped == 0
        assert "WARNING" not in result.explain_analyze()
        assert "WARNING" not in result.recording.profile().summary()
