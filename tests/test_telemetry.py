"""A recording's metrics: histograms, sampling, exporters, acceptance.

Covers fixed-bucket histograms with
Prometheus ``le`` bucket semantics, the per-tick time-series sampler's
determinism and its bounded-memory acceptance property
(``max(buffered_max) == QueryMetrics.peak_buffered_contexts <= budget``),
exporter round-trips, union-seam merging, and the abort diagnostics the
flow-control gauges feed.
"""

import re

import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import QueryAborted
from repro.graph import uniform_random_graph
from repro.obs import (
    MACHINE_COLUMNS,
    Recording,
    parse_prometheus,
    parse_series_csv,
    parse_series_jsonl,
    series_csv,
    series_jsonl,
)
from repro.context import ExecutionContext
from repro.obs.recording import Histogram
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


def run_union_query(**kwargs):
    return run_telemetry_query(
        query="SELECT a, b WHERE (a)-/{1,2}/->(b)",
        vertices=60, edges=240, machines=2, **kwargs
    )


def exported_families(text):
    """``{family: [(sample name, labels dict)]}`` of an exposition, each
    sample filed under the ``# TYPE`` line above it."""
    families, current = {}, None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            current = line.split()[2]
            assert current not in families, "family %s twice" % current
            families[current] = []
        elif line and not line.startswith("#"):
            ((name, labels),) = parse_prometheus(line)
            assert name.startswith(current)
            families[current].append((name, dict(labels)))
    return families


# ----------------------------------------------------------------------
# Families, names and labelsets of the export
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_invalid_metric_name(self):
        """Every exported family and label name is a valid Prometheus
        name, and so is every sample derived from one."""
        name_re = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
        label_re = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
        text = run_union_query().recording.prometheus()
        for family, samples in exported_families(text).items():
            assert name_re.match(family)
            for name, labels in samples:
                assert name_re.match(name)
                assert all(label_re.match(label) for label in labels)


class TestLabels:
    def test_children_per_labelset(self):
        """One sample per machine, in label-value string order."""
        recording = run_telemetry_query(machines=12).recording
        families = exported_families(recording.prometheus())
        machines = [labels["machine"]
                    for _name, labels in families["repro_live_frames"]]
        assert machines == sorted(str(m) for m in range(12))
        assert machines[:3] == ["0", "1", "10"]

    def test_wrong_label_count_rejected(self):
        """Each sample carries exactly its family's label (plus ``le``
        on histogram buckets)."""
        text = run_union_query().recording.prometheus()
        for family, samples in exported_families(text).items():
            label_sets = {
                frozenset(labels) - {"le"} for _name, labels in samples
            }
            assert len(label_sets) <= 1, family

    def test_conflicting_redeclare_rejected(self):
        """Every family is declared once, with one HELP and one TYPE."""
        text = run_telemetry_query().recording.prometheus()
        families = exported_families(text)
        for prefix in ("# HELP ", "# TYPE "):
            declared = [line.split()[2] for line in text.splitlines()
                        if line.startswith(prefix)]
            assert declared == sorted(families)


# ----------------------------------------------------------------------
# Histograms and union folds
# ----------------------------------------------------------------------
class TestHistogramBuckets:
    def test_le_semantics_at_the_edges(self):
        histogram = Histogram((1, 2, 4))
        # A value exactly on a bound belongs to that bound's bucket
        # (Prometheus "le" semantics); one past the last bound overflows.
        for value in (0, 1, 2, 3, 4, 5, 100):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 2, 2]  # <=1, <=2, <=4, +Inf
        assert histogram.count == 7
        assert histogram.sum == 115

    def test_cumulative_ends_with_inf(self):
        histogram = Histogram((1, 2), values=(0, 9))
        assert histogram.cumulative() == [(1, 1), (2, 1), (float("inf"), 2)]


class TestMerge:
    def test_counters_add_gauges_take_later_value(self):
        """A union's counters add across its expansions, and its
        end-state gauges are the last expansion's final sample."""
        recording = run_union_query().recording
        parsed = parse_prometheus(recording.prometheus())
        for machine_id, series in recording.series.machines.items():
            label = frozenset({("machine", str(machine_id))})
            assert parsed[("repro_ops_total", label)] == sum(series["ops"])
            assert parsed[("repro_buffered_contexts", label)] \
                == series["buffered"][-1]

    def test_histograms_add_bucketwise(self):
        first = Histogram((1, 2), values=(1,))
        second = Histogram((1, 2), values=(5,))
        assert first.merge(second) is first
        assert first.counts == [1, 0, 1]
        assert first.count == 2
        assert first.sum == 6


# ----------------------------------------------------------------------
# Exporter round-trips
# ----------------------------------------------------------------------
class TestExporters:
    def test_prometheus_round_trip(self):
        recording = run_telemetry_query().recording
        text = recording.prometheus()
        parsed = parse_prometheus(text)
        ops = recording.metrics.per_machine[0].ops
        assert parsed[("repro_ops_total", frozenset({("machine", "0")}))] \
            == ops
        assert parsed[("repro_buffered_contexts_budget", frozenset())] \
            == recording.series.budget
        # le buckets are cumulative and end with +Inf.
        latency = recording.message_latency
        cumulative = dict(latency.cumulative())
        assert parsed[(
            "repro_message_latency_ticks_bucket", frozenset({("le", "8")})
        )] == cumulative[8]
        assert parsed[(
            "repro_message_latency_ticks_bucket",
            frozenset({("le", "+Inf")}),
        )] == latency.count
        assert parsed[("repro_message_latency_ticks_count", frozenset())] \
            == latency.count
        # Every sample line of the text parses to one distinct entry.
        samples = [line for line in text.splitlines()
                   if not line.startswith("#")]
        assert len(parsed) == len(samples)

    def test_prometheus_headers(self):
        text = run_telemetry_query().recording.prometheus()
        assert "# TYPE repro_ops_total counter" in text
        assert "# TYPE repro_message_latency_ticks histogram" in text
        assert "# HELP repro_buffered_contexts_budget configured " \
            "receiver-side context budget" in text

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
        parsed = parse_prometheus(result.recording.prometheus())

        def total(name):
            return sum(value for (metric, _labels), value in parsed.items()
                       if metric == name)

        assert total("repro_ops_total") == result.metrics.total_ops
        assert total("repro_results_emitted_total") \
            == result.metrics.num_results

    def test_message_latency_histogram_populated(self):
        result = run_telemetry_query()
        latency = result.recording.message_latency
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
        result = run_union_query()
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
