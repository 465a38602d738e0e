"""TXT2 — recording overhead guard (observability ablation).

A recording is designed to be zero-cost when absent: the runtime holds
``None`` and every instrumentation site (event emission, message
delivery, inbox wait, retransmit accounting, the per-tick sampler hook)
is a single pointer comparison.  This bench runs a FIG6-scale query
unrecorded and recorded, interleaved to cancel out thermal/allocator
drift, and asserts:

* recording never perturbs the simulation — identical ticks, ops and
  rows; and
* the unrecorded path costs < 5% wall time over the recorded run's
  floor (the recorded run pays the full event-allocation and sampling
  price, so unrecorded must be comfortably cheaper): it is the default
  every non-observability benchmark and test pays for.
"""

import time

from repro.context import ExecutionContext
from repro.obs import Recording
from repro.runtime import PgxdAsyncEngine

from .conftest import bench_config, print_table

ROUNDS = 5


def run_recording_overhead_experiment(random_workload):
    graph, queries = random_workload
    query = queries[0]
    engine = PgxdAsyncEngine(graph, bench_config(8))

    def recording():
        return ExecutionContext(recording=Recording())

    # Warm up caches/lazy imports before timing anything.
    baseline = engine.query(query)
    recorded = engine.query(query, context=recording())

    # Recording must not perturb the simulation.
    assert recorded.metrics.ticks == baseline.metrics.ticks
    assert recorded.metrics.total_ops == baseline.metrics.total_ops
    assert sorted(recorded.rows) == sorted(baseline.rows)
    assert len(recorded.recording) > 0
    assert recorded.recording.series.num_samples > 0
    assert baseline.recording is None

    disabled_times, enabled_times = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()  # repro: allow(RPR001) wall-clock overhead measurement is the experiment
        engine.query(query)
        disabled_times.append(time.perf_counter() - start)  # repro: allow(RPR001) wall-clock overhead measurement is the experiment

        start = time.perf_counter()  # repro: allow(RPR001) wall-clock overhead measurement is the experiment
        engine.query(query, context=recording())
        enabled_times.append(time.perf_counter() - start)  # repro: allow(RPR001) wall-clock overhead measurement is the experiment

    disabled = sorted(disabled_times)[ROUNDS // 2]
    enabled = sorted(enabled_times)[ROUNDS // 2]
    print_table(
        "TXT2: recording overhead on a FIG6-scale query (median of %d)"
        % ROUNDS,
        ("mode", "median s", "events", "samples", "vs disabled"),
        [
            ("not recorded", "%.4f" % disabled, 0, 0, "1.00x"),
            ("recorded", "%.4f" % enabled, len(recorded.recording),
             recorded.recording.series.num_samples,
             "%.2fx" % (enabled / disabled)),
        ],
    )
    return disabled, enabled


def test_txt2_recording_overhead(benchmark, random_workload):
    disabled, enabled = benchmark.pedantic(
        run_recording_overhead_experiment, args=(random_workload,),
        rounds=1, iterations=1,
    )
    # The disabled path must be within 5% of the enabled run's cost
    # floor: if the "zero-overhead" checks leaked allocation or work
    # into the disabled path, disabled would approach enabled from
    # below and this margin would vanish.
    assert disabled <= enabled * 1.05
