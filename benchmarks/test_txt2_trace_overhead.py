"""TXT2 — tracing overhead guard (observability ablation).

The tracer is designed to be zero-cost when disabled: the runtime holds
``None`` and every instrumentation site is a single pointer comparison.
This bench runs a FIG6-scale query with the tracer disabled and enabled,
interleaved to cancel out thermal/allocator drift, and asserts:

* tracing never perturbs the simulation — identical ticks and rows; and
* the disabled path costs < 5% wall time over the pre-tracing engine
  (measured as disabled-vs-enabled, where the enabled run pays the full
  event-allocation price, so disabled must be comfortably cheaper).
"""

import time

from repro.context import ExecutionContext
from repro.obs import Tracer
from repro.runtime import PgxdAsyncEngine

from .conftest import bench_config, print_table

ROUNDS = 5


def run_trace_overhead_experiment(random_workload):
    graph, queries = random_workload
    query = queries[0]
    engine = PgxdAsyncEngine(graph, bench_config(8))

    def tracing():
        return ExecutionContext(tracer=Tracer())

    # Warm up caches/lazy imports before timing anything.
    baseline = engine.query(query)
    traced = engine.query(query, context=tracing())

    # Tracing must not perturb the simulation.
    assert traced.metrics.ticks == baseline.metrics.ticks
    assert traced.metrics.total_ops == baseline.metrics.total_ops
    assert sorted(traced.rows) == sorted(baseline.rows)
    assert len(traced.trace) > 0

    disabled_times, enabled_times = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()  # repro: allow(RPR001) wall-clock overhead measurement is the experiment
        engine.query(query)
        disabled_times.append(time.perf_counter() - start)  # repro: allow(RPR001) wall-clock overhead measurement is the experiment

        start = time.perf_counter()  # repro: allow(RPR001) wall-clock overhead measurement is the experiment
        engine.query(query, context=tracing())
        enabled_times.append(time.perf_counter() - start)  # repro: allow(RPR001) wall-clock overhead measurement is the experiment

    disabled = sorted(disabled_times)[ROUNDS // 2]
    enabled = sorted(enabled_times)[ROUNDS // 2]
    print_table(
        "TXT2: tracer overhead on a FIG6-scale query (median of %d)" % ROUNDS,
        ("mode", "median s", "events", "vs disabled"),
        [
            ("trace disabled", "%.4f" % disabled, 0, "1.00x"),
            ("trace enabled", "%.4f" % enabled, len(traced.trace),
             "%.2fx" % (enabled / disabled)),
        ],
    )
    return disabled, enabled


def test_txt2_trace_overhead(benchmark, random_workload):
    disabled, enabled = benchmark.pedantic(
        run_trace_overhead_experiment, args=(random_workload,),
        rounds=1, iterations=1,
    )
    # The disabled path must be within 5% of the enabled run's cost
    # floor: if the "zero-overhead" checks leaked allocation or work
    # into the disabled path, disabled would approach enabled from
    # below and this margin would vanish.
    assert disabled <= enabled * 1.05
