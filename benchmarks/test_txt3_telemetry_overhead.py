"""TXT3 — telemetry overhead guard (observability ablation, part 2).

Live telemetry follows the tracer's zero-cost-off contract: disabled,
the runtime holds ``None`` and every instrumentation site (message
delivery, inbox wait, retransmit accounting, the per-tick sampler hook)
is one pointer comparison.  This bench runs a FIG6-scale query with
telemetry off and on, interleaved, and asserts:

* telemetry never perturbs the simulation — identical ticks, ops, and
  rows whether the sampler is recording or not; and
* the disabled path stays within 5% of the enabled run's cost (same
  margin as TXT2's tracer guard): if the "off" checks leaked work into
  the hot path, disabled would approach enabled and the margin would
  vanish.
"""

import time

from repro.context import ExecutionContext
from repro.obs import Telemetry
from repro.runtime import PgxdAsyncEngine

from .conftest import bench_config, print_table

ROUNDS = 5


def run_telemetry_overhead_experiment(random_workload):
    graph, queries = random_workload
    query = queries[0]
    engine = PgxdAsyncEngine(graph, bench_config(8))

    def sampling():
        return ExecutionContext(telemetry=Telemetry())

    # Warm up caches/lazy imports before timing anything.
    baseline = engine.query(query)
    sampled = engine.query(query, context=sampling())

    # Telemetry must not perturb the simulation.
    assert sampled.metrics.ticks == baseline.metrics.ticks
    assert sampled.metrics.total_ops == baseline.metrics.total_ops
    assert sorted(sampled.rows) == sorted(baseline.rows)
    assert sampled.telemetry.sampler.num_samples > 0
    assert baseline.telemetry is None

    disabled_times, enabled_times = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()  # repro: allow(RPR001) wall-clock overhead measurement is the experiment
        engine.query(query)
        disabled_times.append(time.perf_counter() - start)  # repro: allow(RPR001) wall-clock overhead measurement is the experiment

        start = time.perf_counter()  # repro: allow(RPR001) wall-clock overhead measurement is the experiment
        engine.query(query, context=sampling())
        enabled_times.append(time.perf_counter() - start)  # repro: allow(RPR001) wall-clock overhead measurement is the experiment

    disabled = sorted(disabled_times)[ROUNDS // 2]
    enabled = sorted(enabled_times)[ROUNDS // 2]
    print_table(
        "TXT3: telemetry overhead on a FIG6-scale query (median of %d)"
        % ROUNDS,
        ("mode", "median s", "samples", "vs disabled"),
        [
            ("telemetry disabled", "%.4f" % disabled, 0, "1.00x"),
            ("telemetry enabled", "%.4f" % enabled,
             sampled.telemetry.sampler.num_samples,
             "%.2fx" % (enabled / disabled)),
        ],
    )
    return disabled, enabled


def test_txt3_telemetry_overhead(benchmark, random_workload):
    disabled, enabled = benchmark.pedantic(
        run_telemetry_overhead_experiment, args=(random_workload,),
        rounds=1, iterations=1,
    )
    # The telemetry-off path must cost no more than 5% over the
    # telemetry-on run's floor — the "off" configuration is the default
    # every non-observability benchmark and test pays for.
    assert disabled <= enabled * 1.05
