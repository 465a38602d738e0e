"""TXT4 — stage-profiler overhead guard (observability ablation, part 3).

The runtime charges its five per-machine stage counters whether or not
a profile was asked for — there is one kernel variant and no profiler
handle on the hot path — so ``PlannerOptions(profile=True)`` only adds
the finalize-time read-out: a :class:`StageProfiler` absorbing each
machine's counter lists.  This bench runs a FIG6-scale query with
profiling off and on, interleaved, and asserts:

* asking for a profile never perturbs the simulation — identical ticks,
  ops, and rows either way; and
* the read-out stays within 5% of the run's cost (the same margin as
  TXT2/TXT3).  What the counters themselves cost is a host-time question
  for the ledger (``python3 -m ledger``), not for this guard.
"""

import time

from repro.plan import PlannerOptions
from repro.runtime import PgxdAsyncEngine

from .conftest import bench_config, print_table

ROUNDS = 5


def run_profile_overhead_experiment(random_workload):
    graph, queries = random_workload
    query = queries[0]
    engine = PgxdAsyncEngine(graph, bench_config(8))
    profile_options = PlannerOptions(profile=True)

    # Warm up caches/lazy imports (the bulk kernels compile here)
    # before timing anything.
    baseline = engine.query(query)
    profiled = engine.query(query, options=profile_options)

    # Profiling must not perturb the simulation.
    assert profiled.metrics.ticks == baseline.metrics.ticks
    assert profiled.metrics.total_ops == baseline.metrics.total_ops
    assert sorted(profiled.rows) == sorted(baseline.rows)
    assert baseline.profiler is None
    totals = profiled.profiler.stage_totals()
    assert totals[-1]["emitted"] == len(profiled.rows)

    disabled_times, enabled_times = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()  # repro: allow(RPR001) wall-clock overhead measurement is the experiment
        engine.query(query)
        disabled_times.append(time.perf_counter() - start)  # repro: allow(RPR001) wall-clock overhead measurement is the experiment

        start = time.perf_counter()  # repro: allow(RPR001) wall-clock overhead measurement is the experiment
        engine.query(query, options=profile_options)
        enabled_times.append(time.perf_counter() - start)  # repro: allow(RPR001) wall-clock overhead measurement is the experiment

    disabled = sorted(disabled_times)[ROUNDS // 2]
    enabled = sorted(enabled_times)[ROUNDS // 2]
    print_table(
        "TXT4: stage-profiler overhead on a FIG6-scale query (median of %d)"
        % ROUNDS,
        ("mode", "median s", "scanned", "vs disabled"),
        [
            ("profiling disabled", "%.4f" % disabled, 0, "1.00x"),
            ("profiling enabled", "%.4f" % enabled,
             sum(entry["scanned"] for entry in totals),
             "%.2fx" % (enabled / disabled)),
        ],
    )
    return disabled, enabled


def test_txt4_profile_overhead(benchmark, random_workload):
    disabled, enabled = benchmark.pedantic(
        run_profile_overhead_experiment, args=(random_workload,),
        rounds=1, iterations=1,
    )
    # Reading the counters out at finalize time must cost no more than
    # 5% of the run.
    assert enabled <= disabled * 1.05
