"""One measuring child: one workload, untraced or traced, then verify.

Run by ``ledger.__main__`` in a fresh process (``PYTHONHASHSEED=0``, one
thread).  Prints one JSON object on its last line of standard output;
exits non-zero, printing nothing, if an exact count differs between
passes or a wrapped attribute is not restored.
"""

import gc
import json
import resource
import sys
import time
import tracemalloc

from repro.service.traffic import percentile

from ledger import stats, trace, verify
from ledger.workloads import WORKLOADS

#: From-scratch set-ups per untraced run, at least; they repeat until a
#: fifth of ``--seconds`` has gone by, because a 0.2 s set-up repeated five
#: times sees one second of host noise and its median flips between modes.
SETUP_REPEATS = 5
#: Timed passes per untraced run, at least.
MIN_PASSES = 5

_clock = time.perf_counter


def pass_metrics(durations, intervals):
    """The per-pass end-to-end timings of one slot list."""
    latencies = sorted(stats.interval_sums(durations, intervals))
    return {
        "wall_s": sum(durations),
        "query_p50_ms": 1e3 * percentile(latencies, 50),
        "query_p95_ms": 1e3 * percentile(latencies, 95),
    }


def _timed_pass(workload, setup, seed):
    gc.collect()
    return workload.run_pass(setup, seed)


def _verified(setup, labelled_records):
    """``(attempted, failed)`` after the exact-count invariants held."""
    verify.assert_identical(labelled_records)
    reference = verify.reference_digests(setup)
    return verify.count_failures(
        [record for _label, record in labelled_records], reference
    )


def run_untraced(workload, seed, seconds, size):
    setup_seconds = []
    started = _clock()
    while (len(setup_seconds) < SETUP_REPEATS
           or _clock() - started < seconds / 5.0):
        setup = None  # drop the previous deployment before rebuilding
        gc.collect()
        setup = workload.setup(size)
        setup_seconds.append(setup.seconds["total"])

    records = [("warm-up", workload.run_pass(setup, seed))]
    started = _clock()
    while len(records) <= MIN_PASSES or _clock() - started < seconds:
        records.append(
            ("timed-%d" % len(records), _timed_pass(workload, setup, seed))
        )
    peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    attempted, failed = _verified(setup, records)
    timed = [record for _label, record in records[1:]]
    intervals = timed[0].intervals
    floor = stats.floor_durations([record.durations for record in timed])
    return {
        "setup_s": setup_seconds,
        "passes": [
            pass_metrics(record.durations, intervals) for record in timed
        ],
        "floor": pass_metrics(floor, intervals),
        "queries_per_pass": len(intervals),
        "peak_rss_mb": peak_rss_mb,
        "exact": timed[0].exact,
        "attempted": attempted,
        "failed": failed,
    }


def run_traced(workload, seed, size):
    setup = workload.setup(size)
    # The warm-up pass doubles as the memory pass: tracemalloc slows a
    # pass about fivefold, which no timed pass may pay.
    gc.collect()
    tracemalloc.start()
    try:
        records = [("tracemalloc", workload.run_pass(setup, seed))]
        tracemalloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plain = _timed_pass(workload, setup, seed)
    records.append(("plain", plain))

    tracer = trace.Tracer()
    gc.collect()
    patches = trace.install(tracer)
    try:
        with tracer.span("pass") as pass_span:
            traced = workload.run_pass(setup, seed, tracer)
    finally:
        leftovers = trace.uninstall(patches)
    if leftovers:
        raise verify.ExactMismatch(
            "wrapped attributes not restored: %s" % ", ".join(leftovers)
        )
    records.append(("traced", traced))
    plain_wall = sum(plain.durations)
    traced_wall = pass_span[2] - pass_span[1]

    attempted, failed = _verified(setup, records)
    return {
        "per_layer": per_layer_metrics(
            tracer, setup, traced.exact, plain_wall, traced_wall,
            tracemalloc_peak,
        ),
        "layers": {
            name: {"calls": calls, "busy_s": busy, "self_s": own}
            for name, (calls, busy, own) in sorted(tracer.layers.items())
        },
        "spans": tracer.spans,
        "exact": traced.exact,
        "attempted": attempted,
        "failed": failed,
    }


def _ratio(numerator, denominator, default=0.0):
    return numerator / denominator if denominator else default


def per_layer_metrics(tracer, setup, exact, plain_wall, traced_wall,
                      tracemalloc_peak):
    """Every per-layer metric of BENCHMARK.json as ``name -> (value,
    unit)``.  A layer the workload never enters reports 0 calls, 0 s."""
    busy, own, calls = tracer.busy, tracer.self_time, tracer.calls
    counters = tracer.counters
    flow_names = ("flow.reserve", "flow.on_send", "flow.on_ack_from",
                  "flow.release")
    termination_names = ("termination.newly_completable",
                         "termination.on_completed")
    unattributed = own("pass", "query")
    metrics = {
        "graph.generate_s": (setup.seconds["generate"], "s"),
        "graph.partition_s": (setup.seconds["partition"], "s"),
        "stats.collect_s": (setup.seconds["stats"], "s"),
        "pgql.parse_validate_s": (busy("pgql.parse_validate"), "s"),
        "pgql.calls": (calls("pgql.parse_validate"), "count"),
        "plan.choose_s": (busy("plan.choose"), "s"),
        "plan.logical_s": (busy("plan.logical"), "s"),
        "plan.distributed_s": (busy("plan.distributed"), "s"),
        "plan.execution_s": (busy("plan.execution"), "s"),
        "plan.calls": (calls("plan.execution"), "count"),
        "kernels.compile_s": (busy("kernels.compile"), "s"),
        "kernels.compile_calls": (calls("kernels.compile"), "count"),
        "kernels.run_s": (busy("kernels.run"), "s"),
        "kernels.run_calls": (calls("kernels.run"), "count"),
        "kernels.ops_per_call": (
            _ratio(exact["sim.kernel_ops"], calls("kernels.run")), "ops"),
        "machine.worker_step_s": (own("machine.worker_step"), "s"),
        "machine.worker_step_calls": (
            calls("machine.worker_step"), "count"),
        "machine.idle_step_share": (
            _ratio(counters.get("machine.idle_steps", 0),
                   calls("machine.worker_step")), "ratio"),
        "machine.on_message_s": (busy("machine.on_message"), "s"),
        "machine.on_message_calls": (calls("machine.on_message"), "count"),
        "flow.s": (busy(*flow_names), "s"),
        "flow.reserve_calls": (calls("flow.reserve"), "count"),
        "flow.grant_ratio": (
            _ratio(counters.get("flow.granted", 0),
                   counters.get("flow.asked", 0), default=1.0), "ratio"),
        "termination.s": (busy(*termination_names), "s"),
        "termination.calls": (
            sum(calls(name) for name in termination_names), "count"),
        "network.s": (busy("network.send", "network.deliver_due"), "s"),
        "network.work_messages": (exact["network.work_messages"], "count"),
        "network.contexts_shipped": (
            exact["network.contexts_shipped"], "count"),
        "sim.s": (busy("sim.step"), "s"),
        "sim.self_s": (own("sim.step"), "s"),
        "sim.steps": (calls("sim.step"), "count"),
        "sim.us_per_step": (
            1e6 * _ratio(busy("sim.step"), calls("sim.step")), "us"),
        "sim.ticks": (exact["sim.ticks"], "ticks"),
        "sim.total_ops": (exact["sim.total_ops"], "ops"),
        "sim.peak_buffered_contexts": (
            exact["sim.peak_buffered_contexts"], "count"),
        "sim.ops_per_s": (
            _ratio(exact["sim.total_ops"], plain_wall), "1/s"),
        "engine.prepare_s": (busy("engine.prepare"), "s"),
        "engine.finalize_s": (busy("engine.finalize"), "s"),
        "engine.rows": (exact["engine.rows"], "count"),
        "service.submit_s": (busy("service.submit"), "s"),
        "service.step_s": (busy("service.step"), "s"),
        "service.sched_self_s": (own("service.step"), "s"),
        "mem.tracemalloc_peak_mb": (tracemalloc_peak / 2.0 ** 20, "MB"),
        "trace.overhead_ratio": (_ratio(traced_wall, plain_wall), "ratio"),
        "trace.unattributed_share": (
            _ratio(unattributed, traced_wall), "ratio"),
    }
    for name in ("service.global_ticks", "service.peak_active",
                 "service.latency_p50_ticks", "service.latency_p99_ticks",
                 "service.admission_wait_p50_ticks"):
        unit = "ticks" if name.endswith("_ticks") else "count"
        metrics[name] = (exact.get(name, 0), unit)
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def main(argv=None):
    request = json.loads((argv or sys.argv)[1])
    workload = WORKLOADS[request["workload"]]
    size = "smoke" if request["smoke"] else "full"
    try:
        if request["trace"]:
            result = run_traced(workload, request["seed"], size)
        else:
            result = run_untraced(
                workload, request["seed"], request["seconds"], size
            )
    except verify.ExactMismatch as mismatch:
        sys.exit("ledger: %s: %s" % (workload.name, mismatch))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
