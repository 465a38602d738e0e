"""Open-loop traffic generation against a :class:`QueryService`.

The bench matrix measures one query at a time; a *service* is measured
under load.  This module drives a seeded open-loop arrival process
(arrivals do not wait for completions — the defining property of an
open-loop generator) against one shared deployment and reports what a
production graph-query service would: latency percentiles (p50/p95/p99
in global service ticks), achieved throughput, peak concurrency, and a
saturation curve — the same workload swept across offered loads, showing
latency exploding as the arrival rate crosses the service capacity.

Everything is a pure function of the seed: interarrival gaps come from
a ``random.Random(seed)`` stream, the query mix from the seeded random
pattern suite, and the service's stride scheduler is deterministic.
Re-running a sweep reproduces it bit for bit, which is what lets CI
gate serial-vs-concurrent parity on row identity.
"""

import random
from dataclasses import dataclass, field

from repro.engine_api import QueryStatus
from repro.service.service import QueryService, ServiceConfig
from repro.workloads.random_graphs import random_query_suite


@dataclass
class TrafficConfig:
    """One open-loop run: arrival process, mix, and admission policy."""

    #: Number of query arrivals to generate.
    arrivals: int = 12
    #: Mean interarrival gap in global service ticks (exponential).
    mean_interarrival: int = 64
    #: Seed for the arrival process and the default query mix.
    seed: int = 0
    #: Admission slots of the service under test.
    slots: int = 8
    #: Per-scope flow window (None: carve evenly across the slots).
    scope_window: int = None
    #: Edges per generated pattern query.
    query_edges: int = 3
    #: Distinct generated queries to cycle through.
    distinct_queries: int = 4
    #: Per-query deadline in virtual ticks (None: none).
    deadline: int = None


@dataclass
class TrafficReport:
    """Outcome of one traffic run."""

    arrivals: int = 0
    completed: int = 0
    aborted: int = 0
    cancelled: int = 0
    total_ticks: int = 0
    peak_active: int = 0
    mean_interarrival: int = 0
    #: Sorted submit-to-done latencies (global ticks) of DONE queries.
    latencies: list = field(default_factory=list)
    #: Per-query records from :meth:`QueryService.stats`.
    records: list = field(default_factory=list)
    #: The service driven by the run (its scopes, ``stats()``).
    service: object = None

    def percentile(self, p):
        """Nearest-rank percentile of the DONE latencies (None if none)."""
        return percentile(self.latencies, p)

    @property
    def throughput_per_kilotick(self):
        """Completed queries per 1000 global ticks."""
        if not self.total_ticks:
            return 0.0
        return 1000.0 * self.completed / self.total_ticks

    def summary(self):
        parts = [
            "arrivals=%d completed=%d aborted=%d cancelled=%d"
            % (self.arrivals, self.completed, self.aborted, self.cancelled),
            "ticks=%d peak_active=%d" % (self.total_ticks, self.peak_active),
        ]
        if self.latencies:
            parts.append(
                "latency p50=%d p95=%d p99=%d"
                % (
                    self.percentile(50),
                    self.percentile(95),
                    self.percentile(99),
                )
            )
            parts.append(
                "throughput=%.2f done/kilotick" % self.throughput_per_kilotick
            )
        return "  ".join(parts)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (None when empty)."""
    if not sorted_values:
        return None
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil without floats
    return sorted_values[int(rank) - 1]


def arrival_schedule(traffic):
    """The deterministic arrival ticks of *traffic* (ascending)."""
    rng = random.Random(traffic.seed)
    ticks = []
    now = 0
    for _ in range(traffic.arrivals):
        gap = max(1, round(rng.expovariate(
            1.0 / max(1, traffic.mean_interarrival)
        )))
        now += gap
        ticks.append(now)
    return ticks


def query_mix(traffic):
    """The query texts cycled over arrivals: a seeded random suite."""
    return random_query_suite(
        num_queries=traffic.distinct_queries,
        num_edges=traffic.query_edges,
        seed=traffic.seed,
    )


def run_traffic(engine, traffic=None, service_config=None):
    """Drive one open-loop run against a fresh service on *engine*.

    Arrivals are submitted at their scheduled global ticks; between
    arrivals the service issues scheduling grants, and when it goes
    idle before the next arrival the global clock fast-forwards to it
    (open loop: the arrival process never waits for the service).
    """
    traffic = traffic or TrafficConfig()
    if service_config is None:
        service_config = ServiceConfig(
            max_concurrent=traffic.slots,
            scope_window=traffic.scope_window,
        )
    service = QueryService(engine, service_config)
    schedule = arrival_schedule(traffic)
    mix = query_mix(traffic)
    handles = []
    pending = list(enumerate(schedule))
    cursor = 0
    while cursor < len(pending) or not service.idle:
        while cursor < len(pending) and pending[cursor][1] <= service.now:
            index, _tick = pending[cursor]
            handles.append(service.submit(
                mix[index % len(mix)], deadline=traffic.deadline,
            ))
            cursor += 1
        if not service.step():
            if cursor >= len(pending):
                break
            # Idle gap: fast-forward the global clock to the next arrival.
            service.now = pending[cursor][1]
    return _report(traffic, service, handles)


def _report(traffic, service, handles):
    report = TrafficReport(
        arrivals=len(handles),
        total_ticks=service.now,
        peak_active=service.peak_active,
        mean_interarrival=traffic.mean_interarrival,
        records=service.stats(),
        service=service,
    )
    latencies = []
    for handle in handles:
        scope = service.scope(handle.query_id)
        if handle.status is QueryStatus.DONE:
            report.completed += 1
            latencies.append(scope.latency)
        elif handle.status is QueryStatus.CANCELLED:
            report.cancelled += 1
        else:
            report.aborted += 1
    report.latencies = sorted(latencies)
    return report


def saturation_sweep(engine, traffic=None, gaps=(256, 128, 64, 32, 16)):
    """The same workload swept across offered loads (descending gaps).

    Returns ``(gap, TrafficReport)`` pairs — the saturation curve: as
    the mean interarrival gap shrinks below the service's capacity,
    queueing dominates and the latency percentiles climb.
    """
    traffic = traffic or TrafficConfig()
    curve = []
    for gap in gaps:
        from dataclasses import replace

        point = replace(traffic, mean_interarrival=gap)
        curve.append((gap, run_traffic(engine, point)))
    return curve


def verify_serial_parity(engine, traffic=None):
    """Run the arrivals concurrently and serially; compare per query.

    The serial run uses one admission slot with the *same* per-scope
    flow window the concurrent service resolved, so each scope's
    virtual execution must be bit-identical: same rows in the same
    order, same deterministic metrics.  Returns ``(concurrent, serial,
    mismatches)`` — the two runs' :class:`TrafficReport` objects and a
    list of per-query differences, empty when the parity gate passes.
    """
    traffic = traffic or TrafficConfig()
    concurrent = run_traffic(engine, traffic)
    resolved_window = (
        concurrent.service.scope_config.flow_control_window
    )
    from dataclasses import replace

    serial_traffic = replace(
        traffic, slots=1, scope_window=resolved_window
    )
    serial = run_traffic(engine, serial_traffic)
    mismatches = []
    con_scopes = concurrent.service
    ser_scopes = serial.service
    for record in concurrent.records:
        query_id = record["query_id"]
        a = con_scopes.scope(query_id)
        b = ser_scopes.scope(query_id)
        if a.status is not b.status:
            mismatches.append(
                "%s: status %s (concurrent) != %s (serial)"
                % (query_id, a.status.value, b.status.value)
            )
            continue
        if a.result is None or b.result is None:
            continue
        if a.result.rows != b.result.rows:
            mismatches.append(
                "%s: %d rows (concurrent) != %d rows (serial) or order "
                "differs"
                % (query_id, len(a.result.rows), len(b.result.rows))
            )
        for metric in ("ticks", "total_ops", "num_results",
                       "work_messages", "contexts_shipped",
                       "peak_buffered_contexts"):
            mine = getattr(a.result.metrics, metric)
            theirs = getattr(b.result.metrics, metric)
            if mine != theirs:
                mismatches.append(
                    "%s: %s %r (concurrent) != %r (serial)"
                    % (query_id, metric, mine, theirs)
                )
    return concurrent, serial, mismatches
