"""Observability: structured tracing and profiling for query executions.

A recording is asked for on the run's :class:`~repro.context.
ExecutionContext`: the caller builds a :class:`Tracer`, hands it over,
and keeps it.  The engine threads the context through the simulator,
the (chaos) network, the machines with their workers and generated
kernels, and the reliable transport, and returns the tracer as
``QueryResult.trace``::

    tracer = Tracer()
    result = engine.query(pgql, context=ExecutionContext(tracer=tracer))
    result.trace.kinds()                  # distinct event types seen
    result.trace.profile().summary()      # per-stage / per-machine stats
    result.trace.to_chrome_json("trace.json")   # open in chrome://tracing
    print(result.trace.timeline())        # plain-text utilization rows

Without a tracer (the default) the runtime holds ``None`` and every
instrumentation site reduces to one ``is not None`` check — see
``benchmarks/test_txt2_trace_overhead.py``.

Live telemetry is the second pillar: a label-aware
:class:`MetricsRegistry` (counters, gauges, histograms) plus a
:class:`TimeSeriesSampler` recording per-machine series every simulator
tick, asked for the same way and returned as ``QueryResult.telemetry``::

    telemetry = Telemetry()
    result = engine.query(
        pgql, context=ExecutionContext(telemetry=telemetry)
    )
    print(result.telemetry.summary())
    print(result.telemetry.prometheus())       # text exposition format
    series = result.telemetry.sampler.series(0)   # machine 0's curves

Telemetry-off follows the same zero-cost contract as tracing
(``benchmarks/test_txt3_telemetry_overhead.py``).  Being the caller's,
both recorders still hold the run up to its last tick after an abort.
"""

from repro.obs.events import (
    EVENT_KINDS,
    DuplicateFrameDropped,
    FlowBlock,
    FlowUnblock,
    FrameBuffered,
    GhostPrune,
    MachineCrashed,
    MachineResumed,
    MachineStalled,
    MessageDelayed,
    MessageDeliver,
    MessageDropped,
    MessageDuplicated,
    MessageSend,
    QueryAbortedEvent,
    QuotaGranted,
    QuotaRequested,
    ResultEmitted,
    Retransmit,
    StageCompleted,
    TickSample,
    TraceEvent,
    WorkerSpan,
)
from repro.obs.export import chrome_trace, render_timeline
from repro.obs.feedback import (
    ExecutionProfile,
    FeedbackStore,
    MachineStageProfile,
    StageProfiler,
    build_execution_profile,
    publish_drift,
    q_error,
    query_fingerprint,
)
from repro.obs.exporters import (
    parse_prometheus,
    parse_series_csv,
    parse_series_jsonl,
    prometheus_text,
    series_csv,
    series_jsonl,
)
from repro.obs.profile import TraceProfile
from repro.obs.sampler import MACHINE_COLUMNS, TimeSeriesSampler
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Telemetry,
)
from repro.obs.tracer import Tracer

__all__ = [
    "Tracer",
    "TraceProfile",
    "Telemetry",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeriesSampler",
    "MACHINE_COLUMNS",
    "StageProfiler",
    "MachineStageProfile",
    "ExecutionProfile",
    "FeedbackStore",
    "build_execution_profile",
    "publish_drift",
    "q_error",
    "query_fingerprint",
    "prometheus_text",
    "parse_prometheus",
    "series_jsonl",
    "series_csv",
    "parse_series_jsonl",
    "parse_series_csv",
    "TraceEvent",
    "EVENT_KINDS",
    "TickSample",
    "WorkerSpan",
    "MessageSend",
    "MessageDeliver",
    "FlowBlock",
    "FlowUnblock",
    "QuotaRequested",
    "QuotaGranted",
    "StageCompleted",
    "GhostPrune",
    "ResultEmitted",
    "MessageDropped",
    "MessageDuplicated",
    "MessageDelayed",
    "MachineStalled",
    "MachineResumed",
    "MachineCrashed",
    "Retransmit",
    "DuplicateFrameDropped",
    "FrameBuffered",
    "QueryAbortedEvent",
    "chrome_trace",
    "render_timeline",
]
