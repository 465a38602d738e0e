"""Observability: one recording per run.

A recording is asked for on the run's :class:`~repro.context.
ExecutionContext`: the caller builds a :class:`Recording`, hands it
over, and keeps it.  The engine threads the context through the
simulator, the (chaos) network, the machines with their workers and
generated kernels, and the reliable transport, and returns the same
object as ``QueryResult.recording``::

    recording = Recording()
    result = engine.query(pgql, context=ExecutionContext(recording=recording))
    recording.kinds()                     # distinct event types seen
    recording.profile().summary()         # per-stage / per-machine stats
    recording.to_chrome_json("trace.json")    # open in chrome://tracing
    print(recording.timeline())           # plain-text utilization rows
    print(recording.summary())
    print(recording.prometheus())         # text exposition, rendered
                                          # from the recording on demand
    series = recording.series.series(0)   # machine 0's per-tick curves

Without one (the default) the runtime holds ``None`` and every
instrumentation site reduces to one ``is not None`` check — see
``benchmarks/test_txt2_recording_overhead.py``.  Being the caller's, a
recording still holds the run up to its last tick after an abort.
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
    TraceEvent,
    WorkerSpan,
)
from repro.obs.export import (
    chrome_trace,
    parse_prometheus,
    parse_series_jsonl,
    prometheus_text,
    render_timeline,
    series_jsonl,
)
from repro.obs.feedback import (
    ExecutionProfile,
    FeedbackStore,
    build_execution_profile,
    q_error,
    query_fingerprint,
)
from repro.obs.profile import TraceProfile
from repro.obs.recording import Recording
from repro.obs.sampler import MACHINE_COLUMNS, TimeSeriesSampler

__all__ = [
    "Recording",
    "TraceProfile",
    "TimeSeriesSampler",
    "MACHINE_COLUMNS",
    "ExecutionProfile",
    "FeedbackStore",
    "build_execution_profile",
    "q_error",
    "query_fingerprint",
    "prometheus_text",
    "parse_prometheus",
    "series_jsonl",
    "parse_series_jsonl",
    "TraceEvent",
    "EVENT_KINDS",
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
