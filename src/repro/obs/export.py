"""Exporters of a :class:`~repro.obs.recording.Recording`.

* the **event stream** with the series' memory gauges as a Trace Event
  Format object (:func:`chrome_trace`, for ``chrome://tracing`` and
  Perfetto: one *process* per simulated machine, one *thread* per
  worker, complete ("X") events for worker spans, instant ("i") events
  for protocol activity, counter ("C") tracks for the sampled gauges;
  1 tick = 1 us) and as a utilization :func:`render_timeline`;
* the recording's **metrics** as Prometheus text (:func:`prometheus_text`,
  rendered on demand from the recording's metrics, series, histograms
  and drift profile);
* the **time series** as JSONL (:func:`series_jsonl`).

Each text writer has a matching reader (``parse_*``) so round trips are
testable; ``repro query --chrome-out / --prom-out / --series-out`` is
the caller.
"""

import json

from repro.obs.sampler import MACHINE_COLUMNS

_INSTANT_KINDS = {
    "flow_block": "flow block",
    "flow_unblock": "flow unblock",
    "quota_request": "quota request",
    "quota_grant": "quota grant",
    "stage_completed": "COMPLETED",
    "ghost_prune": "ghost prune",
    "result": "result",
}


def _span_bounds(event, ops_per_tick):
    """(ts, dur) of a worker span in microsecond ticks, sub-tick placed."""
    scale = 1.0 / max(1, ops_per_tick)
    ts = event.tick + event.offset * scale
    dur = max(event.ops * scale, 0.01)
    return ts, dur


def chrome_trace(recording):
    """Build the Trace Event Format JSON object for *recording*."""
    meta = recording.meta
    ops_per_tick = meta.get("ops_per_tick", 1)
    events = []

    machines = meta.get("num_machines", 0)
    workers = meta.get("workers_per_machine", 0)
    for machine in range(machines):
        events.append({
            "ph": "M", "name": "process_name", "pid": machine, "tid": 0,
            "args": {"name": "machine %d" % machine},
        })
        for worker in range(workers):
            events.append({
                "ph": "M", "name": "thread_name", "pid": machine,
                "tid": worker, "args": {"name": "worker %d" % worker},
            })

    machine_columns = sorted(recording.series.machines.items())
    for index, tick in enumerate(recording.series.ticks):
        for machine, columns in machine_columns:
            events.append({
                "ph": "C", "name": "memory", "cat": "gauges",
                "pid": machine, "tid": 0, "ts": tick,
                "args": {
                    "buffered_contexts": columns["buffered"][index],
                    "live_frames": columns["frames"][index],
                    "inflight_window": columns["inflight"][index],
                },
            })

    for event in recording.events:
        kind = event.kind
        if kind == "worker_span":
            ts, dur = _span_bounds(event, ops_per_tick)
            name = (
                "idle-flush" if event.stage < 0
                else "stage %d" % event.stage
            )
            events.append({
                "ph": "X", "name": name, "cat": "worker",
                "pid": event.machine, "tid": event.worker,
                "ts": round(ts, 3), "dur": round(dur, 3),
                "args": {"ops": event.ops},
            })
        elif kind == "message_send":
            events.append({
                "ph": "i", "s": "p",
                "name": "send %s" % event.payload, "cat": "network",
                "pid": event.src, "tid": 0, "ts": event.tick,
                "args": {
                    "dst": event.dst, "stage": event.stage,
                    "size": event.size, "deliver_at": event.deliver_at,
                },
            })
        elif kind == "message_deliver":
            events.append({
                "ph": "i", "s": "p",
                "name": "recv %s" % event.payload, "cat": "network",
                "pid": event.dst, "tid": 0, "ts": event.tick,
                "args": {"src": event.src, "stage": event.stage},
            })
        elif kind in _INSTANT_KINDS:
            args = {}
            for attr in ("stage", "dest", "peer", "amount"):
                if hasattr(event, attr):
                    args[attr] = getattr(event, attr)
            events.append({
                "ph": "i", "s": "p", "name": _INSTANT_KINDS[kind],
                "cat": "protocol", "pid": getattr(event, "machine", 0),
                "tid": 0, "ts": event.tick, "args": args,
            })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "engine": "PGX.D/Async reproduction",
            "ticks": meta.get("ticks"),
            "num_machines": machines,
            "num_stages": meta.get("num_stages"),
            "dropped_events": recording.dropped,
        },
    }


#: Five utilization levels, idle to saturated.
_LEVELS = " .:*#"


def render_timeline(recording, width=72):
    """Plain-text timeline: one utilization row per machine.

    Ticks are bucketed into *width* columns; each cell shows the worker
    utilization of that machine over the bucket's elapsed ticks (`` ``=
    idle .. ``#``=saturated — a fast-forwarded stretch counts as the
    idle time it was), with ``!`` overlaid on buckets where that machine
    had sends refused by flow control.
    """
    series = recording.series
    if not series.ticks:
        return "(empty recording)"
    meta = recording.meta
    capacity = max(
        1, meta.get("workers_per_machine", 1) * meta.get("ops_per_tick", 1)
    )
    span = max(1, meta.get("ticks", series.ticks[-1]) + 1)
    width = max(8, min(width, span))
    per_bucket = span / width

    def bucket_of(tick):
        return min(width - 1, int(tick / per_bucket))

    blocked = {}
    for event in recording.events:
        if event.kind == "flow_block":
            blocked.setdefault(event.machine, set()).add(
                bucket_of(event.tick)
            )

    lines = [
        "timeline: %d ticks across %d machines "
        "(%s = worker utilization, ! = flow-control block)"
        % (span, len(series.machines), _LEVELS.strip()),
    ]
    if recording.dropped:
        lines.insert(0, recording.truncation())
    for machine in sorted(series.machines):
        busy = [0.0] * width
        for tick, ticks_covered, ops in zip(
            series.ticks, series.spans, series.machines[machine]["ops"]
        ):
            busy[bucket_of(tick)] += min(ops / capacity, ticks_covered)
        cells = []
        for bucket in range(width):
            if bucket in blocked.get(machine, ()):
                cells.append("!")
                continue
            fraction = min(1.0, busy[bucket] / per_bucket)
            cells.append(_LEVELS[
                int(fraction * (len(_LEVELS) - 1) + 0.5)
            ])
        lines.append("m%-3d |%s|" % (machine, "".join(cells)))
    lines.append(
        "      0%s%d ticks" % (" " * max(1, width - len(str(span)) - 1), span)
    )
    return "\n".join(lines)


def _escape(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _label_text(labels):
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (name, _escape(labels[name])) for name in sorted(labels)
    )
    return "{%s}" % inner


# ----------------------------------------------------------------------
# Prometheus text: a view of the recording
# ----------------------------------------------------------------------
#: ``repro_<field>_total`` counters, one sample per machine whose
#: ``MachineMetrics.<field>`` is nonzero.
_COUNTERS = (
    ("ops", "worker micro-operations executed"),
    ("work_messages_sent", "bulk work messages handed to the network"),
    ("contexts_sent", "contexts shipped remotely"),
    ("control_messages_sent", "acks/COMPLETED/quota traffic"),
    ("results_emitted", "final matches collected"),
    ("flow_control_blocks", "sends refused by flow control"),
    ("quota_requests", "dynamic-memory quota requests sent"),
    ("quota_granted", "window slots received from peers"),
    ("ghost_prunes", "remote hops pruned at ghost vertices"),
    ("retransmits", "reliability-layer frame retransmissions"),
    ("idle_ticks", "worker polls that found no work"),
)

#: Per-machine end-state gauges: series column -> family, read off each
#: machine's last sample.
_END_STATE = (
    ("buffered", "repro_buffered_contexts",
     "buffered contexts (inbox + parked + outgoing) per machine"),
    ("inflight", "repro_flow_inflight_window",
     "total unacknowledged flow-control window occupancy"),
    ("frames", "repro_live_frames", "live traversal frames per machine"),
    ("stages_done", "repro_stages_complete",
     "stages this machine has declared COMPLETED"),
)

#: The recording's hot-path histograms, observed directly by the
#: runtime: attribute -> family.
HISTOGRAM_FAMILIES = (
    ("message_latency", "repro_message_latency_ticks",
     "network transit time per delivered message"),
    ("inbox_wait", "repro_inbox_wait_ticks",
     "hop service time: work-message delivery to consumption"),
    ("retransmit_attempts", "repro_retransmit_attempt",
     "attempt number of each reliability-layer retransmission"),
    ("kernel_batch_ops", "repro_kernel_batch_ops",
     "micro-ops charged per bulk-kernel computation slice"),
)

#: Bucket bounds of ``repro_inbox_depth`` (the series' inbox_depth
#: column, bucketed per machine).
_INBOX_DEPTH_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128)


def _families(recording):
    """``(name, help, type, label, children)`` of every family;
    *children* are ``(label value, value)`` pairs, a histogram's value
    a :class:`~repro.obs.recording.Histogram`."""
    from repro.obs.recording import Histogram

    per_machine = list(enumerate(recording.metrics.per_machine))
    columns = sorted(recording.series.machines.items())
    drift = recording.drift
    operators = drift.operators if drift is not None else []
    skew = drift.skew if drift is not None else []
    worst = drift.max_q_error() if drift is not None else None
    families = [
        ("repro_%s_total" % field, help_text, "counter", "machine",
         [(m, getattr(machine, field)) for m, machine in per_machine
          if getattr(machine, field)])
        for field, help_text in _COUNTERS
    ]
    families += [
        (name, help_text, "gauge", "machine",
         [(m, series[column][-1]) for m, series in columns])
        for column, name, help_text in _END_STATE
    ]
    families += [
        (name, help_text, "histogram", None,
         [("", getattr(recording, attribute))])
        for attribute, name, help_text in HISTOGRAM_FAMILIES
    ]
    families += [
        ("repro_buffered_contexts_budget",
         "configured receiver-side context budget "
         "(stages * senders * bulk * (window + 1))", "gauge", None,
         [("", recording.series.budget)]),
        ("repro_buffered_contexts_peak",
         "high-water mark of buffered contexts per machine", "gauge",
         "machine",
         [(m, machine.peak_buffered_contexts) for m, machine in per_machine]),
        ("repro_inbox_depth",
         "queued work messages per machine, sampled per tick",
         "histogram", "machine",
         [(m, Histogram(_INBOX_DEPTH_BOUNDS, series["inbox_depth"]))
          for m, series in columns]),
        ("repro_recording_events_dropped_total",
         "events discarded after the recording reached max_events",
         "counter", None, [("", recording.dropped)]),
        ("repro_plan_estimated_rows",
         "cost-model estimated rows after each logical operator", "gauge",
         "operator",
         [(row["op_index"], row["estimated"]) for row in operators]),
        ("repro_plan_actual_rows",
         "measured rows surviving each logical operator", "gauge",
         "operator",
         [(row["op_index"], row["actual"]) for row in operators
          if row["actual"] is not None]),
        ("repro_plan_q_error",
         "per-operator q-error max(est/actual, actual/est)", "gauge",
         "operator",
         [(row["op_index"], row["q_error"]) for row in operators
          if row["actual"] is not None]),
        ("repro_plan_q_error_max",
         "worst per-operator cardinality q-error of the run", "gauge",
         None, [("", worst)] if worst is not None else []),
        ("repro_stage_skew_ratio",
         "per-stage machine imbalance: max/mean of stage visits", "gauge",
         "stage",
         [(row["stage"], row["ratio"]) for row in skew]),
    ]
    return families


def exposition(families):
    """Prometheus text exposition format (version 0.0.4) of *families*,
    ``(name, help, type, label, children)`` tuples as
    :func:`prometheus_text` builds them (*label* None for a family
    without labels).

    Families are emitted in sorted name order, children in sorted
    label-value string order, so the output is deterministic (and
    diffable) for a deterministic run.  The exposition ends with the
    ``# EOF`` marker so scrape truncation is detectable.
    """
    lines = []
    for name, help_text, kind, label, children in sorted(
        families, key=lambda family: family[0]
    ):
        lines.append("# HELP %s %s" % (name, _escape(help_text)))
        lines.append("# TYPE %s %s" % (name, kind))
        for value_text, value in sorted(
            (str(key), value) for key, value in children
        ):
            labels = {label: value_text} if label is not None else {}
            if kind != "histogram":
                lines.append(_sample(name, labels, value))
                continue
            for bound, cumulative in value.cumulative():
                edge = "+Inf" if bound == float("inf") else _fmt(bound)
                lines.append(_sample(name + "_bucket",
                                     dict(labels, le=edge), cumulative))
            lines.append(_sample(name + "_sum", labels, value.sum))
            lines.append(_sample(name + "_count", labels, value.count))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def prometheus_text(recording):
    """The *recording*'s metrics as Prometheus text, rendered from what
    it holds: counters and peaks from ``metrics.per_machine``, end-state
    gauges and inbox depths from the series, the budget, the hot-path
    histograms, and drift and skew from ``drift``."""
    return exposition(_families(recording))


def _sample(name, labels, value):
    return "%s%s %s" % (name, _label_text(labels), _fmt(value))


def _fmt(value):
    """Compact number formatting (1.0 -> "1")."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _unescape(text):
    """Invert :func:`_escape` in one left-to-right pass.

    Sequential ``str.replace`` calls are wrong in either order: a
    literal backslash-n in the original escapes to ``\\\\n``, which a
    ``\\n``-first pass corrupts into backslash-newline, while a
    ``\\\\``-first pass turns an escaped newline into a literal one.
    """
    out = []
    index, end = 0, len(text)
    while index < end:
        char = text[index]
        if char == "\\" and index + 1 < end:
            nxt = text[index + 1]
            if nxt == "n":
                out.append("\n")
                index += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def _split_sample(line):
    """Split one sample line into ``(metric, label_text, value_text)``.

    The closing ``}`` is found with a quote-aware scan, so label values
    containing spaces, braces, or escaped quotes parse correctly
    (a bare ``rsplit`` on the last space cannot tell a value apart from
    a label payload ending in one).  *label_text* is None for
    label-less samples.
    """
    brace = line.find("{")
    if brace == -1:
        metric, _, value_text = line.rpartition(" ")
        return metric, None, value_text
    in_quote = escaped = False
    for index in range(brace + 1, len(line)):
        char = line[index]
        if escaped:
            escaped = False
            continue
        if char == "\\":
            escaped = True
            continue
        if char == '"':
            in_quote = not in_quote
            continue
        if char == "}" and not in_quote:
            return (line[:brace], line[brace + 1:index],
                    line[index + 1:].strip())
    raise ValueError("unterminated label block: %r" % line)


def parse_prometheus(text):
    """Parse exposition text back into ``{(name, labels): value}``.

    *labels* is a frozenset of ``(label, value)`` pairs.  Only the
    subset of the format this module emits is supported — enough for
    round-trip tests and snapshot diffing — but that subset round-trips
    exactly, including label values with quotes, backslashes, newlines,
    spaces, and braces.
    """
    out = {}
    # Split on newline only: str.splitlines() also breaks on \x1c-\x1e,
    # \x85, and U+2028/U+2029, which are legal *inside* escaped label
    # values and must not terminate a sample line.
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        metric, label_text, value_text = _split_sample(line)
        labels = {}
        if label_text:
            for part in _split_labels(label_text):
                label, _, raw = part.partition("=")
                labels[label] = _unescape(raw[1:-1])
        value = float(value_text) if value_text != "+Inf" else float("inf")
        if value.is_integer():
            value = int(value)
        out[(metric, frozenset(labels.items()))] = value
    return out


def _split_labels(text):
    """Split ``a="x",b="y"`` respecting escaped quotes."""
    parts, current, in_quote, escaped = [], [], False, False
    for char in text:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quote = not in_quote
        if char == "," and not in_quote:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        parts.append("".join(current))
    return parts


# ----------------------------------------------------------------------
# Time-series exporters
# ----------------------------------------------------------------------
def series_rows(sampler):
    """Flatten a sampler to dict rows: one per (sample, machine)."""
    rows = []
    for index, tick in enumerate(sampler.ticks):
        for machine_id in sorted(sampler.machines):
            series = sampler.machines[machine_id]
            row = {"tick": tick, "machine": machine_id}
            for column in MACHINE_COLUMNS:
                row[column] = series[column][index]
            rows.append(row)
    return rows


def series_jsonl(sampler):
    """The time series as a JSONL stream (one sample-row per line).

    The first line is a meta header (``{"meta": ...}``) carrying the
    budget and stage count, so a stream is self-describing.
    """
    lines = [json.dumps({"meta": {
        "budget": sampler.budget,
        "num_stages": sampler.num_stages,
        "num_machines": len(sampler.machines),
        "samples": sampler.num_samples,
        "columns": list(MACHINE_COLUMNS),
    }}, sort_keys=True)]
    lines.extend(
        json.dumps(row, sort_keys=True) for row in series_rows(sampler)
    )
    return "\n".join(lines) + "\n"


def parse_series_jsonl(text):
    """Read a :func:`series_jsonl` stream back: ``(meta, rows)``."""
    meta, rows = {}, []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if "meta" in record and "tick" not in record:
            meta = record["meta"]
        else:
            rows.append(record)
    return meta, rows
