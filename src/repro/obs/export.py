"""Exporters of a :class:`~repro.obs.recording.Recording`.

* the **event stream** with the series' memory gauges as a Trace Event
  Format object (:func:`chrome_trace`, for ``chrome://tracing`` and
  Perfetto: one *process* per simulated machine, one *thread* per
  worker, complete ("X") events for worker spans, instant ("i") events
  for protocol activity, counter ("C") tracks for the sampled gauges;
  1 tick = 1 us) and as a utilization :func:`render_timeline`;
* the **registry** as Prometheus text (:func:`prometheus_text`);
* the **time series** (:func:`series_jsonl`, :func:`series_csv`).

Each text writer has a matching reader (``parse_*``) so round trips are
testable; ``repro trace --chrome-out`` and ``repro monitor --prom-out /
--series-out`` are the callers.
"""

import csv
import io
import json

from repro.obs.sampler import MACHINE_COLUMNS
from repro.obs.telemetry import _fmt

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
# Registry snapshot exporters
# ----------------------------------------------------------------------
def prometheus_text(registry):
    """The registry in Prometheus text exposition format (version 0.0.4).

    Families are emitted in sorted name order, children in sorted
    labelset order, so the output is deterministic (and diffable) for a
    deterministic run.  The exposition ends with the ``# EOF`` marker so
    scrape truncation is detectable.
    """
    lines = []
    for family in registry:
        if family.help:
            lines.append("# HELP %s %s" % (family.name, _escape(family.help)))
        lines.append("# TYPE %s %s" % (family.name, family.type_name))
        for name, labels, value in family.samples():
            lines.append(
                "%s%s %s" % (name, _label_text(labels), _fmt(value))
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


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


def series_csv(sampler):
    """The time series as CSV: ``tick, machine, <columns...>``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("tick", "machine") + MACHINE_COLUMNS)
    for row in series_rows(sampler):
        writer.writerow(
            [row["tick"], row["machine"]]
            + [row[column] for column in MACHINE_COLUMNS]
        )
    return buffer.getvalue()


def parse_series_csv(text):
    """Read :func:`series_csv` output back into dict rows (typed)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return []
    rows = []
    for record in reader:
        row = {}
        for key, value in zip(header, record):
            number = float(value)
            row[key] = int(number) if number.is_integer() else number
        rows.append(row)
    return rows
