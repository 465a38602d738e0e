"""Telemetry exporters: Prometheus text exposition, JSONL, and CSV.

Two shapes of data come out of ``repro.obs``:

* a **registry snapshot** — the current value of every counter, gauge,
  and histogram (:func:`prometheus_text`);
* a **time series** — the per-tick per-machine samples recorded by the
  :class:`~repro.obs.sampler.TimeSeriesSampler` (:func:`series_jsonl`,
  :func:`series_csv`).

Each writer has a matching reader (``parse_*``) so round trips are
testable; ``repro monitor --prom-out / --series-out`` is the caller.
"""

import csv
import io
import json

from repro.obs.sampler import MACHINE_COLUMNS
from repro.obs.telemetry import _fmt


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
    samples_by_family = {}
    for name, labels, value in registry.samples():
        base = name
        if registry.get(base) is None:
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) \
                        and registry.get(name[: -len(suffix)]) is not None:
                    base = name[: -len(suffix)]
                    break
        samples_by_family.setdefault(base, []).append(
            (name, labels, value)
        )
    for family in registry:
        if family.help:
            lines.append("# HELP %s %s" % (family.name, _escape(family.help)))
        lines.append("# TYPE %s %s" % (family.name, family.type_name))
        for name, labels, value in samples_by_family.get(family.name, ()):
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
