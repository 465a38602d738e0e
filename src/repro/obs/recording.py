"""The one recorder installed into a query execution.

A run has a :class:`Recording` or ``None``.  The caller builds it, hands
it over on the run's :class:`~repro.context.ExecutionContext`, and keeps
it; the runtime holds it under one name (``recording``) and guards every
instrumentation site with a single ``is not None`` check, so the
unrecorded path costs one pointer comparison and allocates nothing —
the property ``benchmarks/test_txt2_recording_overhead.py`` keeps
honest.  ``QueryResult.recording`` *is* the object the caller built.

It holds ``events`` (the bounded stream of typed :mod:`~repro.obs.
events`), ``series`` (the :class:`~repro.obs.sampler.TimeSeriesSampler`'s
per-machine curves), four hot-path :class:`Histogram` s observed as the
run goes, ``metrics`` (the machines' counters, kept when the run is
sealed), ``drift`` (the engine's plan-vs-actual profile) and ``meta``
(the run's envelope).  Each number is kept once: :meth:`Recording.
prometheus` renders the Prometheus text from them on demand.
"""

import json
from bisect import bisect_left
from collections import Counter

from repro.cluster.metrics import QueryMetrics
from repro.obs.events import QueryAbortedEvent
from repro.obs.export import (
    HISTOGRAM_FAMILIES,
    chrome_trace,
    prometheus_text,
    render_timeline,
)
from repro.obs.profile import TraceProfile
from repro.obs.sampler import TimeSeriesSampler


class Histogram:
    """Fixed-bound bucketed distribution.

    ``bounds`` are the inclusive upper edges, Prometheus ``le``
    semantics: an observation lands in the first bucket whose bound is
    ``>= value``; values above the last bound land in the implicit
    ``+Inf`` overflow bucket.  ``counts`` holds *non-cumulative* bucket
    counts (``len(bounds) + 1`` entries); :meth:`cumulative` cumulates.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds, values=()):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0
        self.count = 0
        for value in values:
            self.observe(value)

    def observe(self, value):
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other):
        """Add *other*'s observations (same bounds) bucket by bucket."""
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count
        return self

    def cumulative(self):
        """``(bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out, running = [], 0
        for bound, count in zip(self.bounds + (float("inf"),), self.counts):
            running += count
            out.append((bound, running))
        return out


class Recording:
    """Events, series and metrics of one query execution."""

    def __init__(self, max_events=1_000_000, interval=1):
        #: Recorded events, in emission order (ticks are nondecreasing).
        self.events = []
        self.max_events = max_events
        #: Events discarded after the recording reached ``max_events``.
        self.dropped = 0
        #: Run metadata: ``num_machines``, ``num_stages``,
        #: ``workers_per_machine`` and ``ops_per_tick`` once bound;
        #: ``ticks`` (and ``aborted``, the reason) once sealed.
        self.meta = {}
        #: What the machines counted: every sealed run's
        #: :class:`~repro.cluster.metrics.QueryMetrics`, folded in by
        #: ``QueryMetrics.merge``.
        self.metrics = QueryMetrics()
        #: The :class:`~repro.obs.feedback.ExecutionProfile` of a
        #: completed run (plan-vs-actual drift and skew); None until the
        #: engine finalizes one, and after an abort.
        self.drift = None
        # Hot-path histograms, observed directly by the runtime (latency
        # defaults to 8 ticks; retransmission timeouts stretch the tail).
        self.message_latency = Histogram((1, 2, 4, 8, 16, 32, 64, 128, 256))
        self.inbox_wait = Histogram((0, 1, 2, 4, 8, 16, 32, 64, 128, 256))
        self.retransmit_attempts = Histogram((1, 2, 3, 4, 6, 8, 12, 16))
        self.kernel_batch_ops = Histogram((1, 2, 4, 8, 16, 32, 64, 128))
        #: The per-tick series.
        self.series = TimeSeriesSampler(interval=interval)

    # ------------------------------------------------------------------
    # Collection (the runtime-facing half)
    # ------------------------------------------------------------------
    def emit(self, event):
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1

    def bind(self, machines, config, num_stages):
        """Attach to a run about to start: stamp the envelope and hand
        the machines to the sampler (``Simulator.start``)."""
        senders = max(0, config.num_machines - 1)
        # Receiver-side bound: in-flight windows plus one partially
        # filled bulk buffer per (stage, sender) channel — the same
        # bound tests/test_engine_flow_memory.py asserts.
        budget = (
            num_stages * senders * config.bulk_message_size
            * (config.flow_control_window + 1)
        )
        self.meta.update(
            num_machines=config.num_machines,
            num_stages=num_stages,
            workers_per_machine=config.workers_per_machine,
            ops_per_tick=config.ops_per_tick,
        )
        self.series.bind(
            machines, config.workers_per_machine * config.ops_per_tick,
            num_stages, budget,
        )

    def seal(self, now, metrics, aborted=None):
        """Close the run at tick *now* — completed, or cancelled for the
        reason *aborted*: take the final sample and keep the run's
        :class:`~repro.cluster.metrics.QueryMetrics`."""
        if aborted is not None:
            self.emit(QueryAbortedEvent(now, aborted))
            self.meta["aborted"] = aborted
        self.meta["ticks"] = now
        self.series.flush(now)
        self.metrics.merge(metrics)

    # ------------------------------------------------------------------
    # Inspection (the user-facing half)
    # ------------------------------------------------------------------
    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return "Recording(events=%d, samples=%d, dropped=%d)" % (
            len(self.events), self.series.num_samples, self.dropped,
        )

    def kinds(self):
        """The set of distinct event kinds recorded."""
        return {event.kind for event in self.events}

    def counts(self):
        """``Counter`` of events per kind."""
        return Counter(event.kind for event in self.events)

    def events_of(self, kind):
        """All events of one *kind*, in order."""
        return [event for event in self.events if event.kind == kind]

    def profile(self):
        """Fold events and series into a :class:`TraceProfile`."""
        return TraceProfile(self)

    def to_chrome_json(self, path=None, indent=None):
        """The run as ``chrome://tracing`` / Perfetto JSON text; also
        written to *path* when given."""
        text = json.dumps(chrome_trace(self), indent=indent)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    def timeline(self, width=72):
        """Plain-text per-machine utilization timeline."""
        return render_timeline(self, width=width)

    def prometheus(self):
        """The recording's metrics as Prometheus text exposition format."""
        return prometheus_text(self)

    def summary(self):
        """One line of what was recorded, for the CLI and debugging."""
        counts = self.counts()
        parts = ["%d events (%s)" % (len(self.events), ", ".join(
            "%s=%d" % (kind, counts[kind]) for kind in sorted(counts)
        ))]
        ticks = self.meta.get("ticks")
        if ticks is not None:
            parts.append("ticks=%d" % ticks)
        parts.append("samples=%d" % self.series.num_samples)
        for label, histogram in (("msg_latency_avg", self.message_latency),
                                 ("inbox_wait_avg", self.inbox_wait)):
            if histogram.count:
                parts.append("%s=%.1f ticks" % (
                    label, histogram.sum / histogram.count
                ))
        if self.series.budget:
            parts.append("peak_buffered=%d/%d budget" % (
                self.series.peak("buffered_max"), self.series.budget
            ))
        if self.dropped:
            parts.append("[%s]" % self.truncation())
        return "recording: " + " ".join(parts)

    def truncation(self):
        """The warning every rendering of a truncated recording carries
        (None while nothing was dropped)."""
        if not self.dropped:
            return None
        return (
            "WARNING: recording truncated — %d events dropped at "
            "max_events=%d; every event-derived figure under-counts"
            % (self.dropped, self.max_events)
        )

    # ------------------------------------------------------------------
    # Composition (union queries run expansions back to back)
    # ------------------------------------------------------------------
    def fresh(self):
        """A new, empty recording shaped like this one (one run per
        recording: each starts at tick 0)."""
        return Recording(max_events=self.max_events,
                         interval=self.series.interval)

    def extend(self, other, tick_offset=0):
        """Append a later run's recording, shifted by *tick_offset*.

        Used by ``execute_union``: each expansion records from tick 0
        into a :meth:`fresh` recording; offsetting by the accumulated
        tick count lays the expansions out end to end on one timeline.
        Events past ``max_events`` are dropped — and counted, beside
        what *other* had dropped itself; metrics fold through
        ``QueryMetrics.merge`` and histograms add bucket by bucket.
        """
        room = max(0, self.max_events - len(self.events))
        kept = other.events[:room]
        for event in kept:
            event.tick += tick_offset
        self.events.extend(kept)
        self.dropped += other.dropped + len(other.events) - len(kept)
        self.metrics.merge(other.metrics)
        for attribute, _name, _help in HISTOGRAM_FAMILIES:
            getattr(self, attribute).merge(getattr(other, attribute))
        self.series.extend(other.series, tick_offset=tick_offset)
        for key, value in other.meta.items():
            if key == "ticks":
                self.meta[key] = max(
                    self.meta.get(key, 0), tick_offset + value
                )
            elif key in ("num_machines", "num_stages"):
                self.meta[key] = max(self.meta.get(key, 0), value)
            else:
                self.meta.setdefault(key, value)
        return self
