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
per-machine curves), ``registry`` (Prometheus-style metrics: hot-path
histograms observed as the run goes, the machines' final counters
written when it is sealed) and ``meta`` (the run's envelope).
"""

import json
from collections import Counter

from repro.obs.events import QueryAbortedEvent
from repro.obs.export import chrome_trace, prometheus_text, render_timeline
from repro.obs.profile import TraceProfile
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.telemetry import MetricsRegistry


class Recording:
    """Events, series and metrics of one query execution."""

    def __init__(self, max_events=1_000_000, interval=1):
        #: Recorded events, in emission order (ticks are nondecreasing).
        self.events = []
        self.max_events = max_events
        #: Run metadata: ``num_machines``, ``num_stages``,
        #: ``workers_per_machine`` and ``ops_per_tick`` once bound;
        #: ``ticks`` (and ``aborted``, the reason) once sealed.
        self.meta = {}
        registry = self.registry = MetricsRegistry()
        self._dropped = registry.counter(
            "repro_recording_events_dropped_total",
            "events discarded after the recording reached max_events",
        )._sole_child()
        # Hot-path histograms, observed directly by the runtime.
        self.message_latency = registry.histogram(
            "repro_message_latency_ticks",
            "network transit time per delivered message",
            # Latency defaults to 8 ticks; retransmission timeouts
            # stretch the tail.
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self.inbox_wait = registry.histogram(
            "repro_inbox_wait_ticks",
            "hop service time: work-message delivery to consumption",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self.retransmit_attempts = registry.histogram(
            "repro_retransmit_attempt",
            "attempt number of each reliability-layer retransmission",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16),
        )
        self.kernel_batch_ops = registry.histogram(
            "repro_kernel_batch_ops",
            "micro-ops charged per bulk-kernel computation slice",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        #: The per-tick series; every sample also lands its inbox depth
        #: in this histogram.
        self.series = TimeSeriesSampler(
            registry.histogram(
                "repro_inbox_depth",
                "queued work messages per machine, sampled per tick",
                buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128),
                labels=("machine",),
            ),
            interval=interval,
        )
        self.budget_gauge = registry.gauge(
            "repro_buffered_contexts_budget",
            "configured receiver-side context budget "
            "(stages * senders * bulk * (window + 1))",
        )
        # Per-machine end state, written by seal() from the final sample
        # (series column -> gauge) and the machines' counters.
        self._final_gauges = {
            column: registry.gauge(name, help_text, labels=("machine",))
            for column, name, help_text in (
                ("buffered", "repro_buffered_contexts",
                 "buffered contexts (inbox + parked + outgoing) per "
                 "machine"),
                ("inflight", "repro_flow_inflight_window",
                 "total unacknowledged flow-control window occupancy"),
                ("frames", "repro_live_frames",
                 "live traversal frames per machine"),
                ("stages_done", "repro_stages_complete",
                 "stages this machine has declared COMPLETED"),
            )
        }
        self.buffered_peak_gauge = registry.gauge(
            "repro_buffered_contexts_peak",
            "high-water mark of buffered contexts per machine",
            labels=("machine",),
        )
        # Plan-vs-actual drift gauges, set by feedback.publish_drift when
        # a stage profile was collected; declared up-front so the export
        # has a stable family set either way.
        self.plan_estimated_rows = registry.gauge(
            "repro_plan_estimated_rows",
            "cost-model estimated rows after each logical operator",
            labels=("operator",),
        )
        self.plan_actual_rows = registry.gauge(
            "repro_plan_actual_rows",
            "measured rows surviving each logical operator",
            labels=("operator",),
        )
        self.plan_q_error = registry.gauge(
            "repro_plan_q_error",
            "per-operator q-error max(est/actual, actual/est)",
            labels=("operator",),
        )
        self.plan_q_error_max = registry.gauge(
            "repro_plan_q_error_max",
            "worst per-operator cardinality q-error of the run",
        )
        self.stage_skew_ratio = registry.gauge(
            "repro_stage_skew_ratio",
            "per-stage machine imbalance: max/mean of stage visits",
            labels=("stage",),
        )
        #: MachineMetrics counters mirrored into the registry at seal;
        #: counters add across union expansions (``registry.merge``).
        self.mirrored = {
            name: registry.counter("repro_%s_total" % name, help_text,
                                   labels=("machine",))
            for name, help_text in (
                ("ops", "worker micro-operations executed"),
                ("work_messages_sent", "bulk work messages handed to "
                                       "the network"),
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
        }

    # ------------------------------------------------------------------
    # Collection (the runtime-facing half)
    # ------------------------------------------------------------------
    def emit(self, event):
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self._dropped.value += 1

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
        self.budget_gauge.set(budget)
        self.series.bind(
            machines, config.workers_per_machine * config.ops_per_tick,
            num_stages, budget,
        )

    def seal(self, now, aborted=None):
        """Close the run at tick *now* — completed, or cancelled for the
        reason *aborted*: take the final sample and write the machines'
        end state into the registry."""
        if aborted is not None:
            self.emit(QueryAbortedEvent(now, aborted))
            self.meta["aborted"] = aborted
        self.meta["ticks"] = now
        series = self.series
        series.flush(now)
        for machine_id, machine in enumerate(series.bound):
            metrics = machine.metrics
            last = series.machines[machine_id]
            for column, gauge in self._final_gauges.items():
                gauge.labels(machine_id).set(last[column][-1])
            self.buffered_peak_gauge.labels(machine_id).set(
                metrics.peak_buffered_contexts
            )
            for name, counter in self.mirrored.items():
                value = getattr(metrics, name)
                if value:
                    counter.labels(machine_id).inc(value)

    # ------------------------------------------------------------------
    # Inspection (the user-facing half)
    # ------------------------------------------------------------------
    @property
    def dropped(self):
        """Events discarded after hitting ``max_events``."""
        return self._dropped.value

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
        """The registry as Prometheus text exposition format."""
        return prometheus_text(self.registry)

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
        for label, family in (("msg_latency_avg", self.message_latency),
                              ("inbox_wait_avg", self.inbox_wait)):
            histogram = family._sole_child()
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
        what *other* had dropped itself (merged with its registry).
        """
        room = max(0, self.max_events - len(self.events))
        kept = other.events[:room]
        for event in kept:
            event.tick += tick_offset
        self.events.extend(kept)
        self.registry.merge(other.registry)
        self._dropped.value += len(other.events) - len(kept)
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
