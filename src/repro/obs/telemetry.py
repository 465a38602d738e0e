"""Live telemetry: a label-aware metrics registry (tentpole of PR 3).

Where ``repro.obs.tracer`` records *what happened* as an event log for
post-hoc analysis, this module keeps *current state* as metrics — the
shape every production graph-query service exposes (Prometheus-style
counters, gauges, and fixed-bucket histograms).  The registry is the
substrate three consumers share:

* the :class:`~repro.obs.sampler.TimeSeriesSampler` syncs the runtime's
  :class:`~repro.cluster.metrics.MachineMetrics` counters and flow-
  control gauges into it every simulator tick;
* the runtime observes latency histograms directly at two hot points
  (network delivery, inbox wait) — each site guarded by one
  ``is not None`` check, mirroring the tracer's zero-cost-off design;
* the exporters (``repro.obs.exporters``) serialize a registry snapshot
  as Prometheus text exposition, JSONL, or CSV.

Naming follows Prometheus conventions: ``repro_*`` prefix, ``_total``
suffix on counters, ``_ticks`` unit suffixes (the simulator clock is
the only clock the runtime has).
"""

import re
from bisect import bisect_left

from repro.errors import TelemetryError

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _check_name(name):
    if not _NAME_RE.match(name):
        raise TelemetryError("invalid metric name: %r" % name)
    return name


def _check_labelnames(labelnames):
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label):
            raise TelemetryError("invalid label name: %r" % label)
    if len(set(names)) != len(names):
        raise TelemetryError("duplicate label names: %r" % (names,))
    return names


class Counter:
    """A monotonically increasing count (one labelset of a family)."""

    __slots__ = ("value",)
    type_name = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise TelemetryError("counters only go up (inc by %r)" % amount)
        self.value += amount

    def get(self):
        return self.value

    def _merge(self, other):
        self.value += other.value


class Gauge:
    """A value that can go up and down (one labelset of a family)."""

    __slots__ = ("value",)
    type_name = "gauge"

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount

    def get(self):
        return self.value

    def _merge(self, other):
        # Sequential composition (union expansions): the later run's
        # final gauge value is the current one.
        self.value = other.value


class Histogram:
    """Fixed-bound bucketed distribution (one labelset of a family).

    ``bounds`` are the inclusive upper edges, Prometheus ``le``
    semantics: an observation lands in the first bucket whose bound is
    ``>= value``; values above the last bound land in the implicit
    ``+Inf`` overflow bucket.  ``counts`` holds *non-cumulative* bucket
    counts (``len(bounds) + 1`` entries); exporters cumulate.
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    type_name = "histogram"

    def __init__(self, bounds):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0
        self.count = 0

    def observe(self, value):
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def get(self):
        return self.count

    def cumulative(self):
        """``(bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out, running = [], 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def _merge(self, other):
        if other.bounds != self.bounds:
            raise TelemetryError(
                "cannot merge histograms with different bounds"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.sum += other.sum
        self.count += other.count


class MetricFamily:
    """One named metric and its per-labelset children.

    A family declared without label names is its own single child:
    ``registry.counter("x").inc()`` works directly.  With label names,
    use :meth:`labels` to reach a child; children are created on first
    use and remembered (so exports show every labelset ever touched).
    """

    __slots__ = ("name", "help", "labelnames", "_make_child", "_children",
                 "_bounds")

    def __init__(self, name, help_text, labelnames, make_child, bounds=None):
        self.name = _check_name(name)
        self.help = help_text
        self.labelnames = _check_labelnames(labelnames)
        self._make_child = make_child
        self._children = {}
        self._bounds = bounds
        if not self.labelnames:
            self._children[()] = make_child()

    @property
    def type_name(self):
        return self._make_child().type_name

    def labels(self, *values, **kwargs):
        """The child for one labelset, e.g. ``fam.labels(machine=0)``."""
        if kwargs:
            if values:
                raise TelemetryError(
                    "pass label values positionally or by name, not both"
                )
            try:
                values = tuple(kwargs.pop(name) for name in self.labelnames)
            except KeyError as missing:
                raise TelemetryError(
                    "%s is missing label %s" % (self.name, missing)
                )
            if kwargs:
                raise TelemetryError(
                    "%s got unexpected labels %r"
                    % (self.name, sorted(kwargs))
                )
        else:
            values = tuple(values)
        if len(values) != len(self.labelnames):
            raise TelemetryError(
                "%s expects labels %r, got %d values"
                % (self.name, self.labelnames, len(values))
            )
        values = tuple(str(value) for value in values)
        child = self._children.get(values)
        if child is None:
            child = self._children[values] = self._make_child()
        return child

    def _sole_child(self):
        if self.labelnames:
            raise TelemetryError(
                "%s has labels %r; use .labels(...)"
                % (self.name, self.labelnames)
            )
        return self._children[()]

    # Label-less families proxy their single child.
    def inc(self, amount=1):
        self._sole_child().inc(amount)

    def dec(self, amount=1):
        self._sole_child().dec(amount)

    def set(self, value):
        self._sole_child().set(value)

    def observe(self, value):
        self._sole_child().observe(value)

    def get(self):
        return self._sole_child().get()

    def children(self):
        """``(labelvalues_tuple, child)`` pairs, sorted for determinism."""
        return sorted(self._children.items())

    def signature(self):
        return (self.type_name, self.labelnames, self._bounds)


class MetricsRegistry:
    """All metric families of one run, keyed by name.

    Declaring the same name twice with an identical signature returns
    the existing family (so instrumentation sites need no coordination);
    a conflicting redeclaration raises :class:`TelemetryError`.
    """

    def __init__(self):
        self._families = {}

    def __iter__(self):
        return iter(sorted(self._families.values(),
                           key=lambda family: family.name))

    def __len__(self):
        return len(self._families)

    def get(self, name):
        return self._families.get(name)

    def _declare(self, name, help_text, labelnames, make_child, bounds=None):
        family = MetricFamily(name, help_text, labelnames, make_child,
                              bounds=bounds)
        existing = self._families.get(name)
        if existing is not None:
            if existing.signature() != family.signature():
                raise TelemetryError(
                    "metric %s re-declared with a different "
                    "type/labels/buckets" % name
                )
            return existing
        self._families[name] = family
        return family

    def counter(self, name, help_text="", labels=()):
        return self._declare(name, help_text, labels, Counter)

    def gauge(self, name, help_text="", labels=()):
        return self._declare(name, help_text, labels, Gauge)

    def histogram(self, name, help_text="", buckets=(), labels=()):
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise TelemetryError(
                "histogram %s needs at least one bucket bound" % name
            )
        return self._declare(
            name, help_text, labels, lambda: Histogram(bounds), bounds
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def samples(self):
        """Flatten to ``(name, labels_dict, value)`` rows, exporter food.

        Histograms expand Prometheus-style into ``<name>_bucket`` rows
        (cumulative, with an ``le`` label), ``<name>_sum``, and
        ``<name>_count``.
        """
        rows = []
        for family in self:
            for labelvalues, child in family.children():
                labels = dict(zip(family.labelnames, labelvalues))
                if isinstance(child, Histogram):
                    for bound, cumulative in child.cumulative():
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = (
                            "+Inf" if bound == float("inf") else _fmt(bound)
                        )
                        rows.append((family.name + "_bucket",
                                     bucket_labels, cumulative))
                    rows.append((family.name + "_sum", labels, child.sum))
                    rows.append((family.name + "_count", labels, child.count))
                else:
                    rows.append((family.name, labels, child.value))
        return rows

    def snapshot(self):
        """Nested plain-data view: name -> labelvalues -> value/dict."""
        out = {}
        for family in self:
            entry = {}
            for labelvalues, child in family.children():
                if isinstance(child, Histogram):
                    entry[labelvalues] = {
                        "buckets": list(child.counts),
                        "bounds": list(child.bounds),
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    entry[labelvalues] = child.value
            out[family.name] = entry
        return out

    def merge(self, other):
        """Fold *other* into this registry (sequential composition).

        Counters and histogram buckets add; gauges take the later run's
        value.  Used when union expansions each carried their own
        registry.  Families only present in *other* are re-declared here.
        """
        for family in other:
            mine = self._declare(
                family.name, family.help, family.labelnames,
                family._make_child, family._bounds,
            )
            for labelvalues, child in family.children():
                target = mine._children.get(labelvalues)
                if target is None:
                    target = mine._children[labelvalues] = mine._make_child()
                target._merge(child)
        return self


def _fmt(value):
    """Compact number formatting shared by exporters (1.0 -> "1")."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


# ----------------------------------------------------------------------
# The runtime's standard instrument set
# ----------------------------------------------------------------------
#: Message latency bucket bounds, in ticks (network latency defaults to
#: 8 ticks; retransmission timeouts stretch the tail).
LATENCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
#: Inbox wait (delivery -> consumption) bucket bounds, in ticks.
WAIT_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
#: Inbox depth bucket bounds, in queued bulk messages.
DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128)


class Telemetry:
    """Everything live telemetry for one query run: registry + sampler.

    Built by the caller and handed over on the run's
    :class:`~repro.context.ExecutionContext`, threaded through the
    simulator and machines the same way the tracer is, and returned as
    ``QueryResult.telemetry``.  Without one (the default) the runtime
    holds ``None`` and pays one pointer comparison per instrumentation
    site.
    """

    def __init__(self, interval=1):
        from repro.obs.sampler import TimeSeriesSampler

        self.registry = MetricsRegistry()
        self.sampler = TimeSeriesSampler(self, interval=interval)
        self.meta = {}
        registry = self.registry
        # Hot-path histograms, observed directly by the runtime.
        self.message_latency = registry.histogram(
            "repro_message_latency_ticks",
            "network transit time per delivered message",
            buckets=LATENCY_BUCKETS,
        )
        self.inbox_wait = registry.histogram(
            "repro_inbox_wait_ticks",
            "hop service time: work-message delivery to consumption",
            buckets=WAIT_BUCKETS,
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
        # Sampled per tick by the TimeSeriesSampler.
        self.inbox_depth = registry.histogram(
            "repro_inbox_depth",
            "queued work messages per machine, sampled per tick",
            buckets=DEPTH_BUCKETS, labels=("machine",),
        )
        self.buffered_gauge = registry.gauge(
            "repro_buffered_contexts",
            "buffered contexts (inbox + parked + outgoing) per machine",
            labels=("machine",),
        )
        self.buffered_peak_gauge = registry.gauge(
            "repro_buffered_contexts_peak",
            "high-water mark of buffered contexts per machine",
            labels=("machine",),
        )
        self.budget_gauge = registry.gauge(
            "repro_buffered_contexts_budget",
            "configured receiver-side context budget "
            "(stages * senders * bulk * (window + 1))",
        )
        self.inflight_gauge = registry.gauge(
            "repro_flow_inflight_window",
            "total unacknowledged flow-control window occupancy",
            labels=("machine",),
        )
        self.frames_gauge = registry.gauge(
            "repro_live_frames", "live traversal frames per machine",
            labels=("machine",),
        )
        self.stages_complete_gauge = registry.gauge(
            "repro_stages_complete",
            "stages this machine has declared COMPLETED",
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
        # Counters mirrored from MachineMetrics by the sampler (deltas,
        # so they stay correct across union-expansion merges).
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

    def extend(self, other, tick_offset=0):
        """Fold a later run's telemetry in (union expansions)."""
        self.registry.merge(other.registry)
        self.sampler.extend(other.sampler, tick_offset=tick_offset)
        for key, value in other.meta.items():
            if key == "ticks":
                self.meta[key] = max(
                    self.meta.get(key, 0), tick_offset + value
                )
            else:
                self.meta.setdefault(key, value)
        return self

    def prometheus(self):
        """The registry as Prometheus text exposition format."""
        from repro.obs.exporters import prometheus_text

        return prometheus_text(self.registry)

    def summary(self):
        """One-paragraph overview, for the CLI and quick debugging."""
        parts = []
        ticks = self.meta.get("ticks")
        if ticks is not None:
            parts.append("ticks=%d" % ticks)
        parts.append("samples=%d" % self.sampler.num_samples)
        latency = self.message_latency._sole_child()
        if latency.count:
            parts.append(
                "msg_latency_avg=%.1f ticks" % (latency.sum / latency.count)
            )
        wait = self.inbox_wait._sole_child()
        if wait.count:
            parts.append(
                "inbox_wait_avg=%.1f ticks" % (wait.sum / wait.count)
            )
        budget = self.budget_gauge.get()
        if budget:
            peak = max(
                (child.get() for _v, child in
                 self.buffered_peak_gauge.children()),
                default=0,
            )
            parts.append("peak_buffered=%d/%d budget" % (peak, budget))
        return "telemetry: " + " ".join(parts)
