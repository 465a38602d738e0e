"""A label-aware metrics registry.

Where a recording's event stream says *what happened*, its registry
keeps *totals and distributions* as metrics — the shape every production
graph-query service exposes (Prometheus-style counters, gauges, and
fixed-bucket histograms):

* the runtime observes latency histograms directly at a few hot points
  (network delivery, inbox wait) — each site guarded by the recording's
  one ``is not None`` check;
* :meth:`~repro.obs.recording.Recording.seal` writes the machines' final
  :class:`~repro.cluster.metrics.MachineMetrics` counters and gauges;
* ``repro.obs.export`` serializes a registry snapshot as Prometheus text
  exposition.

A run's registry is its :class:`~repro.obs.Recording`'s, so it lives
as long as the caller keeps the recording.  Naming follows Prometheus
conventions: ``repro_*`` prefix, ``_total`` suffix on counters,
``_ticks`` unit suffixes (the simulator clock is the only clock the
runtime has).
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

    def samples(self):
        """Flatten to ``(name, labels_dict, value)`` rows, exporter food.

        Histograms expand Prometheus-style into ``<name>_bucket`` rows
        (cumulative, with an ``le`` label), ``<name>_sum``, and
        ``<name>_count``.
        """
        rows = []
        for labelvalues, child in self.children():
            labels = dict(zip(self.labelnames, labelvalues))
            if isinstance(child, Histogram):
                for bound, cumulative in child.cumulative():
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = (
                        "+Inf" if bound == float("inf") else _fmt(bound)
                    )
                    rows.append((self.name + "_bucket",
                                 bucket_labels, cumulative))
                rows.append((self.name + "_sum", labels, child.sum))
                rows.append((self.name + "_count", labels, child.count))
            else:
                rows.append((self.name, labels, child.value))
        return rows

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

    def samples(self):
        """Every family's :meth:`MetricFamily.samples`, in name order."""
        return [row for family in self for row in family.samples()]

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
