"""Graph statistics: collection, estimation helpers, serialization.

:func:`collect_statistics` makes one deterministic pass over a
:class:`~repro.graph.graph.PropertyGraph` and produces a
:class:`GraphStatistics` object holding

* per-label vertex and edge counts,
* in- and out-degree distributions per vertex label (log2-bucketed
  histograms plus min/max/mean),
* edge-label fan-out: for every ``(source label, edge label,
  destination label)`` triple, how many edges connect them — from which
  the average neighbors per source vertex and the conditional
  destination-label distribution both derive,
* per property column, the exact distinct count, the
  :data:`TOP_VALUES` most frequent values with exact counts, and
  numeric min/max for range estimates.

The object is cheap to recompute (a few numpy passes), serializes to a
JSON-safe dict so it can be stored alongside the graph
(``save_json(graph, path, include_stats=True)``), and is the sole input
of the cost-based planner (``repro.plan.cost``) — the planner never
touches raw graph storage, so statistics can be collected once at build
time and shipped with a partitioned graph.
"""

import json
from collections import Counter

import numpy as np

from repro.errors import GraphError
from repro.graph.types import NO_LABEL, PropertyType

#: Most frequent values kept, with exact counts, per property column.
TOP_VALUES = 16


class DegreeStats:
    """Distribution summary of one degree population (one label/side)."""

    __slots__ = ("count", "min", "max", "mean", "buckets")

    def __init__(self, count=0, min_=0, max_=0, mean=0.0, buckets=()):
        self.count = count
        self.min = min_
        self.max = max_
        self.mean = mean
        #: ``buckets[0]`` counts degree 0; ``buckets[b]`` (b >= 1) counts
        #: degrees in ``[2**(b-1), 2**b - 1]`` — a log2 histogram that
        #: keeps skew visible without storing every degree.
        self.buckets = list(buckets)

    @classmethod
    def from_degrees(cls, degrees):
        if len(degrees) == 0:
            return cls()
        degrees = np.asarray(degrees)
        max_degree = int(degrees.max())
        num_buckets = max_degree.bit_length() + 1
        buckets = [0] * num_buckets
        indices = np.zeros(len(degrees), dtype=np.int64)
        nonzero = degrees > 0
        if nonzero.any():
            # bucket = bit_length(degree) for degree >= 1
            indices[nonzero] = (
                np.floor(np.log2(degrees[nonzero])).astype(np.int64) + 1
            )
        for bucket, count in zip(*np.unique(indices, return_counts=True)):
            buckets[int(bucket)] = int(count)
        return cls(
            count=int(len(degrees)),
            min_=int(degrees.min()),
            max_=max_degree,
            mean=float(degrees.mean()),
            buckets=buckets,
        )

    def to_dict(self):
        return {
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": self.buckets,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            count=data["count"],
            min_=data["min"],
            max_=data["max"],
            mean=data["mean"],
            buckets=data["buckets"],
        )

    def __repr__(self):
        return "DegreeStats(n=%d, min=%d, max=%d, mean=%.2f)" % (
            self.count, self.min, self.max, self.mean,
        )


class PropertyStats:
    """Exact summary of one property column.

    ``top_values`` maps the :data:`TOP_VALUES` most frequent values to
    their exact counts, most frequent first, ties by ``repr``;
    ``distinct`` is the exact number of distinct values.
    """

    __slots__ = ("name", "ptype", "count", "distinct", "top_values",
                 "numeric_min", "numeric_max")

    def __init__(self, name, ptype, count, distinct, top_values,
                 numeric_min=None, numeric_max=None):
        self.name = name
        self.ptype = ptype
        self.count = count
        self.distinct = distinct
        self.top_values = dict(top_values)
        self.numeric_min = numeric_min
        self.numeric_max = numeric_max

    @classmethod
    def from_column(cls, column):
        values = column.values()
        counts = Counter(values)
        ranked = sorted(counts.items(),
                        key=lambda item: (-item[1], repr(item[0])))
        numeric_min = numeric_max = None
        if column.ptype in (PropertyType.LONG, PropertyType.DOUBLE) \
                and values:
            numeric_min = min(values)
            numeric_max = max(values)
        return cls(column.name, column.ptype, len(values), len(counts),
                   ranked[:TOP_VALUES], numeric_min, numeric_max)

    def eq_selectivity(self, value):
        """Estimated fraction of rows equal to *value*."""
        if self.count == 0:
            return 0.0
        tracked = self.top_values.get(value)
        if tracked is not None:
            return tracked / self.count
        # Untracked: spread the residual mass over the residual distinct
        # values (uniformity assumption outside the heavy hitters).
        residual = self.count - sum(self.top_values.values())
        residual_distinct = max(1, self.distinct - len(self.top_values))
        return residual / residual_distinct / self.count

    def range_selectivity(self, op, value):
        """Estimated fraction of rows satisfying ``row <op> value``."""
        lo, hi = self.numeric_min, self.numeric_max
        if lo is None or hi is None or not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            return 0.5
        if hi <= lo:
            span_frac = 0.5
        else:
            span_frac = (min(max(value, lo), hi) - lo) / (hi - lo)
        if op in ("<", "<="):
            return max(0.0, min(1.0, span_frac))
        if op in (">", ">="):
            return max(0.0, min(1.0, 1.0 - span_frac))
        return 0.5

    def to_dict(self):
        return {
            "name": self.name,
            "type": self.ptype.value,
            "count": self.count,
            "distinct": self.distinct,
            "top_values": [
                [value, count] for value, count in self.top_values.items()
            ],
            "numeric_min": self.numeric_min,
            "numeric_max": self.numeric_max,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["name"],
            PropertyType(data["type"]),
            data["count"],
            data["distinct"],
            data["top_values"],
            data.get("numeric_min"),
            data.get("numeric_max"),
        )


class GraphStatistics:
    """All collected statistics of one graph snapshot.

    Label keys are label *names* (strings) or ``None`` for unlabeled
    entities, so the object survives serialization without depending on
    the graph's label-id assignment.
    """

    SCHEMA = "repro-graph-stats/2"

    def __init__(self, num_vertices, num_edges):
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        #: {label_name_or_None: vertex count}
        self.vertex_label_counts = {}
        #: {label_name_or_None: edge count}
        self.edge_label_counts = {}
        #: {label_name_or_None: DegreeStats} per side
        self.out_degrees = {}
        self.in_degrees = {}
        #: Whole-graph degree distributions (all labels pooled).
        self.out_degrees_all = DegreeStats()
        self.in_degrees_all = DegreeStats()
        #: {(src_label, edge_label, dst_label): edge count}
        self.edge_triples = {}
        #: {prop_name: PropertyStats}
        self.vertex_properties = {}
        self.edge_properties = {}

    # ------------------------------------------------------------------
    # Estimation helpers (the cost model's interface)
    # ------------------------------------------------------------------
    def vertex_label_count(self, label):
        """Vertices carrying *label* (None = unlabeled; unseen = 0)."""
        return self.vertex_label_counts.get(label, 0)

    def vertex_label_fraction(self, label):
        if self.num_vertices == 0:
            return 0.0
        if label is None:
            return 1.0
        return self.vertex_label_count(label) / self.num_vertices

    def edge_count(self, src_label=None, edge_label=None, dst_label=None):
        """Edges matching the given (None = any) label triple."""
        total = 0
        for (src, elab, dst), count in self.edge_triples.items():
            if src_label is not None and src != src_label:
                continue
            if edge_label is not None and elab != edge_label:
                continue
            if dst_label is not None and dst != dst_label:
                continue
            total += count
        return total

    def expected_neighbors(self, src_label, edge_label, direction):
        """Average matching neighbors per source vertex (the fan-out).

        *direction* is ``"out"`` (follow src -> dst edges) or ``"in"``
        (follow dst -> src edges, i.e. the source vertex is the edge's
        destination).  ``src_label=None`` averages over all vertices.
        """
        if direction == "out":
            edges = self.edge_count(src_label=src_label,
                                    edge_label=edge_label)
        else:
            edges = self.edge_count(dst_label=src_label,
                                    edge_label=edge_label)
        if src_label is None:
            population = self.num_vertices
        else:
            population = self.vertex_label_count(src_label)
        if population == 0:
            return 0.0
        return edges / population

    def neighbor_label_fraction(self, src_label, edge_label, direction,
                                target_label):
        """P(neighbor carries *target_label* | reached via the hop).

        Conditional on following an edge of *edge_label* from a vertex
        of *src_label* in *direction*; falls back to the unconditional
        vertex-label fraction when the hop population is empty.
        """
        if target_label is None:
            return 1.0
        if direction == "out":
            matching = self.edge_count(src_label=src_label,
                                       edge_label=edge_label,
                                       dst_label=target_label)
            population = self.edge_count(src_label=src_label,
                                         edge_label=edge_label)
        else:
            matching = self.edge_count(dst_label=src_label,
                                       edge_label=edge_label,
                                       src_label=target_label)
            population = self.edge_count(dst_label=src_label,
                                         edge_label=edge_label)
        if population == 0:
            return self.vertex_label_fraction(target_label)
        return matching / population

    def edge_probability(self, src_label, edge_label, dst_label):
        """Expected parallel edges between one (src, dst) vertex pair."""
        src_count = (
            self.num_vertices if src_label is None
            else self.vertex_label_count(src_label)
        )
        dst_count = (
            self.num_vertices if dst_label is None
            else self.vertex_label_count(dst_label)
        )
        if src_count == 0 or dst_count == 0:
            return 0.0
        edges = self.edge_count(src_label=src_label, edge_label=edge_label,
                                dst_label=dst_label)
        return edges / (src_count * dst_count)

    def vertex_prop_stats(self, name):
        return self.vertex_properties.get(name)

    def edge_prop_stats(self, name):
        return self.edge_properties.get(name)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self):
        return {
            "schema": self.SCHEMA,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "vertex_label_counts": _label_map_to_list(
                self.vertex_label_counts
            ),
            "edge_label_counts": _label_map_to_list(self.edge_label_counts),
            "out_degrees": _degree_map_to_list(self.out_degrees),
            "in_degrees": _degree_map_to_list(self.in_degrees),
            "out_degrees_all": self.out_degrees_all.to_dict(),
            "in_degrees_all": self.in_degrees_all.to_dict(),
            "edge_triples": [
                [src, elab, dst, count]
                for (src, elab, dst), count in sorted(
                    self.edge_triples.items(),
                    key=lambda item: _triple_key(item[0]),
                )
            ],
            "vertex_properties": {
                name: stats.to_dict()
                for name, stats in sorted(self.vertex_properties.items())
            },
            "edge_properties": {
                name: stats.to_dict()
                for name, stats in sorted(self.edge_properties.items())
            },
        }

    @classmethod
    def from_dict(cls, data):
        """The statistics of a :meth:`to_dict` document; anything else
        is a :class:`GraphError`."""
        if not isinstance(data, dict):
            raise GraphError("statistics document is a %s, not an object"
                             % type(data).__name__)
        if data.get("schema") != cls.SCHEMA:
            raise GraphError(
                "statistics document has schema %r, expected %r"
                % (data.get("schema"), cls.SCHEMA)
            )
        try:
            return cls._from_dict(data)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise GraphError("malformed statistics document (%s: %s)"
                             % (type(exc).__name__, exc))

    @classmethod
    def _from_dict(cls, data):
        stats = cls(data["num_vertices"], data["num_edges"])
        stats.vertex_label_counts = dict(data["vertex_label_counts"])
        stats.edge_label_counts = dict(data["edge_label_counts"])
        stats.out_degrees = _degree_map_from_list(data["out_degrees"])
        stats.in_degrees = _degree_map_from_list(data["in_degrees"])
        stats.out_degrees_all = DegreeStats.from_dict(
            data["out_degrees_all"]
        )
        stats.in_degrees_all = DegreeStats.from_dict(data["in_degrees_all"])
        stats.edge_triples = {
            (src, elab, dst): count
            for src, elab, dst, count in data["edge_triples"]
        }
        stats.vertex_properties = {
            name: PropertyStats.from_dict(record)
            for name, record in data["vertex_properties"].items()
        }
        stats.edge_properties = {
            name: PropertyStats.from_dict(record)
            for name, record in data["edge_properties"].items()
        }
        return stats

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise GraphError("statistics document is not JSON: %s" % exc)
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Human-readable rendering (``repro stats``)
    # ------------------------------------------------------------------
    def table(self, top=5):
        """Multi-line text table of the collected statistics."""
        lines = []
        lines.append("graph      : %d vertices, %d edges"
                     % (self.num_vertices, self.num_edges))
        lines.append("")
        lines.append("%-18s %10s %10s %6s %6s %8s"
                     % ("vertex label", "count", "out-mean", "o-max",
                        "i-max", "in-mean"))
        for label in sorted(self.vertex_label_counts,
                            key=lambda name: (name is None, name)):
            out = self.out_degrees.get(label, DegreeStats())
            in_ = self.in_degrees.get(label, DegreeStats())
            lines.append("%-18s %10d %10.2f %6d %6d %8.2f" % (
                label if label is not None else "(unlabeled)",
                self.vertex_label_counts[label],
                out.mean, out.max, in_.max, in_.mean,
            ))
        lines.append("")
        lines.append("%-18s %10s" % ("edge label", "count"))
        for label in sorted(self.edge_label_counts,
                            key=lambda name: (name is None, name)):
            lines.append("%-18s %10d" % (
                label if label is not None else "(unlabeled)",
                self.edge_label_counts[label],
            ))
        lines.append("")
        lines.append("fan-out (src label -[edge label]-> dst label):")
        triples = sorted(
            self.edge_triples.items(),
            key=lambda item: (-item[1], _triple_key(item[0])),
        )
        shown = triples if top is None else triples[:top]
        for (src, elab, dst), count in shown:
            src_count = (
                self.vertex_label_count(src) if src is not None
                else self.num_vertices
            )
            avg = count / src_count if src_count else 0.0
            lines.append(
                "  %-14s -[%s]-> %-14s edges=%-8d avg/src=%.2f"
                % (src or "(unlabeled)", elab or "", dst or "(unlabeled)",
                   count, avg)
            )
        if top is not None and len(triples) > top:
            lines.append("  ... %d more" % (len(triples) - top))
        for kind, props in (("vertex", self.vertex_properties),
                            ("edge", self.edge_properties)):
            if not props:
                continue
            lines.append("")
            lines.append("%s properties:" % kind)
            for name in sorted(props):
                stats = props[name]
                summary = "  %-14s %-8s distinct=%-6d" % (
                    name, stats.ptype.value, stats.distinct
                )
                if stats.numeric_min is not None:
                    summary += " range=[%s, %s]" % (
                        stats.numeric_min, stats.numeric_max
                    )
                lines.append(summary)
                for value, count in list(stats.top_values.items())[:top]:
                    lines.append(
                        "      %-24r count=%d" % (value, count)
                    )
        return "\n".join(lines)

    def __repr__(self):
        return "GraphStatistics(vertices=%d, edges=%d, labels=%d/%d)" % (
            self.num_vertices,
            self.num_edges,
            len(self.vertex_label_counts),
            len(self.edge_label_counts),
        )


def collect_statistics(graph):
    """One deterministic pass over *graph* -> :class:`GraphStatistics`."""
    stats = GraphStatistics(graph.num_vertices, graph.num_edges)
    label_name = _label_namer(graph)

    vertex_labels = graph.vertex_labels_array()
    out_degrees, in_degrees = graph.degree_arrays()
    stats.out_degrees_all = DegreeStats.from_degrees(out_degrees)
    stats.in_degrees_all = DegreeStats.from_degrees(in_degrees)

    if vertex_labels is None:
        stats.vertex_label_counts[None] = graph.num_vertices
        stats.out_degrees[None] = stats.out_degrees_all
        stats.in_degrees[None] = stats.in_degrees_all
    else:
        for label_id, count in zip(
            *np.unique(vertex_labels, return_counts=True)
        ):
            name = label_name(int(label_id))
            stats.vertex_label_counts[name] = int(count)
            mask = vertex_labels == label_id
            stats.out_degrees[name] = DegreeStats.from_degrees(
                out_degrees[mask]
            )
            stats.in_degrees[name] = DegreeStats.from_degrees(
                in_degrees[mask]
            )

    edge_src, edge_dst = graph.edge_endpoint_arrays()
    edge_labels = graph.edge_labels_array()
    if graph.num_edges:
        if edge_labels is None:
            elab_ids = np.full(graph.num_edges, NO_LABEL, dtype=np.int64)
        else:
            elab_ids = edge_labels.astype(np.int64)
        if vertex_labels is None:
            src_ids = np.full(graph.num_edges, NO_LABEL, dtype=np.int64)
            dst_ids = src_ids
        else:
            src_ids = vertex_labels[edge_src].astype(np.int64)
            dst_ids = vertex_labels[edge_dst].astype(np.int64)
        triples = np.stack([src_ids, elab_ids, dst_ids], axis=1)
        unique, counts = np.unique(triples, axis=0, return_counts=True)
        for (src_id, elab_id, dst_id), count in zip(unique, counts):
            key = (
                label_name(int(src_id)),
                label_name(int(elab_id)),
                label_name(int(dst_id)),
            )
            stats.edge_triples[key] = int(count)
        for elab_id, count in zip(*np.unique(elab_ids, return_counts=True)):
            stats.edge_label_counts[label_name(int(elab_id))] = int(count)

    for table, summaries in (
        (graph.vertex_properties, stats.vertex_properties),
        (graph.edge_properties, stats.edge_properties),
    ):
        for name in sorted(table.names()):
            summaries[name] = PropertyStats.from_column(table.column(name))
    return stats


# ----------------------------------------------------------------------
# Serialization helpers (None-keyed label maps are not JSON-safe as
# dicts, so they round-trip through sorted entry lists).
# ----------------------------------------------------------------------
def _label_namer(graph):
    labels = graph.labels

    def name(label_id):
        return None if label_id == NO_LABEL else labels.name(label_id)

    return name


def _label_map_to_list(mapping):
    return [
        [label, count]
        for label, count in sorted(
            mapping.items(), key=lambda item: (item[0] is None, item[0])
        )
    ]


def _degree_map_to_list(mapping):
    return [
        [label, stats.to_dict()]
        for label, stats in sorted(
            mapping.items(), key=lambda item: (item[0] is None, item[0])
        )
    ]


def _degree_map_from_list(entries):
    return {
        label: DegreeStats.from_dict(record) for label, record in entries
    }


def _triple_key(triple):
    return tuple((part is None, part) for part in triple)
