"""Loading and saving property graphs in simple text formats.

Two formats are supported:

* **edge list** — one ``src dst [label]`` triple per line, whitespace
  separated; vertices are created implicitly.
* **JSON graph** — a dict with ``vertices`` and ``edges`` lists carrying
  labels and arbitrary properties; round-trips through ``save_json``.
"""

import json

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder


def _read(path, parse):
    """``parse(handle)`` of the file at *path*; a missing, unreadable
    or malformed file is a :class:`GraphError` naming it."""
    try:
        with open(path) as handle:
            return parse(handle)
    except (OSError, ValueError) as exc:
        raise GraphError("cannot read graph %s: %s" % (path, exc))


def load_edge_list(path, comment="#"):
    """Load a graph from a whitespace-separated edge-list file."""
    return _read(path, lambda handle: _edge_list(path, handle, comment))


def _edge_list(path, handle, comment):
    builder = GraphBuilder()
    seen = 0
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line or line.startswith(comment):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphError(
                "%s:%d: expected 'src dst [label]', got %r"
                % (path, line_number, line)
            )
        src, dst = int(parts[0]), int(parts[1])
        label = parts[2] if len(parts) == 3 else None
        needed = max(src, dst) + 1
        if needed > seen:
            builder.add_vertices(needed - seen)
            seen = needed
        builder.add_edge(src, dst, label=label)
    return builder.build()


def save_edge_list(graph, path):
    """Write *graph* as an edge-list file (labels included when present)."""
    with open(path, "w") as handle:
        for vertex in graph.vertices():
            dst, edge_ids = graph.out_edges(vertex)
            for neighbor, edge in zip(dst, edge_ids):
                label = graph.edge_label_name(int(edge))
                if label is None:
                    handle.write("%d %d\n" % (vertex, neighbor))
                else:
                    handle.write("%d %d %s\n" % (vertex, neighbor, label))


def load_json(path):
    """Load a graph from the JSON format produced by :func:`save_json`."""
    data = _read(path, json.load)
    try:
        return graph_from_dict(data)
    except GraphError as exc:
        raise GraphError("cannot read graph %s: %s" % (path, exc))


def graph_from_dict(data):
    """Build a graph from an in-memory dict (``vertices`` / ``edges``).

    A ``stats`` key (written by ``save_json(..., include_stats=True)``)
    is deserialized and attached so loaded graphs keep their build-time
    statistics without recollection.  A document of any other shape is
    a :class:`GraphError`.
    """
    if not isinstance(data, dict):
        raise GraphError("not a graph document: expected an object, got %s"
                         % type(data).__name__)
    try:
        return _graph_from_dict(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphError("malformed record (%s: %s)"
                         % (type(exc).__name__, exc))


def _graph_from_dict(data):
    builder = GraphBuilder()
    for record in data.get("vertices", []):
        record = dict(record)
        record.pop("id", None)  # ids are positional
        label = record.pop("label", None)
        builder.add_vertex(label=label, **record)
    for record in data.get("edges", []):
        record = dict(record)
        src = record.pop("src")
        dst = record.pop("dst")
        label = record.pop("label", None)
        builder.add_edge(src, dst, label=label, **record)
    graph = builder.build()
    if "stats" in data:
        from repro.stats import GraphStatistics

        graph.attach_statistics(GraphStatistics.from_dict(data["stats"]))
    return graph


def save_json(graph, path, include_stats=False):
    """Write *graph* in the JSON format readable by :func:`load_json`.

    With *include_stats* the graph's collected statistics travel in the
    same document (collected first if not yet cached).
    """
    with open(path, "w") as handle:
        json.dump(graph_to_dict(graph, include_stats=include_stats), handle)


def graph_to_dict(graph, include_stats=False):
    """Serialize *graph* to a plain dict."""
    vertex_prop_names = graph.vertex_properties.names()
    edge_prop_names = graph.edge_properties.names()
    vertices = []
    for vertex in graph.vertices():
        record = {"id": vertex}
        label = graph.vertex_label_name(vertex)
        if label is not None:
            record["label"] = label
        for name in vertex_prop_names:
            record[name] = graph.vertex_prop(name, vertex)
        vertices.append(record)
    edges = []
    for edge in range(graph.num_edges):
        src, dst = graph.edge_endpoints(edge)
        record = {"src": src, "dst": dst}
        label = graph.edge_label_name(edge)
        if label is not None:
            record["label"] = label
        for name in edge_prop_names:
            record[name] = graph.edge_prop(name, edge)
        edges.append(record)
    document = {"vertices": vertices, "edges": edges}
    if include_stats:
        document["stats"] = graph.statistics().to_dict()
    return document
