"""Synthetic graph generators.

All generators are deterministic given a seed.  The uniform random graph
mirrors the "artificial uniformly random graph" of the paper's second
experiment (scaled down per DESIGN.md §2).
"""

import random

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder


def uniform_random_graph(
    num_vertices,
    num_edges,
    seed=0,
    num_types=8,
    edge_labels=("linked",),
    value_range=10_000,
):
    """Uniform random multigraph with generic query-friendly properties.

    Every vertex gets ``type`` (int in ``[0, num_types)``) and ``value``
    (int in ``[0, value_range)``); every edge gets a label drawn uniformly
    from *edge_labels* and a ``weight`` double in ``[0, 1)``.  Self loops
    are permitted, as in a true uniform model.
    """
    if num_edges < 0 or (num_edges and num_vertices < 1):
        raise GraphError(
            "uniform random graph needs E >= 0 and, with edges, V >= 1 "
            "(got V=%d, E=%d)" % (num_vertices, num_edges)
        )
    rng = random.Random(seed)
    builder = GraphBuilder()
    for _ in range(num_vertices):
        builder.add_vertex(
            type=rng.randrange(num_types),
            value=rng.randrange(value_range),
        )
    for _ in range(num_edges):
        src = rng.randrange(num_vertices)
        dst = rng.randrange(num_vertices)
        builder.add_edge(
            src,
            dst,
            label=rng.choice(edge_labels),
            weight=rng.random(),
        )
    return builder.build()


def chain_graph(length, label="next", **vertex_props):
    """A directed path ``0 -> 1 -> ... -> length-1`` (tests and examples)."""
    builder = GraphBuilder()
    for index in range(length):
        props = {name: values[index] for name, values in vertex_props.items()}
        builder.add_vertex(**props)
    for index in range(length - 1):
        builder.add_edge(index, index + 1, label=label)
    return builder.build()


def star_graph(num_leaves, direction="out", hub_label=None, leaf_label=None):
    """A hub with *num_leaves* leaves; ``direction`` is hub-relative."""
    builder = GraphBuilder()
    hub = builder.add_vertex(label=hub_label)
    for _ in range(num_leaves):
        leaf = builder.add_vertex(label=leaf_label)
        if direction == "out":
            builder.add_edge(hub, leaf)
        else:
            builder.add_edge(leaf, hub)
    return builder.build()


def complete_graph(num_vertices, label=None):
    """All ordered pairs (no self loops)."""
    builder = GraphBuilder()
    for _ in range(num_vertices):
        builder.add_vertex()
    for src in range(num_vertices):
        for dst in range(num_vertices):
            if src != dst:
                builder.add_edge(src, dst, label=label)
    return builder.build()


def power_law_graph(num_vertices, num_edges, seed=0, exponent=2.0,
                    num_types=8, value_range=10_000):
    """Random graph with (approximately) power-law out-degrees.

    Sources are drawn from a Zipf-like distribution over vertices,
    destinations uniformly — a cheap stand-in for scale-free real graphs
    used in skew/imbalance ablations.
    """
    rng = random.Random(seed)
    builder = GraphBuilder()
    for _ in range(num_vertices):
        builder.add_vertex(
            type=rng.randrange(num_types),
            value=rng.randrange(value_range),
        )
    # Inverse-CDF sampling from an unnormalized Zipf over ranks.
    weights = [1.0 / ((rank + 1) ** exponent) for rank in range(num_vertices)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cumulative.append(acc / total)
    import bisect

    for _ in range(num_edges):
        src = bisect.bisect_left(cumulative, rng.random())
        src = min(src, num_vertices - 1)
        dst = rng.randrange(num_vertices)
        builder.add_edge(src, dst, label="linked", weight=rng.random())
    return builder.build()
