"""Immutable in-memory property graph with CSR adjacency.

The graph stores directed edges in two compressed sparse row structures:
one sorted by source vertex (out-adjacency) and one by destination vertex
(in-adjacency).  Within a vertex's adjacency run, neighbors are sorted by
the opposite endpoint id, which lets edge-existence checks use binary
search.  Edge ids index the out-CSR order; the in-CSR carries the same
edge ids so that edge labels and properties are shared between the two
directions.
"""

import bisect

import numpy as np

from repro.errors import InvalidEdgeError, InvalidVertexError
from repro.graph.types import NO_LABEL


class PropertyGraph:
    """A finalized property graph. Build instances via ``GraphBuilder``."""

    def __init__(
        self,
        num_vertices,
        out_offsets,
        out_dst,
        out_edge_ids,
        in_offsets,
        in_src,
        in_edge_ids,
        edge_src,
        edge_dst,
        vertex_labels,
        edge_labels,
        vertex_props,
        edge_props,
        label_dict,
    ):
        self._num_vertices = num_vertices
        self._out_offsets = out_offsets
        self._out_dst = out_dst
        self._out_edge_ids = out_edge_ids
        self._in_offsets = in_offsets
        self._in_src = in_src
        self._in_edge_ids = in_edge_ids
        self._edge_src = edge_src
        self._edge_dst = edge_dst
        self._vertex_labels = vertex_labels
        self._edge_labels = edge_labels
        self._vertex_props = vertex_props
        self._edge_props = edge_props
        self._label_dict = label_dict
        # Lazily built plain-list mirrors of the CSR and label arrays,
        # shared by every compiled bulk kernel over this graph
        # (runtime.kernels): indexing a python list yields unboxed ints
        # at a fraction of the per-element numpy scalar cost.
        self._adjacency_lists = None
        self._vertex_labels_list = None
        self._edge_labels_list = None
        # Collected graph statistics (repro.stats), built lazily by
        # ``statistics()`` or attached eagerly by the builder/loaders.
        self._statistics = None

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self):
        return self._num_vertices

    @property
    def num_edges(self):
        return len(self._out_dst)

    @property
    def labels(self):
        """The shared label dictionary (vertex and edge labels)."""
        return self._label_dict

    def vertices(self):
        """Iterate all vertex ids."""
        return range(self._num_vertices)

    def check_vertex(self, vertex):
        if not 0 <= vertex < self._num_vertices:
            raise InvalidVertexError("vertex id out of range: %r" % (vertex,))

    def check_edge(self, edge):
        if not 0 <= edge < self.num_edges:
            raise InvalidEdgeError("edge id out of range: %r" % (edge,))

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def out_degree(self, vertex):
        return int(self._out_offsets[vertex + 1] - self._out_offsets[vertex])

    def in_degree(self, vertex):
        return int(self._in_offsets[vertex + 1] - self._in_offsets[vertex])

    def out_edges(self, vertex):
        """Return parallel arrays ``(dst, edge_ids)`` of *vertex*'s out edges.

        The returned arrays are views into graph storage; callers must not
        mutate them.
        """
        lo = self._out_offsets[vertex]
        hi = self._out_offsets[vertex + 1]
        return self._out_dst[lo:hi], self._out_edge_ids[lo:hi]

    def in_edges(self, vertex):
        """Return parallel arrays ``(src, edge_ids)`` of *vertex*'s in edges."""
        lo = self._in_offsets[vertex]
        hi = self._in_offsets[vertex + 1]
        return self._in_src[lo:hi], self._in_edge_ids[lo:hi]

    def out_neighbors(self, vertex):
        dst, _ = self.out_edges(vertex)
        return dst

    def in_neighbors(self, vertex):
        src, _ = self.in_edges(vertex)
        return src

    def edges_between(self, src, dst):
        """Return the edge ids of all parallel edges ``src -> dst``.

        Uses binary search on the dst-sorted adjacency run: O(log d + k).
        """
        lo = int(self._out_offsets[src])
        hi = int(self._out_offsets[src + 1])
        run = self._out_dst[lo:hi]
        left = bisect.bisect_left(run, dst)
        right = bisect.bisect_right(run, dst, lo=left)
        return [int(self._out_edge_ids[lo + i]) for i in range(left, right)]

    def in_edges_from(self, dst, src):
        """Edge ids of parallel edges ``src -> dst`` found via *dst*'s
        in-adjacency (binary search on the src-sorted in run).

        Unlike :meth:`edges_between`, this only touches *dst*'s adjacency,
        so a machine owning *dst* can evaluate it locally.
        """
        lo = int(self._in_offsets[dst])
        hi = int(self._in_offsets[dst + 1])
        run = self._in_src[lo:hi]
        left = bisect.bisect_left(run, src)
        right = bisect.bisect_right(run, src, lo=left)
        return [int(self._in_edge_ids[lo + i]) for i in range(left, right)]

    def adjacency_lists(self):
        """Both CSR structures as cached plain python lists.

        Returns ``(out_offsets, out_dst, out_edge_ids, in_offsets,
        in_src, in_edge_ids)``.  Built once per graph (one bulk
        ``tolist`` per array) for the compiled bulk kernels; read-only
        by convention.
        """
        lists = self._adjacency_lists
        if lists is None:
            lists = (
                self._out_offsets.tolist(),
                self._out_dst.tolist(),
                self._out_edge_ids.tolist(),
                self._in_offsets.tolist(),
                self._in_src.tolist(),
                self._in_edge_ids.tolist(),
            )
            self._adjacency_lists = lists
        return lists

    def has_edge(self, src, dst):
        lo = int(self._out_offsets[src])
        hi = int(self._out_offsets[src + 1])
        run = self._out_dst[lo:hi]
        index = bisect.bisect_left(run, dst)
        return index < len(run) and run[index] == dst

    def edge_destination(self, edge):
        return int(self._edge_dst[edge])

    def edge_endpoints(self, edge):
        """Return ``(src, dst)`` of *edge* in O(1)."""
        self.check_edge(edge)
        return int(self._edge_src[edge]), int(self._edge_dst[edge])

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def vertex_label(self, vertex):
        """Return the label id of *vertex* (``NO_LABEL`` if unlabeled)."""
        if self._vertex_labels is None:
            return NO_LABEL
        return int(self._vertex_labels[vertex])

    def edge_label(self, edge):
        """Return the label id of *edge* (``NO_LABEL`` if unlabeled)."""
        if self._edge_labels is None:
            return NO_LABEL
        return int(self._edge_labels[edge])

    def vertex_labels_list(self):
        """Vertex label ids as a cached plain list (None if unlabeled)."""
        if self._vertex_labels is None:
            return None
        labels = self._vertex_labels_list
        if labels is None:
            labels = self._vertex_labels.tolist()
            self._vertex_labels_list = labels
        return labels

    def edge_labels_list(self):
        """Edge label ids as a cached plain list (None if unlabeled)."""
        if self._edge_labels is None:
            return None
        labels = self._edge_labels_list
        if labels is None:
            labels = self._edge_labels.tolist()
            self._edge_labels_list = labels
        return labels

    def vertex_label_name(self, vertex):
        label = self.vertex_label(vertex)
        return None if label == NO_LABEL else self._label_dict.name(label)

    def edge_label_name(self, edge):
        label = self.edge_label(edge)
        return None if label == NO_LABEL else self._label_dict.name(label)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def vertex_properties(self):
        return self._vertex_props

    @property
    def edge_properties(self):
        return self._edge_props

    def vertex_prop(self, name, vertex):
        return self._vertex_props.get(name, vertex)

    def edge_prop(self, name, edge):
        return self._edge_props.get(name, edge)

    def has_vertex_prop(self, name):
        return name in self._vertex_props

    def has_edge_prop(self, name):
        return name in self._edge_props

    # ------------------------------------------------------------------
    # Statistics (repro.stats collection hooks)
    # ------------------------------------------------------------------
    def degree_arrays(self):
        """Return ``(out_degrees, in_degrees)`` as numpy arrays."""
        return np.diff(self._out_offsets), np.diff(self._in_offsets)

    def vertex_labels_array(self):
        """Vertex label ids as a numpy array (None if unlabeled)."""
        return self._vertex_labels

    def edge_labels_array(self):
        """Edge label ids as a numpy array (None if unlabeled)."""
        return self._edge_labels

    def edge_endpoint_arrays(self):
        """Parallel ``(src, dst)`` arrays indexed by edge id."""
        return self._edge_src, self._edge_dst

    def statistics(self, refresh=False):
        """This graph's collected :class:`~repro.stats.GraphStatistics`.

        Computed on first use and cached (the graph is immutable, so the
        statistics never go stale); *refresh* forces recollection, e.g.
        after attaching deserialized statistics from an older snapshot.
        """
        stats = self._statistics
        if stats is None or refresh:
            from repro.stats import collect_statistics

            stats = collect_statistics(self)
            self._statistics = stats
        return stats

    def attach_statistics(self, stats):
        """Adopt pre-collected statistics (deserialized or build-time)."""
        self._statistics = stats

    def __repr__(self):
        return "PropertyGraph(vertices=%d, edges=%d)" % (
            self.num_vertices,
            self.num_edges,
        )
