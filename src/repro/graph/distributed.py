"""Distributed view of a property graph.

A :class:`DistributedGraph` pairs a :class:`PropertyGraph` with a
:class:`Partition` and exposes one :class:`LocalPartition` per simulated
machine.  Because the whole simulation runs in a single process, the local
partitions *share* the underlying graph arrays; distribution semantics are
preserved by discipline: a ``LocalPartition`` only answers queries about
vertices it owns and raises :class:`RemoteAccessError` otherwise.  This
turns planner/runtime bugs that would require network round-trips on real
hardware into hard failures, which is exactly what the paper's planning
pipeline (inspection steps + context captures) exists to prevent.

Edge data (labels, properties) is accessible from both endpoint machines,
matching PGX.D where cross-partition edges are materialized on both sides.

**Ghost nodes.**  PGX.D replicates the data of high-degree vertices on
every machine ("ghost nodes"; the paper's experiments disable this
feature, and our benchmarks follow suit by default).  When a ghost
threshold is set, every vertex with total degree at or above it has its
*properties and label* — not its adjacency — readable from any machine,
which lets the runtime pre-filter remote hops to hub vertices before
paying for a message.
"""

from repro.errors import ClusterConfigError, RemoteAccessError
from repro.graph.partition import EdgeBalancedRandomPartitioner


class DistributedGraph:
    """A property graph partitioned over M simulated machines."""

    def __init__(self, graph, partition, ghost_threshold=None):
        if partition.num_vertices != graph.num_vertices:
            raise ValueError(
                "partition covers %d vertices but graph has %d"
                % (partition.num_vertices, graph.num_vertices)
            )
        self._graph = graph
        self._partition = partition
        self._ghosts = _select_ghosts(graph, ghost_threshold)
        self._locals = [
            LocalPartition(graph, partition, machine, self._ghosts)
            for machine in range(partition.num_machines)
        ]

    @classmethod
    def create(cls, graph, num_machines, partitioner=None,
               ghost_threshold=None):
        """Partition *graph* over *num_machines* with *partitioner*.

        Defaults to the paper's edge-balanced random partitioner with
        ghost nodes disabled (the paper's experimental configuration).
        """
        if partitioner is None:
            partitioner = EdgeBalancedRandomPartitioner()
        return cls(
            graph,
            partitioner.partition(graph, num_machines),
            ghost_threshold=ghost_threshold,
        )

    @classmethod
    def for_cluster(cls, graph, num_machines, partitioner=None):
        """The distributed graph an engine over *num_machines* machines
        runs on: *graph* itself when it is already partitioned (which
        must be over exactly that many machines), else a fresh
        partitioning of it."""
        if not isinstance(graph, cls):
            return cls.create(graph, num_machines, partitioner=partitioner)
        if graph.num_machines != num_machines:
            raise ClusterConfigError(
                "distributed graph has %d machines but config asks for %d"
                % (graph.num_machines, num_machines)
            )
        return graph

    @property
    def num_ghosts(self):
        return len(self._ghosts)

    @property
    def graph(self):
        """The underlying global graph (for baselines and verification)."""
        return self._graph

    @property
    def partition(self):
        return self._partition

    @property
    def num_machines(self):
        return self._partition.num_machines

    def local(self, machine):
        """The :class:`LocalPartition` for *machine*."""
        return self._locals[machine]

    def owner(self, vertex):
        return self._partition.owner(vertex)

    def __repr__(self):
        return "DistributedGraph(machines=%d, vertices=%d, edges=%d)" % (
            self.num_machines,
            self._graph.num_vertices,
            self._graph.num_edges,
        )


def _select_ghosts(graph, threshold):
    """Vertex ids whose total degree reaches *threshold* (None = none)."""
    if threshold is None:
        return frozenset()
    ghosts = set()
    for vertex in graph.vertices():
        if graph.out_degree(vertex) + graph.in_degree(vertex) >= threshold:
            ghosts.add(vertex)
    return frozenset(ghosts)


class LocalPartition:
    """The slice of the graph owned by one machine.

    All accessors check ownership; see the module docstring.
    """

    def __init__(self, graph, partition, machine, ghosts=frozenset()):
        self._graph = graph
        self._partition = partition
        self._machine = machine
        self._local_vertices = partition.local_vertices(machine)
        self._ghosts = ghosts

    @property
    def machine(self):
        return self._machine

    @property
    def num_local_vertices(self):
        return len(self._local_vertices)

    def local_vertices(self):
        """Numpy array of vertex ids owned by this machine."""
        return self._local_vertices

    def is_local(self, vertex):
        return self._partition.owner(vertex) == self._machine

    def owner(self, vertex):
        """Owner lookup is global knowledge, allowed from any machine."""
        return self._partition.owner(vertex)

    def _require_local(self, vertex, operation):
        if not self.is_local(vertex):
            raise RemoteAccessError(
                "machine %d attempted %s on vertex %d owned by machine %d"
                % (
                    self._machine,
                    operation,
                    vertex,
                    self._partition.owner(vertex),
                )
            )

    # ------------------------------------------------------------------
    # Adjacency (local vertices only)
    # ------------------------------------------------------------------
    def out_edges(self, vertex):
        self._require_local(vertex, "out_edges")
        return self._graph.out_edges(vertex)

    def in_edges(self, vertex):
        self._require_local(vertex, "in_edges")
        return self._graph.in_edges(vertex)

    def out_degree(self, vertex):
        self._require_local(vertex, "out_degree")
        return self._graph.out_degree(vertex)

    def in_degree(self, vertex):
        self._require_local(vertex, "in_degree")
        return self._graph.in_degree(vertex)

    def edges_between(self, src, dst):
        """Parallel edges ``src -> dst``; requires *src* to be local."""
        self._require_local(src, "edges_between")
        return self._graph.edges_between(src, dst)

    def in_edges_from(self, dst, src):
        """Parallel edges ``src -> dst`` via *dst*'s local in-adjacency."""
        self._require_local(dst, "in_edges_from")
        return self._graph.in_edges_from(dst, src)

    # ------------------------------------------------------------------
    # Ghost nodes
    # ------------------------------------------------------------------
    def is_ghost(self, vertex):
        """Whether *vertex*'s data is replicated on every machine."""
        return vertex in self._ghosts

    def is_readable(self, vertex):
        """Local or ghost: properties and label may be read here."""
        return self.is_local(vertex) or vertex in self._ghosts

    # ------------------------------------------------------------------
    # Labels and properties
    # ------------------------------------------------------------------
    def vertex_label(self, vertex):
        if vertex not in self._ghosts:
            self._require_local(vertex, "vertex_label")
        return self._graph.vertex_label(vertex)

    def vertex_prop(self, name, vertex):
        if vertex not in self._ghosts:
            self._require_local(vertex, "vertex_prop")
        return self._graph.vertex_prop(name, vertex)

    def edge_label(self, edge):
        # Edge data is replicated on both endpoint machines; no check.
        return self._graph.edge_label(edge)

    def edge_prop(self, name, edge):
        return self._graph.edge_prop(name, edge)

    def __repr__(self):
        return "LocalPartition(machine=%d, vertices=%d)" % (
            self._machine,
            self.num_local_vertices,
        )
