"""PGX.D's computational model: bulk-synchronous vertex programs.

PGX.D — the substrate PGX.D/Async extends — "implements a relaxed
version of the bulk-synchronous model, where graph algorithms proceed
with global steps ... suitable for algorithms, such as PageRank, that
iteratively traverse the (whole) graph" (paper §2).  This module
provides that computational side on the same simulated cluster the
pattern-matching runtime uses: a Pregel-style vertex-centric BSP engine
with supersteps, message combining, vote-to-halt semantics, and global
aggregators.

Superstep barrier: after computing all its active vertices, a machine
flushes its per-destination message buffers and then broadcasts a
``StepDone`` control message.  Because the network is FIFO per channel,
a machine that has received every peer's ``StepDone`` for superstep *s*
has necessarily received all of their superstep-(s+1) messages too —
the same ordering argument the pattern-matching termination protocol
uses.  The computation halts after a superstep in which no vertex
remained active and no messages were sent.
"""

from collections import defaultdict

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import MachineMetrics
from repro.cluster.simulator import Simulator
from repro.errors import RuntimeFault
from repro.graph.distributed import DistributedGraph


class VertexProgram:
    """Base class for vertex-centric BSP algorithms.

    Subclasses implement :meth:`init` and :meth:`compute`.  During
    ``compute`` the program interacts with the runtime through the
    :class:`ComputeContext` (send messages, vote to halt, read
    adjacency, read the previous superstep's global aggregate).
    """

    #: Optional commutative/associative message combiner applied on the
    #: sender: a callable ``(value, value) -> value`` (e.g. ``min`` or
    #: ``operator.add``), or None to deliver every message individually.
    combiner = None

    #: Upper bound on supersteps (safety net; programs normally halt).
    max_supersteps = 100

    def init(self, ctx, vertex):
        """Return the initial state of *vertex* (superstep -1)."""
        raise NotImplementedError

    def compute(self, ctx, vertex, state, messages):
        """One superstep for one vertex; returns the new state.

        *messages* is the (possibly combined) list of values sent to
        this vertex in the previous superstep.  Call ``ctx.send`` to
        message other vertices and ``ctx.vote_to_halt()`` to
        deactivate; a vertex reactivates when it receives a message.
        """
        raise NotImplementedError

    def aggregate(self, state):
        """Optional: this vertex's contribution to the global aggregate.

        Contributions are summed across all vertices each superstep and
        exposed as ``ctx.previous_aggregate`` in the next one.
        """
        return 0

    def finish(self, state):
        """Map the final state to the reported per-vertex value."""
        return state


class ComputeContext:
    """The API surface a vertex program sees during ``compute``."""

    __slots__ = ("_machine", "superstep", "previous_aggregate", "_vertex",
                 "_halted")

    def __init__(self, machine):
        self._machine = machine
        self.superstep = 0
        self.previous_aggregate = 0
        self._vertex = None
        self._halted = False

    # -- adjacency (local partition: locality discipline enforced) -----
    def out_neighbors(self):
        dst, _ = self._machine.local.out_edges(self._vertex)
        return dst

    def in_neighbors(self):
        src, _ = self._machine.local.in_edges(self._vertex)
        return src

    def out_edges(self):
        return self._machine.local.out_edges(self._vertex)

    def out_degree(self):
        return self._machine.local.out_degree(self._vertex)

    def num_vertices(self):
        return self._machine.graph.num_vertices

    def edge_prop(self, name, edge):
        return self._machine.local.edge_prop(name, edge)

    def vertex_prop(self, name):
        return self._machine.local.vertex_prop(name, self._vertex)

    # -- messaging ------------------------------------------------------
    def send(self, target, value):
        self._machine.queue_message(target, value)

    def vote_to_halt(self):
        self._halted = True


class StepMessages:
    """Bulk of BSP messages for one destination machine."""

    __slots__ = ("superstep", "entries")

    def __init__(self, superstep, entries):
        self.superstep = superstep
        self.entries = entries  # tuple of (vertex, value)

    def __len__(self):
        return len(self.entries)


class StepDone:
    """Barrier vote: sender finished *superstep*."""

    __slots__ = ("superstep", "active", "sent", "aggregate")

    def __init__(self, superstep, active, sent, aggregate):
        self.superstep = superstep
        self.active = active
        self.sent = sent
        self.aggregate = aggregate


class BspMachine:
    """One simulated machine of the BSP engine."""

    def __init__(self, program, dist_graph, machine_id, api, config):
        self.program = program
        self.graph = dist_graph.graph
        self.local = dist_graph.local(machine_id)
        self.machine_id = machine_id
        self.api = api
        self.config = config
        self.metrics = MachineMetrics()

        self.ctx = ComputeContext(self)
        self.superstep = 0
        self.states = {}
        self.halted = set()
        self._local_vertices = [int(v) for v in self.local.local_vertices()]
        #: Inboxes: superstep -> vertex -> list of values.
        self._inbox = defaultdict(lambda: defaultdict(list))
        #: Outgoing buffers for the *next* superstep, per machine.
        self._outgoing = defaultdict(list)
        self._pending = None  # vertices still to compute this superstep
        self._initialized = False
        self._flushed = False
        self._done_votes = {}  # superstep -> list of StepDone
        self._sent_count = 0
        self._finished = False

    # ------------------------------------------------------------------
    # Simulator interface
    # ------------------------------------------------------------------
    def on_message(self, src, payload):
        if isinstance(payload, StepMessages):
            inbox = self._inbox[payload.superstep]
            combiner = self.program.combiner
            for vertex, value in payload.entries:
                if combiner is not None and inbox[vertex]:
                    inbox[vertex][0] = combiner(inbox[vertex][0], value)
                else:
                    inbox[vertex].append(value)
            self.metrics.buffered_delta(len(payload.entries))
        elif isinstance(payload, StepDone):
            self._done_votes.setdefault(payload.superstep, []).append(payload)
        else:
            raise RuntimeFault("unknown BSP payload: %r" % (payload,))

    def worker_step(self, worker_index, budget):
        if self._finished:
            return 0
        ops = 0
        if not self._initialized:
            ops += self._initialize(budget)
            if not self._initialized or ops >= budget:
                self.metrics.ops += ops
                return ops
        while ops < budget:
            if self._pending:
                ops += self._compute_one()
                continue
            if not self._flushed:
                ops += self._flush_and_vote()
                continue
            if self._try_advance():
                continue
            break  # waiting on the barrier
        self.metrics.ops += ops
        if ops == 0:
            self.metrics.idle_ticks += 1
        return ops

    def is_finished(self):
        return self._finished

    # ------------------------------------------------------------------
    def _initialize(self, budget):
        ops = 0
        start = getattr(self, "_init_pos", 0)
        for index in range(start, len(self._local_vertices)):
            vertex = self._local_vertices[index]
            self.ctx._vertex = vertex
            self.states[vertex] = self.program.init(self.ctx, vertex)
            ops += 1
            if ops >= budget:
                self._init_pos = index + 1
                return ops
        self._initialized = True
        self._pending = list(self._local_vertices)
        return ops

    def _compute_one(self):
        vertex = self._pending.pop()
        inbox = self._inbox[self.superstep]
        messages = inbox.pop(vertex, [])
        if messages:
            self.metrics.buffered_delta(-len(messages))
            self.halted.discard(vertex)
        if vertex in self.halted:
            return 1
        ctx = self.ctx
        ctx._vertex = vertex
        ctx._halted = False
        ctx.superstep = self.superstep
        self.states[vertex] = self.program.compute(
            ctx, vertex, self.states[vertex], messages
        )
        if ctx._halted:
            self.halted.add(vertex)
        return 1 + len(messages)

    def queue_message(self, target, value):
        """Route a message to *target* for the next superstep."""
        owner = self.local.owner(target)
        self._sent_count += 1
        if owner == self.machine_id:
            inbox = self._inbox[self.superstep + 1]
            combiner = self.program.combiner
            if combiner is not None and inbox[target]:
                inbox[target][0] = combiner(inbox[target][0], value)
            else:
                inbox[target].append(value)
            return
        buffer = self._outgoing[owner]
        buffer.append((target, value))
        if len(buffer) >= self.config.bulk_message_size:
            self._ship(owner)

    def _ship(self, owner):
        buffer = self._outgoing[owner]
        if not buffer:
            return
        message = StepMessages(self.superstep + 1, tuple(buffer))
        del buffer[:]
        self.api.send(owner, message, size=len(message))
        self.metrics.work_messages_sent += 1
        self.metrics.contexts_sent += len(message)

    def _flush_and_vote(self):
        ops = 0
        for owner in sorted(self._outgoing):
            if self._outgoing[owner]:
                self._ship(owner)
                ops += self.config.message_send_cost
        aggregate = sum(
            self.program.aggregate(state) for state in self.states.values()
        )
        active = sum(
            1 for vertex in self._local_vertices if vertex not in self.halted
        )
        vote = StepDone(self.superstep, active, self._sent_count, aggregate)
        self._done_votes.setdefault(self.superstep, []).append(vote)
        for machine in range(self.config.num_machines):
            if machine != self.machine_id:
                self.api.send(machine, StepDone(
                    self.superstep, active, self._sent_count, aggregate
                ))
                self.metrics.control_messages_sent += 1
        self._sent_count = 0
        self._flushed = True
        return ops + 1

    def _try_advance(self):
        votes = self._done_votes.get(self.superstep, [])
        if len(votes) < self.config.num_machines:
            return False
        total_active = sum(vote.active for vote in votes)
        total_sent = sum(vote.sent for vote in votes)
        total_aggregate = sum(vote.aggregate for vote in votes)
        finished_step = self.superstep
        if (total_active == 0 and total_sent == 0) or \
                finished_step + 1 >= self.program.max_supersteps:
            self._finished = True
            return False
        self.superstep += 1
        self.ctx.previous_aggregate = total_aggregate
        self._flushed = False
        # Vertices with pending messages plus still-active ones compute.
        inbox = self._inbox[self.superstep]
        pending = set(inbox.keys())
        pending.update(
            vertex for vertex in self._local_vertices
            if vertex not in self.halted
        )
        self._pending = sorted(pending, reverse=True)
        return True

    def final_values(self):
        return {
            vertex: self.program.finish(state)
            for vertex, state in self.states.items()
        }


class AnalyticsResult:
    """Outcome of a BSP computation."""

    def __init__(self, values, metrics, supersteps):
        self.values = values          # dict vertex -> value
        self.metrics = metrics
        self.supersteps = supersteps

    def __repr__(self):
        return "AnalyticsResult(vertices=%d, supersteps=%d, ticks=%d)" % (
            len(self.values), self.supersteps, self.metrics.ticks,
        )


class BspEngine:
    """PGX.D-style bulk-synchronous analytics over the simulated cluster.

    Shares the cluster substrate (and optionally the partitioned graph)
    with :class:`~repro.runtime.engine.PgxdAsyncEngine`, mirroring how
    PGX.D/Async coexists with PGX.D's computational workloads.
    """

    def __init__(self, graph, config=None, partitioner=None):
        self.config = config or ClusterConfig()
        if isinstance(graph, DistributedGraph):
            self.dist_graph = graph
        else:
            self.dist_graph = DistributedGraph.create(
                graph, self.config.num_machines, partitioner=partitioner
            )
        self.graph = self.dist_graph.graph

    def run(self, program):
        """Execute *program* to convergence; returns AnalyticsResult."""
        simulator = Simulator(self.config)
        machines = [
            BspMachine(program, self.dist_graph, machine_id,
                       simulator.api_for(machine_id), self.config)
            for machine_id in range(self.config.num_machines)
        ]
        simulator.attach(machines)
        metrics = simulator.run()
        values = {}
        for machine in machines:
            values.update(machine.final_values())
        supersteps = machines[0].superstep + 1
        return AnalyticsResult(values, metrics, supersteps)
