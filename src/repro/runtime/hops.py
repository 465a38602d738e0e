"""Stage semantics (paper §3.1–3.2): the vertex function and hop engines.

A stage is a *vertex function* (label check, distinctness, filters,
induced check, captures) followed by a *hop engine* that produces the
continuations for the next stage.  This module states both once, as a
reference interpreter over the plan's ``CompiledStage``/``CompiledHop``:

* :func:`vertex_function` (with :func:`vertex_admissible` as its
  adjacency-free prefix, which the ghost pre-filter runs on the sending
  machine);
* :func:`hop_steps`, a generator yielding one ``(scanned, target,
  item)`` per micro-operation of the hop.

Everything that executes a plan without generated code is a *scheduler*
over these two functions: :class:`HopCursor` (the distributed runtime's
micro-stepped executor — one step per ``advance`` so the simulator can
charge costs precisely and a worker can suspend mid-hop when flow
control blocks a send), the depth-first shared-memory baseline and the
level-synchronous BFT baseline.  The only other statement of the
semantics is the code generator in ``runtime.kernels``.

*graph* supplies labels (global knowledge); *adjacency* supplies
``out_edges``/``in_edges``/``edges_between``/``in_edges_from`` — a
machine's ownership-checking ``LocalPartition`` on a cluster, the graph
itself in shared memory.
"""

import enum

from repro.errors import RuntimeFault
from repro.graph.types import Direction
from repro.plan.distributed import HopKind


class Advance(enum.Enum):
    PROGRESS = "progress"      # did one unit of work, call again
    EXHAUSTED = "exhausted"    # hop finished; pop the frame
    BLOCKED = "blocked"        # a send was refused; computation must park


#: The ``item`` of an OUTPUT hop's single producing step: the context
#: the hop ran on is a completed match.
RESULT = object()


class AllScanItem:
    """Work item for an ALL_VERTICES broadcast: scan the local vertices
    of machine ``dest`` (every machine gets one per context)."""

    __slots__ = ("ctx", "dest")

    def __init__(self, ctx, dest=None):
        self.ctx = ctx
        self.dest = dest


class CNItem:
    """Work item for a CN_PROBE stage: base context plus candidates.

    ``candidates`` is a tuple of ``(vertex, appendix)`` pairs where the
    appendix carries the collected left-edge captures for that candidate.
    """

    __slots__ = ("ctx", "candidates")

    def __init__(self, ctx, candidates):
        self.ctx = ctx
        self.candidates = candidates

    def __len__(self):
        return 1 + len(self.candidates)


# ----------------------------------------------------------------------
# The vertex function
# ----------------------------------------------------------------------
def vertex_admissible(graph, stage, ctx, vertex):
    """The adjacency-free part of the vertex function: label check,
    vertex-distinctness, compiled filters."""
    if stage.label_id is not None and \
            graph.vertex_label(vertex) != stage.label_id:
        return False
    for slot in stage.iso_vertex_slots:
        if ctx[slot] == vertex:
            return False
    if stage.filter is not None and not stage.filter(ctx, vertex, -1):
        return False
    return True


def vertex_function(graph, adjacency, stage, ctx, vertex):
    """Run *stage*'s checks on *vertex*; returns the context extended
    with the stage's captures, or None when the vertex fails."""
    if not vertex_admissible(graph, stage, ctx, vertex):
        return None
    for slot in stage.forbidden_slots:
        if adjacency.edges_between(vertex, ctx[slot]):
            return None
    if stage.captures:
        ctx = ctx + tuple(capture(vertex) for capture in stage.captures)
    return ctx


# ----------------------------------------------------------------------
# The hop engines
# ----------------------------------------------------------------------
def _edge_accepted(graph, hop, ctx, vertex, eid):
    """Edge admission test: label, edge-distinctness, filter."""
    if hop.edge_label_id is not None and \
            graph.edge_label(eid) != hop.edge_label_id:
        return False
    for slot in hop.iso_edge_slots:
        if ctx[slot] == eid:
            return False
    if hop.edge_filter is not None and not hop.edge_filter(ctx, vertex, eid):
        return False
    return True


def _extend(hop, ctx, eid, target):
    """The continuation past edge *eid*: the hop's edge captures, then
    the target id when the next stage matches a new vertex."""
    if hop.edge_captures:
        ctx = ctx + tuple(capture(eid) for capture in hop.edge_captures)
    if hop.appends_target_id:
        ctx = ctx + (target,)
    return ctx


def _edge_step(graph, hop, ctx, vertex, eid, target):
    """Inspect one edge towards *target*: a continuation, or nothing."""
    if _edge_accepted(graph, hop, ctx, vertex, eid):
        return 1, target, _extend(hop, ctx, eid, target)
    return 1, target, None


def hop_steps(graph, adjacency, hop, ctx, vertex, num_machines=1,
              candidates=()):
    """The micro-operations of *hop* leaving *vertex* with context *ctx*
    (the vertex function's result), one ``(scanned, target, item)`` each.

    ``scanned`` is the number of adjacency entries the step inspected (0
    or 1); ``item`` is what it produced for the next stage at vertex
    ``target``: a continuation context, a :class:`CNItem`, an
    :class:`AllScanItem` (which names its destination machine instead),
    :data:`RESULT` for a completed match, or None for a step that
    produced nothing.  A scheduler charges ``hop.work_cost`` per step;
    the distributed runtime charges once more for the pull that finds
    the generator exhausted.  *candidates* is the ``CNItem`` payload a
    CN_PROBE stage was entered with.
    """
    kind = hop.kind
    if kind is HopKind.OUTPUT:
        yield 0, vertex, RESULT
    elif kind is HopKind.NEIGHBOR:
        if hop.direction is Direction.OUT:
            neighbors, edge_ids = adjacency.out_edges(vertex)
        else:
            neighbors, edge_ids = adjacency.in_edges(vertex)
        for target, eid in zip(neighbors.tolist(), edge_ids.tolist()):
            yield _edge_step(graph, hop, ctx, vertex, eid, target)
    elif kind is HopKind.VERTEX:
        # Hop to one bound vertex.  Without an edge requirement this is
        # a pure inspection step; with one, each matching parallel edge
        # produces its own continuation so that a bound edge variable
        # enumerates them all.
        target = ctx[hop.target_slot]
        if hop.edge_req_orientation is None:
            yield 0, target, ctx
            return
        if hop.edge_req_orientation == "current_to_target":
            edge_ids = adjacency.edges_between(vertex, target)
        else:  # target_to_current: scan the current vertex's in-adjacency
            edge_ids = adjacency.in_edges_from(vertex, target)
        for eid in edge_ids:
            yield _edge_step(graph, hop, ctx, vertex, eid, target)
    elif kind is HopKind.ALL_VERTICES:
        # Cartesian restart: broadcast the context to every machine.
        for machine in range(num_machines):
            yield 0, None, AllScanItem(ctx, machine)
    elif kind is HopKind.CN_COLLECT:
        # Phase one of the specialized common-neighbor hop (paper §5):
        # collect the current vertex's qualifying out-neighbors, then
        # ship (context, candidates) to the *other* bound source vertex,
        # which probes them against its own out-adjacency — "exchanging
        # the edges of one another" instead of one message per neighbor.
        neighbors, edge_ids = adjacency.out_edges(vertex)
        collected = []
        for target, eid in zip(neighbors.tolist(), edge_ids.tolist()):
            if _edge_accepted(graph, hop, ctx, vertex, eid):
                collected.append((target, tuple(
                    capture(eid) for capture in hop.edge_captures
                )))
            yield 1, target, None
        if collected:
            yield 0, ctx[hop.target_slot], CNItem(ctx, tuple(collected))
    elif kind is HopKind.CN_PROBE:
        # Phase two: intersect the candidates with this vertex's edges.
        for target, appendix in candidates or ():
            edge_ids = adjacency.edges_between(vertex, target)
            yield 0, target, None
            base_ctx = ctx + appendix
            for eid in edge_ids:
                yield _edge_step(graph, hop, base_ctx, vertex, eid, target)
    else:
        raise RuntimeFault("unknown hop kind: %r" % (kind,))


class HopCursor:
    """The distributed runtime's scheduler over :func:`hop_steps`.

    Each :meth:`advance` pulls one step, counts what it scanned and
    routes what it produced through the per-machine runtime facade *rt*
    (:class:`repro.runtime.machine.QueryMachine`).  A step whose send is
    refused is kept and replayed on the next advance, counting its
    ``scanned`` again — the blocked attempt is real work.
    """

    __slots__ = ("_steps", "_refused", "_ghost_filtered")

    def __init__(self, stage, frame, rt):
        hop = stage.hop
        self._steps = hop_steps(
            rt.graph, rt.local, hop, frame.ctx, frame.vertex,
            rt.num_machines, frame.cn_payload,
        )
        self._refused = None
        self._ghost_filtered = \
            hop.kind is HopKind.NEIGHBOR and hop.appends_target_id

    def advance(self, rt, comp, frame):
        step = self._refused
        if step is None:
            step = next(self._steps, None)
            if step is None:
                return Advance.EXHAUSTED
        else:
            self._refused = None
        scanned, target, item = step
        rt.metrics.stage_scanned[frame.stage_index] += scanned
        if item is None:
            return Advance.PROGRESS
        if item is RESULT:
            rt.emit_result(frame.ctx)
            return Advance.PROGRESS
        next_stage = frame.stage_index + 1
        if item.__class__ is AllScanItem:
            dest = item.dest
        else:
            dest = rt.owner(target)
            if self._ghost_filtered and dest != rt.machine_id and \
                    not rt.ghost_admits(next_stage, item, target):
                # Ghost-node pre-filter: the target's replicated data
                # already fails the next stage — skip the message.
                return Advance.PROGRESS
        if rt.route(comp, next_stage, dest, item):
            return Advance.PROGRESS
        self._refused = step
        return Advance.BLOCKED
