"""Traversal frames, computations, and the worker DOWORK loop.

A *computation* is the in-place depth-first traversal of the graph
within one machine by one or more stages (paper §3.3): an explicit stack
of frames, rooted either at the bootstrap scan (stage 0) or at a
received work message.  Workers keep at most one parked computation per
root stage — the paper's ``State[n, w]`` — and the DOWORK loop services
stages in descending order so that later-stage work (which produces less
net future work) drains first, relieving memory pressure.

The loop decides *which* computation runs; ``runtime.kernels.run_bulk``
advances it, through the machine's kernel set (``rt.kernels.run``):
generated kernels by default, the reference ``HopCursor`` kernels with
kernels off and in blocking mode.
"""

import enum

from repro.obs.events import FlowUnblock, WorkerSpan
from repro.runtime.hops import AllScanItem, CNItem


class StageFrame:
    """The traversal positioned at one vertex of one stage."""

    __slots__ = ("stage_index", "ctx", "vertex", "phase", "cursor",
                 "cn_payload")

    def __init__(self, stage_index, ctx, vertex, cn_payload=None):
        self.stage_index = stage_index
        self.ctx = ctx
        self.vertex = vertex
        self.phase = 0  # 0 = vertex function pending, 1 = hopping
        self.cursor = None
        self.cn_payload = cn_payload


class ScanFrame:
    """Iterates a set of vertices, spawning a StageFrame for each.

    Used for bootstrapping stage 0 (all local vertices, or the single
    origin vertex) and for ALL_VERTICES cartesian restarts.
    """

    __slots__ = ("stage_index", "base_ctx", "vertices", "pos")

    def __init__(self, stage_index, base_ctx, vertices):
        self.stage_index = stage_index
        self.base_ctx = base_ctx
        # Convert numpy vertex arrays to plain ints once per frame:
        # the scan loop then indexes python ints directly instead of
        # boxing one numpy scalar per element.
        tolist = getattr(vertices, "tolist", None)
        self.vertices = vertices if tolist is None else tolist()
        self.pos = 0


class RunStatus(enum.Enum):
    DONE = "done"          # computation finished (and acked, if a message)
    BLOCKED = "blocked"    # parked on a refused send
    BUDGET = "budget"      # out of micro-ops this step


class Computation:
    """A depth-first traversal rooted at one stage on one machine."""

    __slots__ = ("root_stage", "stack", "message", "item_pos", "blocked_on")

    def __init__(self, root_stage, message=None):
        self.root_stage = root_stage
        self.stack = []
        self.message = message
        self.item_pos = 0
        #: (stage, dest) of the refused send while parked, else None.
        self.blocked_on = None

    @classmethod
    def from_message(cls, message):
        return cls(message.stage, message=message)

    @classmethod
    def bootstrap(cls, frame):
        comp = cls(0)
        comp.stack.append(frame)
        return comp


def frame_for_item(rt, stage_index, item):
    """Materialize a work item (local push or message item) as a frame."""
    if isinstance(item, AllScanItem):
        return ScanFrame(stage_index, item.ctx, rt.local.local_vertices())
    if isinstance(item, CNItem):
        stage = rt.plan.stages[stage_index]
        vertex = item.ctx[stage.vertex_slot]
        return StageFrame(stage_index, item.ctx, vertex,
                          cn_payload=item.candidates)
    stage = rt.plan.stages[stage_index]
    return StageFrame(stage_index, item, item[stage.vertex_slot])


class Worker:
    """One simulated worker thread: per-root-stage computation slots plus
    the descending-stage DOWORK loop of paper Figure 4."""

    __slots__ = ("rt", "index", "bit", "slots", "waiting_for_seq", "debt")

    def __init__(self, rt, index):
        self.rt = rt
        self.index = index
        #: This worker's bit in the machine's ``_awake`` mask and in the
        #: per-window ``_parked`` masks.
        self.bit = 1 << index
        self.slots = [None] * rt.plan.num_stages
        #: Blocking mode (ABL4): sequence number of the un-acked message
        #: this worker is synchronously waiting for.
        self.waiting_for_seq = None
        #: Micro-ops consumed beyond a previous tick's budget (an
        #: indivisible operation may overshoot); repaid before new work so
        #: the long-run rate never exceeds ``ops_per_tick``.
        self.debt = 0

    def step(self, budget, trace_offset):
        """The DOWORK loop: scan for runnable work until *budget*
        micro-ops are used or a scan makes no progress; returns the ops
        used (``QueryMachine.worker_step`` does the slice accounting).

        One scan prefers the latest stage with runnable work: a free
        slot takes new work for its stage, a parked computation resumes
        once its refused ``(stage, dest)`` window admits again.  A scan
        that visited every stage and entered no computation is
        *fruitless*: it has registered this worker under each window it
        is parked on (``rt._parked``) and clears the worker's
        ``rt._awake`` bit, so the machine stops scanning on its behalf
        until one of those windows, or a work source of one of its free
        slots, changes (docs/performance.md, "The idle path").

        *trace_offset* — the debt this slice repaid first; only used to
        place trace spans sub-tick.
        """
        rt = self.rt
        slots = self.slots
        inbox = rt._inbox
        local_inbox = rt._local_inbox
        run = rt.kernels.run
        used = 0
        while used < budget:
            if rt._sync_wait is not None:
                break  # blocking mode: stop right after a remote send
            fruitless = True
            progressed = 0
            for stage_index in range(len(slots) - 1, -1, -1):
                comp = slots[stage_index]
                if comp is None:
                    # Cheap pre-check before _acquire: a scan visits
                    # every stage, and on most visits all three work
                    # sources are empty.
                    if (
                        not inbox[stage_index]
                        and not local_inbox[stage_index]
                        and (stage_index != 0 or not rt._bootstrap_chunks)
                    ):
                        continue
                    comp = self._acquire(stage_index)
                    if comp is None:
                        continue
                    slots[stage_index] = comp
                elif comp.blocked_on is not None:
                    stage, dest = comp.blocked_on
                    window = stage * rt._num_machines + dest
                    if rt._parked[window] & self.bit:
                        # Registered and not woken since: the window is
                        # still shut and its quota request unanswered.
                        continue
                    if not rt.can_enqueue(stage, dest):
                        rt.maybe_request_quota(stage, dest)
                        # Still blocked: whatever reopens this window
                        # wakes us.  Try earlier stages.
                        rt._parked[window] |= self.bit
                        continue
                    comp.blocked_on = None
                    if rt.recording is not None:
                        rt.recording.emit(FlowUnblock(
                            rt.api.now, rt.machine_id, stage, dest
                        ))

                fruitless = False
                ops, status = run(rt, comp, budget - used)
                if status is RunStatus.DONE:
                    slots[stage_index] = None
                elif status is RunStatus.BLOCKED:
                    comp.blocked_on = rt.last_refused
                if ops:
                    if rt.recording is not None:
                        rt.recording.emit(WorkerSpan(
                            rt.api.now, rt.machine_id, self.index,
                            stage_index, ops, trace_offset + used,
                        ))
                    progressed = ops
                    break
            if fruitless:
                rt._awake &= ~self.bit
            if progressed == 0:
                break
            used += progressed
        return used

    def _acquire(self, stage_index):
        """New work for *stage_index*: a remote message, a work-shared
        local continuation, or (stage 0) the next bootstrap chunk."""
        rt = self.rt
        message = rt.pop_message(stage_index)
        if message is not None:
            return Computation.from_message(message)
        item = rt.pop_local_item(stage_index)
        if item is not None:
            comp = Computation(stage_index)
            rt.push_frame(comp, frame_for_item(rt, stage_index, item))
            return comp
        if stage_index == 0:
            frame = rt.next_bootstrap_frame()
            if frame is not None:
                return Computation.bootstrap(frame)
        return None
