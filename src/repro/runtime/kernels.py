"""Stage kernels and the one driver that advances every computation.

:func:`run_bulk` is the computation loop: it consumes a computation's
message items and scan vertices and dispatches the frames on its stack
to per-stage *kernels*.  A machine holds one of two kernel sets
(:class:`PlanKernels`):

* the **reference set** (:func:`reference_kernels`) — with
  ``ClusterConfig(bulk_kernels=False)``, and always in
  ``blocking_remote`` mode: the generic kernel for every stage, which
  runs the reference ``HopCursor`` over ``hops.hop_steps`` one micro-op
  per advance, and no frame-free entries;
* the **generated set** (:func:`compile_plan_kernels`, the default):
  at plan-finalize time each NEIGHBOR, VERTEX and OUTPUT stage gets
  functions specialized to exactly the checks that stage performs
  (edge-label compare, iso-slot compares, compiled filter, captures — no
  dead branches), processing an entire CSR adjacency run in one tight
  loop; other stages keep the generic kernel.

Generated kernels charge the identical aggregate op count at the
identical points, so ``ticks``, ``total_ops``, ``visits``, ``passes``,
result rows, message/flush boundaries, and BLOCKED-parking are
**bit-identical** to the reference set; ``tests/test_kernels.py``
enforces this differentially.

Each NEIGHBOR, VERTEX and OUTPUT stage is emitted from one template
with two entries, compiled together:

* ``kernel(rt, comp, frame, ops, budget)`` advances one existing
  ``StageFrame`` — a resumed frame, a work-shared item, a local child;
* ``fresh(rt, comp, ops, budget, scan)`` consumes a *run* of fresh
  contexts — the rest of the computation's message items (``scan`` is
  None) or the rest of ``scan``'s vertices — in its own loop, without
  a frame.  Most contexts fail their vertex checks or finish their hop
  inside the call, so they never need one.  A ``StageFrame`` (phase,
  cursor and captured ``ctx`` set) is built only where a context
  outlives the call: the budget runs out, a send is refused, or the
  context descends into a local child (or calls ``route`` to a local
  destination, which may push one).  Until then the live-frame,
  stage-load and buffered-context gauges are kept as if the frame
  existed, so their peaks and the termination counts are unchanged.

Remote continuations use the batch-admission API of
``runtime.flow_control``: a kernel pre-reserves window capacity for the
rest of its adjacency run (``QueryMachine.reserve_items``) and emits
into the bulk buffers without per-item admission checks.  The moment a
reservation is refused it falls back to the existing
``QueryMachine.route`` micro-step admission, which refuses at exactly
the same item as cursor execution would — preserving strict flow
control, chaos/reliability behavior, and parking semantics.  All
reservations are released at the end of every context's run, so
outside one the window state is indistinguishable from the reference
set's.

Cost-parity contract (see docs/performance.md):

* every step ``hops.hop_steps`` would yield charges ``hop.work_cost``,
  and so do the extra pull that discovers exhaustion and a BLOCKED
  attempt (which rolls the position back for replay);
* the vertex function charges ``stage.work_cost`` exactly once, and
  taking a context from a message or a scan charges one op;
* a kernel only runs while ``ops < budget`` and re-checks the budget
  after every charge, at the same points the generic kernel does.

Blocking mode (the ABL4 ablation, precisely about per-message
synchronous behavior) runs the reference set; its one extra rule, stop
right after a synchronous remote send, is the generic kernel's.  The
generated source is the second, independent statement of the stage
semantics (the first is ``runtime.hops``); it is not derived from the
interpreter, so the kernels-on/off differential compares two
implementations under the one driver.
"""

from repro.errors import RuntimeFault
from repro.graph.types import Direction, NO_LABEL
from repro.obs.events import ResultEmitted
from repro.plan.distributed import HopKind
from repro.plan.execution import generate
from repro.runtime.hops import Advance, HopCursor, vertex_function
from repro.runtime.worker import (
    RunStatus,
    ScanFrame,
    StageFrame,
    frame_for_item,
)

#: Kernel exit signals (plain ints: compared on the hottest path).
K_CONTINUE = 0   # frame popped or a child frame pushed; caller loops
K_BLOCKED = 1    # a send was refused; computation must park
K_BUDGET = 2     # out of micro-ops this slice


class _RunState:
    """Cursor state of an in-progress NEIGHBOR kernel.

    ``pos``/``end`` index the graph's flat CSR adjacency lists directly,
    so resuming a partially processed run costs two attribute loads.
    """

    __slots__ = ("pos", "end")

    def __init__(self, pos, end):
        self.pos = pos
        self.end = end


class _EdgeRun:
    """Cursor state of an in-progress VERTEX kernel (edge-checked form):
    the matching parallel-edge ids plus the replay position."""

    __slots__ = ("eids", "pos", "end")

    def __init__(self, eids, pos=0):
        self.eids = eids
        self.pos = pos
        self.end = len(eids)


class _ConstList:
    """A read-only 'column' returning one value for every index.

    Stands in for the label arrays of unlabeled graphs so generated
    kernels can index unconditionally.
    """

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value

    def __getitem__(self, index):
        return self._value


class PlanKernels:
    """The per-stage kernels of one execution plan:
    ``stage_kernels[s]`` advances a frame of stage *s*,
    ``fresh_kernels[s]`` its frame-free entry (None for a generic
    stage)."""

    __slots__ = ("stage_kernels", "fresh_kernels")

    def __init__(self, stage_kernels, fresh_kernels):
        self.stage_kernels = stage_kernels
        self.fresh_kernels = fresh_kernels

    def run(self, rt, comp, budget):
        return run_bulk(rt, comp, budget, self.stage_kernels,
                        self.fresh_kernels)


def compile_plan_kernels(plan):
    """The generated kernel set of *plan* (at plan-finalize time).

    NEIGHBOR, VERTEX and OUTPUT stages — the hot path — get textually
    generated specialized kernels; the remaining hop kinds keep the
    generic kernel.
    """
    stage_kernels = []
    fresh_kernels = []
    for stage in plan.stages:
        kind = stage.hop.kind
        if kind is HopKind.NEIGHBOR:
            kernel, fresh = _compile(plan, stage, _neighbor_template)
        elif kind is HopKind.VERTEX:
            kernel, fresh = _compile(plan, stage, _vertex_template)
        elif kind is HopKind.OUTPUT:
            kernel, fresh = _compile(plan, stage, _output_template)
        else:
            kernel, fresh = _generic_kernel(stage), None
        stage_kernels.append(kernel)
        fresh_kernels.append(fresh)
    return PlanKernels(stage_kernels, fresh_kernels)


def reference_kernels(plan):
    """The reference kernel set of *plan*: the generic kernel for every
    stage and no frame-free entries.  Compiles nothing."""
    return PlanKernels([_generic_kernel(stage) for stage in plan.stages],
                       [None] * plan.num_stages)


# ----------------------------------------------------------------------
# The computation driver
# ----------------------------------------------------------------------
def run_bulk(rt, comp, budget, kernels, fresh):
    """Advance *comp* by up to *budget* micro-ops through its kernels;
    returns ``(ops_used, RunStatus)``.

    A message item or scan vertex costs one op to take.  Without a
    frame-free entry for its stage, each becomes a frame; with one, the
    rest of the message or scan goes to that entry as one run.  Frames
    on the stack — left behind by an entry, pushed by ``_acquire`` or
    by a local descend — are dispatched one at a time.  A computation
    reports DONE only once its stack is empty and, for a message
    computation, every item was taken — at which point the ack has been
    sent.
    """
    ops = 0
    # Kernel invocations that reached a vertex function or a frame: a
    # run's ops count as kernel ops only if one did.
    dispatches = 0
    stack = comp.stack
    metrics = rt.metrics
    message = comp.message
    if message is not None:
        root = comp.root_stage
        items = message.items
        n_items = len(items)
        root_fresh = fresh[root] if type(items[0]) is tuple else None
    while True:
        if not stack:
            # Resolve completion before the budget check so a computation
            # that drains its stack exactly at the budget boundary reports
            # DONE instead of lingering as a zero-op slot occupant.
            if message is None or comp.item_pos >= n_items:
                if message is not None:
                    rt.send_ack(message)
                status = RunStatus.DONE
                break
            if ops >= budget:
                status = RunStatus.BUDGET
                break
            if root_fresh is None:
                item = items[comp.item_pos]
                comp.item_pos += 1
                rt.note_item_consumed(root, item)
                rt.push_frame(comp, frame_for_item(rt, root, item))
                ops += 1
                continue
            if ops + 1 < budget:
                dispatches += 1
            ops, signal = root_fresh(rt, comp, ops, budget, None)
        else:
            if ops >= budget:
                status = RunStatus.BUDGET
                break
            frame = stack[-1]
            if frame.__class__ is ScanFrame:
                stage_index = frame.stage_index
                pos = frame.pos
                if pos >= len(frame.vertices):
                    ops += 1
                    rt.pop_frame(comp)
                    continue
                run = fresh[stage_index]
                if run is None:
                    ops += 1
                    frame.pos = pos + 1
                    vertex = frame.vertices[pos]
                    rt.push_frame(comp, StageFrame(
                        stage_index, frame.base_ctx + (vertex,), vertex
                    ))
                    continue
                if ops + 1 < budget:
                    dispatches += 1
                ops, signal = run(rt, comp, ops, budget, frame)
            else:
                dispatches += 1
                ops, signal = kernels[frame.stage_index](
                    rt, comp, frame, ops, budget
                )
        if signal == K_CONTINUE:
            continue
        status = RunStatus.BLOCKED if signal == K_BLOCKED \
            else RunStatus.BUDGET
        break
    if dispatches:
        metrics.kernel_batches += dispatches
        metrics.kernel_ops += ops
        recording = rt.recording
        if recording is not None:
            recording.kernel_batch_ops.observe(ops)
    return ops, status


# ----------------------------------------------------------------------
# The generic kernel: the reference HopCursor
# ----------------------------------------------------------------------
def _generic_kernel(stage):
    """The reference kernel of *stage* (every stage of the reference set;
    ALL_VERTICES/CN_* stages of the generated one).

    Runs the ``HopCursor`` with the stage and its costs bound once: the
    vertex function charges ``stage.work_cost``, every advance
    ``hop.work_cost`` — the one that finds the hop exhausted and one
    that ends blocked included — and the budget is checked after each.
    Blocking mode stops right after a synchronous remote send; such a
    send happens only in a PROGRESS advance that keeps its frame, so
    BUDGET there leaves the computation to resume on that frame.
    """
    wc_v = stage.work_cost
    wc_h = stage.hop.work_cost
    progress = Advance.PROGRESS
    exhausted = Advance.EXHAUSTED

    def kernel(rt, comp, frame, ops, budget):
        if frame.phase == 0:
            ops += wc_v
            if not _vertex_function(rt, stage, frame):
                rt.pop_frame(comp)
                return ops, K_CONTINUE
            frame.phase = 1
            frame.cursor = HopCursor(stage, frame, rt)
            if ops >= budget:
                return ops, K_BUDGET
        advance = frame.cursor.advance
        stack = comp.stack
        while True:
            result = advance(rt, comp, frame)
            ops += wc_h
            if result is progress:
                if ops >= budget or rt._sync_wait is not None:
                    return ops, K_BUDGET
                if stack[-1] is not frame:
                    return ops, K_CONTINUE  # descended into a local child
                continue
            if result is exhausted:
                rt.pop_frame(comp)
                return ops, K_CONTINUE
            return ops, K_BLOCKED

    return kernel


def _vertex_function(rt, stage, frame):
    """Run the stage's vertex function on *frame* under the machine's
    visit/pass counters; on success ``frame.ctx`` carries the captures."""
    vertex = frame.vertex
    if rt.debug_checks and not rt.local.is_local(vertex):
        raise RuntimeFault(
            "stage %d executed on machine %d for remote vertex %d"
            % (stage.index, rt.machine_id, vertex)
        )
    metrics = rt.metrics
    metrics.stage_visits[stage.index] += 1
    ctx = vertex_function(rt.graph, rt.local, stage, frame.ctx, vertex)
    if ctx is None:
        return False
    metrics.stage_passes[stage.index] += 1
    frame.ctx = ctx
    return True


# ----------------------------------------------------------------------
# Code generation: one template per hop kind, two entries
# ----------------------------------------------------------------------
def _vertex_labels(graph):
    labels = graph.vertex_labels_list()
    return _ConstList(NO_LABEL) if labels is None else labels


def _edge_labels(graph):
    labels = graph.edge_labels_list()
    return _ConstList(NO_LABEL) if labels is None else labels


def _compile(plan, stage, template):
    """Emit *stage*'s ``kernel`` and ``fresh`` entries from *template*
    into one source, compiled once."""
    ns = {
        "K_CONTINUE": K_CONTINUE,
        "K_BLOCKED": K_BLOCKED,
        "K_BUDGET": K_BUDGET,
        "RuntimeFault": RuntimeFault,
        "StageFrame": StageFrame,
        "_keep": _keep,
    }
    lines = []
    for fresh in (False, True):
        template(plan, stage, ns, lines, fresh)
    source = "\n".join(lines) + "\n"
    return generate(
        source, "kernel:stage%d:%s" % (stage.index, stage.hop.kind.value),
        ns, "kernel", "fresh",
    )


def _prologue(w, stage, fresh, prebinds):
    """Open one entry of a stage's kernel; returns the indentation at
    which the template emits the per-context body.

    Both entries bind ``vertex``, ``ctx``, ``M`` (metrics) and ``SL``
    (stage_load); the frame entry also ``stack``.  The frame-free entry
    runs *prebinds* once, loops over its run and charges each context's
    consumption step, keeping the gauges as if the context's frame had
    been pushed: a message item leaves the buffered contexts, and its
    stage-load entry passes to the frame; a scan vertex adds its frame's
    stage load (both settled when the call returns, by
    :func:`_epilogue` or :func:`_keep`).  The live-frame count a context
    would reach is ``clf``, raised into the peak once: nothing inside
    the loop changes it.
    """
    if not fresh:
        w.append("def kernel(rt, comp, frame, ops, budget):")
        w.append("    vertex = frame.vertex")
        w.append("    ctx = frame.ctx")
        w.append("    M = rt.metrics")
        w.append("    SL = rt.stage_load")
        w.append("    stack = comp.stack")
        return "    "
    w.append("def fresh(rt, comp, ops, budget, scan):")
    w.append("    M = rt.metrics")
    w.append("    SL = rt.stage_load")
    w.append("    clf = M.cur_live_frames + 1")
    w.append("    if clf > M.peak_live_frames:")
    w.append("        M.peak_live_frames = clf")
    w.append("    if scan is None:")
    w.append("        src = comp.message.items")
    w.append("        i = i0 = comp.item_pos")
    w.append("    else:")
    w.append("        src = scan.vertices")
    w.append("        i = i0 = scan.pos")
    w.append("        base = scan.base_ctx")
    w.append("    n = len(src)")
    for line in prebinds:
        w.append("    " + line)
    w.append("    while i < n and ops < budget:")
    w.append("        if scan is None:")
    w.append("            ctx = src[i]")
    w.append("            vertex = ctx[%d]" % stage.vertex_slot)
    w.append("            M.cur_buffered_contexts -= 1")
    w.append("        else:")
    w.append("            vertex = src[i]")
    w.append("            ctx = base + (vertex,)")
    w.append("        i += 1")
    w.append("        ops += 1")
    w.append("        if ops >= budget:")
    _materialize(w, "            ", stage, 0, None)
    w.append("            return ops, K_BUDGET")
    return "        "


def _epilogue(w, stage, fresh):
    """Close the frame-free entry: every context the run took finished
    inside the call.  Hand the position back; a finished message item
    has left its stage, a finished scan vertex's frame came and went."""
    if fresh:
        w.append("    if scan is None:")
        w.append("        comp.item_pos = i")
        w.append("        SL[%d] -= i - i0" % stage.index)
        w.append("    else:")
        w.append("        scan.pos = i")
        w.append("    return ops, K_CONTINUE")


def _materialize(w, ind, stage, phase, cursor):
    """Frame-free entry only: give the current context the frame it
    would have had all along (:func:`_keep`)."""
    w.append(ind + "frame = StageFrame(%d, ctx, vertex)" % stage.index)
    if phase:
        w.append(ind + "frame.phase = 1")
    if cursor is not None:
        w.append(ind + "frame.cursor = %s" % cursor)
    w.append(ind + "_keep(rt, comp, scan, i, i0, frame, clf)")


def _keep(rt, comp, scan, i, i0, frame, clf):
    """The frame-free entry's current context outlives the call: push
    its *frame*, whose live-frame count *clf* was reached (and peaked)
    when the context was taken, and hand the run position back.  The
    run's finished message items have left their stage; the kept one's
    stage load passed to its frame.  A scan vertex's frame adds its
    own."""
    comp.stack.append(frame)
    rt.metrics.cur_live_frames = clf
    if scan is None:
        comp.item_pos = i
        rt.stage_load[frame.stage_index] -= i - i0 - 1
    else:
        scan.pos = i
        rt.stage_load[frame.stage_index] += 1


def _retire(w, ind, stage, fresh, then):
    """The context is done.  The frame entry pops its frame — the exact
    body of ``QueryMachine.pop_frame`` (a negative frames delta can
    never move the peak) — and returns; the frame-free entry has no
    frame to pop and goes on with *then* (``continue``/``break``/None)."""
    if fresh:
        if then is not None:
            w.append(ind + then)
        return
    w.append(ind + "stack.pop()")
    w.append(ind + "SL[%d] -= 1" % stage.index)
    w.append(ind + "M.cur_live_frames -= 1")
    w.append(ind + "return ops, K_CONTINUE")


def _emit_vertex_function(stage, graph, ns, w, ind, fresh):
    """Emit the specialized vertex function into *w*.

    Expects ``vertex`` and ``ctx`` bound; on failure retires the
    context (:func:`_retire`).  The compile-time form of
    :func:`_vertex_function` (counters, debug fault) around
    ``hops.vertex_function``, check for check.
    """
    fail = []
    _retire(fail, ind + "    ", stage, fresh, "continue")
    w.append(ind + "if rt.debug_checks and not rt.local.is_local(vertex):")
    w.append(ind + "    raise RuntimeFault(")
    w.append(ind + "        'stage %d executed on machine %%d for "
                   "remote vertex %%d'" % stage.index)
    w.append(ind + "        % (rt.machine_id, vertex))")
    w.append(ind + "M.stage_visits[%d] += 1" % stage.index)
    w.append(ind + "ops += %d" % stage.work_cost)
    if stage.label_id is not None:
        ns["VLABELS"] = _vertex_labels(graph)
        w.append(ind + "if VLABELS[vertex] != %d:" % stage.label_id)
        w.extend(fail)
    if stage.iso_vertex_slots:
        cond = " or ".join(
            "ctx[%d] == vertex" % slot for slot in stage.iso_vertex_slots
        )
        w.append(ind + "if %s:" % cond)
        w.extend(fail)
    if stage.filter is not None:
        ns["FILT"] = stage.filter
        w.append(ind + "if not FILT(ctx, vertex, -1):")
        w.extend(fail)
    for slot in stage.forbidden_slots:
        w.append(ind + "if rt.local.edges_between(vertex, ctx[%d]):"
                 % slot)
        w.extend(fail)
    w.append(ind + "M.stage_passes[%d] += 1" % stage.index)
    if stage.captures:
        for i, capture in enumerate(stage.captures):
            ns["CAP%d" % i] = capture
        caps = ", ".join(
            "CAP%d(vertex)" % i for i in range(len(stage.captures))
        )
        w.append(ind + "ctx = ctx + (%s,)" % caps)
        if not fresh:
            w.append(ind + "frame.ctx = ctx")


def _edge_accept_condition(hop, ns):
    """The compile-time conjunction of ``hops._edge_accepted``."""
    conds = []
    if hop.edge_label_id is not None:
        conds.append("ELABELS[eid] == %d" % hop.edge_label_id)
    for slot in hop.iso_edge_slots:
        conds.append("ctx[%d] != eid" % slot)
    if hop.edge_filter is not None:
        ns["EFILT"] = hop.edge_filter
        conds.append("EFILT(ctx, vertex, eid)")
    return " and ".join(conds)


def _out_ctx_expression(hop, ns):
    """The compile-time form of ``hops._extend``."""
    parts = []
    for i, capture in enumerate(hop.edge_captures):
        ns["ECAP%d" % i] = capture
        parts.append("ECAP%d(eid)" % i)
    if hop.appends_target_id:
        parts.append("target")
    if not parts:
        return "ctx"
    return "ctx + (%s,)" % ", ".join(parts)


def _neighbor_template(plan, stage, ns, w, fresh):
    """The NEIGHBOR kernel of *stage*.

    The adjacency run is walked over the graph's flat python-list CSR
    (converted once per graph) between absolute ``pos``/``end`` bounds;
    remote continuations go through batch reservations with a
    ``rt.route`` fallback whose refusal point matches the cursor path.
    ``emitted`` is tallied in a local and charged, with ``scanned``, to
    the machine's stage counters once per exit of a context's run.
    """
    graph = plan.graph
    hop = stage.hop
    s = stage.index
    s_next = s + 1
    wc_h = hop.work_cost
    (out_off, out_dst, out_eid,
     in_off, in_src, in_eid) = graph.adjacency_lists()
    ns["_RunState"] = _RunState
    ns["ELABELS"] = _edge_labels(graph)
    if hop.direction is Direction.OUT:
        ns["OFF"], ns["DST"], ns["EIDS"] = out_off, out_dst, out_eid
    else:
        ns["OFF"], ns["DST"], ns["EIDS"] = in_off, in_src, in_eid

    # Per-call prebinds, amortized over whole adjacency runs.  Flushed
    # buffers are emptied in place, never replaced, so a list looked up
    # once (``bufs``) stays the live (stage, dest) buffer all call long.
    prebinds = [
        "mid = rt.machine_id",
        "owners = rt.owner_list",
        "remote_in = M.stage_remote_in",
        "local_q = rt._local_inbox[%d]" % s_next,
        "cap = rt._local_share_cap",
        "reserve = rt.reserve_items",
        "get_buffer = rt._buffer",
        "flush = rt._flush_buffer",
        "bulk = rt.config.bulk_message_size",
    ]
    if hop.appends_target_id:
        prebinds.append("ghosted = rt.ghosts_enabled")
    prebinds += ["resv = {}", "bufs = {}"]

    ind = _prologue(w, stage, fresh, prebinds)
    if fresh:
        vf_ind = ind
    else:
        w.append(ind + "state = frame.cursor")
        w.append(ind + "if state is None:")
        vf_ind = ind + "    "
    _emit_vertex_function(stage, graph, ns, w, vf_ind, fresh)
    # Ownership discipline: reading a remote vertex's adjacency must
    # hard-fail exactly like LocalPartition does on the cursor path.
    w.append(vf_ind + "if rt.owner_list[vertex] != rt.machine_id:")
    w.append(vf_ind + "    rt.local.out_edges(vertex)"
             "  # raises RemoteAccessError")
    if fresh:
        w.append(ind + "pos = pos0 = OFF[vertex]")
        w.append(ind + "end = OFF[vertex + 1]")
        w.append(ind + "if ops >= budget:")
        _materialize(w, ind + "    ", stage, 1, "_RunState(pos, end)")
        w.append(ind + "    return ops, K_BUDGET")
    else:
        w.append(vf_ind + "state = _RunState(OFF[vertex], OFF[vertex + 1])")
        w.append(vf_ind + "frame.cursor = state")
        w.append(vf_ind + "frame.phase = 1")
        w.append(vf_ind + "if ops >= budget:")
        w.append(vf_ind + "    return ops, K_BUDGET")
        w.append(ind + "pos = pos0 = state.pos")
        w.append(ind + "end = state.end")
        w.extend(ind + line for line in prebinds)
    w.append(ind + "emitted = 0")

    def suspend(at, pos):
        # The context stops mid-run at adjacency position *pos*.
        if fresh:
            _materialize(w, at, stage, 1, "_RunState(%s, end)" % pos)
        else:
            w.append(at + "state.pos = %s" % pos)

    def leave(at, signal=None):
        # Every exit of a run: charge the neighbors this call inspected
        # (a blocked attempt counts, as on the cursor path) and the
        # continuations it produced, then hand any leftover reservation
        # back to the window.
        w.append(at + "M.stage_scanned[%d] += pos - pos0" % s)
        w.append(at + "M.stage_emitted[%d] += emitted" % s)
        w.append(at + "if resv: rt.end_batch(%d, resv)" % s_next)
        if signal is not None:
            w.append(at + "return ops, %s" % signal)

    loop = ind + "    "
    w.append(ind + "while True:")
    w.append(loop + "if pos >= end:")
    w.append(loop + "    ops += %d" % wc_h)
    leave(loop + "    ")
    _retire(w, loop + "    ", stage, fresh, "break")
    w.append(loop + "target = DST[pos]")
    w.append(loop + "eid = EIDS[pos]")
    w.append(loop + "pos += 1")
    w.append(loop + "ops += %d" % wc_h)
    cond = _edge_accept_condition(hop, ns)
    if cond:
        w.append(loop + "if %s:" % cond)
        body = loop + "    "
    else:
        body = loop
    w.append(body + "out_ctx = %s" % _out_ctx_expression(hop, ns))
    w.append(body + "dest = owners[target]")
    w.append(body + "if dest == mid:")
    # route() counts an emission on either local delivery form.
    w.append(body + "    emitted += 1")
    w.append(body + "    if len(local_q) < cap:")
    w.append(body + "        local_q.append(out_ctx)")
    w.append(body + "        SL[%d] += 1" % s_next)
    # Inline buffered_delta(1): a positive delta can move the peak.
    w.append(body + "        cbc = M.cur_buffered_contexts + 1")
    w.append(body + "        M.cur_buffered_contexts = cbc")
    w.append(body + "        if cbc > M.peak_buffered_contexts:")
    w.append(body + "            M.peak_buffered_contexts = cbc")
    w.append(body + "    else:")
    suspend(body + "        ", "pos")
    # Inline push_frame (a positive frames delta can move the peak).
    w.append(body + "        comp.stack.append(StageFrame("
             "%d, out_ctx, target))" % s_next)
    w.append(body + "        SL[%d] += 1" % s_next)
    w.append(body + "        lf = M.cur_live_frames + 1")
    w.append(body + "        M.cur_live_frames = lf")
    w.append(body + "        if lf > M.peak_live_frames:")
    w.append(body + "            M.peak_live_frames = lf")
    leave(body + "        ", "K_CONTINUE")
    if hop.appends_target_id:
        # Ghost-node pre-filter, evaluated only when ghosts exist (the
        # cursor path's call is a no-op without them).
        w.append(body + "elif ghosted and not rt.ghost_admits("
                 "%d, out_ctx, target):" % s_next)
        w.append(body + "    pass")
    w.append(body + "else:")
    w.append(body + "    rem = resv.get(dest, 0)")
    w.append(body + "    if rem <= 0:")
    w.append(body + "        rem = reserve(%d, dest, end - pos + 1)" % s_next)
    w.append(body + "    if rem > 0:")
    w.append(body + "        resv[dest] = rem - 1")
    w.append(body + "        buf = bufs.get(dest)")
    w.append(body + "        if buf is None:")
    w.append(body + "            buf = get_buffer(%d, dest)" % s_next)
    w.append(body + "            bufs[dest] = buf")
    w.append(body + "        buf.append(out_ctx)")
    w.append(body + "        cbc = M.cur_buffered_contexts + 1")
    w.append(body + "        M.cur_buffered_contexts = cbc")
    w.append(body + "        if cbc > M.peak_buffered_contexts:")
    w.append(body + "            M.peak_buffered_contexts = cbc")
    w.append(body + "        remote_in[%d] += 1" % s_next)
    w.append(body + "        emitted += 1")
    w.append(body + "        if len(buf) >= bulk:")
    w.append(body + "            flush(%d, dest, buf)" % s_next)
    w.append(body + "    else:")
    # A zero grant means the buffer is full and the window is shut, so
    # route() can only refuse: it is called for the refusal's side
    # effects (last_refused, flow_control_blocks, the FlowBlock event).
    w.append(body + "        if rt.route(comp, %d, dest, out_ctx):" % s_next)
    w.append(body + "            raise RuntimeFault("
             "'stage %d: route admitted an item after a refused "
             "reservation')" % s)
    suspend(body + "        ", "pos - 1")  # replay this neighbor on resume
    leave(body + "        ", "K_BLOCKED")
    w.append(loop + "if ops >= budget:")
    suspend(loop + "    ", "pos")
    leave(loop + "    ", "K_BUDGET")
    _epilogue(w, stage, fresh)


def _vertex_template(plan, stage, ns, w, fresh):
    """The VERTEX kernel of *stage*.

    The steps of ``hops.hop_steps`` for a VERTEX hop: without an edge
    requirement, one unconditional continuation plus the exhaustion
    charge; with one, each matching parallel edge is charged and routed
    individually.  Parallel-edge runs are tiny, so emission goes through
    ``rt.route`` (identical refusal points by construction) — the saving
    here is the cursor object, the generator resumes and the enum
    compares.  A context whose target is local may have a continuation
    frame pushed onto its stack by ``route``, so the frame-free entry
    gives it its frame first and leaves it to the frame entry.
    """
    hop = stage.hop
    s = stage.index
    s_next = s + 1
    wc_h = hop.work_cost
    target = "ctx[%d]" % hop.target_slot
    ns["_EdgeRun"] = _EdgeRun
    ns["ELABELS"] = _edge_labels(plan.graph)
    if hop.edge_req_orientation == "current_to_target":
        edge_ids = "rt.local.edges_between(vertex, %s)" % target
    elif hop.edge_req_orientation is not None:
        edge_ids = "rt.local.in_edges_from(vertex, %s)" % target
    else:
        edge_ids = None
    ind = _prologue(w, stage, fresh,
                    ["mid = rt.machine_id", "owners = rt.owner_list"])
    if fresh:
        _emit_vertex_function(stage, plan.graph, ns, w, ind, fresh)
        cursor = None
        if edge_ids is not None:
            w.append(ind + "eids = %s" % edge_ids)
            cursor = "_EdgeRun(eids)"
        w.append(ind + "dest = owners[%s]" % target)
        w.append(ind + "if ops >= budget or dest == mid:")
        _materialize(w, ind + "    ", stage, 1, cursor)
        w.append(ind + "    return ops, K_CONTINUE")
    else:
        w.append(ind + "if frame.phase == 0:")
        _emit_vertex_function(stage, plan.graph, ns, w, ind + "    ", fresh)
        w.append(ind + "    frame.phase = 1")
        if edge_ids is not None:
            w.append(ind + "    frame.cursor = _EdgeRun(%s)" % edge_ids)
        w.append(ind + "    if ops >= budget:")
        w.append(ind + "        return ops, K_BUDGET")
        w.append(ind + "dest = rt.owner_list[%s]" % target)

    if edge_ids is None:
        # Pure inspection: one routed continuation (frame.cursor doubles
        # as the sent flag), then the exhaustion-discovery charge.
        if fresh:
            at = ind
        else:
            w.append(ind + "if frame.cursor is None:")
            at = ind + "    "
        w.append(at + "ops += %d" % wc_h)
        w.append(at + "if not rt.route(comp, %d, dest, ctx):" % s_next)
        if fresh:
            _materialize(w, at + "    ", stage, 1, None)
        w.append(at + "    return ops, K_BLOCKED")
        if fresh:
            w.append(at + "if ops >= budget:")
            _materialize(w, at + "    ", stage, 1, "True")
            w.append(at + "    return ops, K_BUDGET")
        else:
            w.append(at + "frame.cursor = True")
            w.append(at + "if ops >= budget:")
            w.append(at + "    return ops, K_BUDGET")
            w.append(at + "if stack[-1] is not frame:")
            w.append(at + "    return ops, K_CONTINUE")
        w.append(ind + "ops += %d" % wc_h)
        _retire(w, ind, stage, fresh, None)
        _epilogue(w, stage, fresh)
        return

    if fresh:
        w.append(ind + "pos = pos0 = 0")
        w.append(ind + "end = len(eids)")
    else:
        w.append(ind + "state = frame.cursor")
        w.append(ind + "eids = state.eids")
        w.append(ind + "pos = pos0 = state.pos")
        w.append(ind + "end = state.end")

    def suspend(at, pos):
        # The context stops at edge position *pos*.
        if fresh:
            _materialize(w, at, stage, 1, "_EdgeRun(eids, %s)" % pos)
        else:
            w.append(at + "state.pos = %s" % pos)

    # Charged once per exit, like the NEIGHBOR kernel (the
    # pure-inspection form above scans nothing on either path).
    scanned = "M.stage_scanned[%d] += pos - pos0" % s
    loop = ind + "    "
    w.append(ind + "while True:")
    w.append(loop + "if pos >= end:")
    w.append(loop + "    ops += %d" % wc_h)
    w.append(loop + "    " + scanned)
    _retire(w, loop + "    ", stage, fresh, "break")
    w.append(loop + "eid = eids[pos]")
    w.append(loop + "pos += 1")
    w.append(loop + "ops += %d" % wc_h)
    cond = _edge_accept_condition(hop, ns)
    if cond:
        w.append(loop + "if %s:" % cond)
        body = loop + "    "
    else:
        body = loop
    w.append(body + "out_ctx = %s" % _out_ctx_expression(hop, ns))
    w.append(body + "if not rt.route(comp, %d, dest, out_ctx):" % s_next)
    suspend(body + "    ", "pos - 1")  # replay this edge on resume
    w.append(body + "    " + scanned)
    w.append(body + "    return ops, K_BLOCKED")
    if not fresh:
        # A local continuation may have become a frame on this stack.
        w.append(body + "if stack[-1] is not frame:")
        w.append(body + "    state.pos = pos")
        w.append(body + "    " + scanned)
        w.append(body + "    return ops, K_CONTINUE")
    w.append(loop + "if ops >= budget:")
    suspend(loop + "    ", "pos")
    w.append(loop + "    " + scanned)
    w.append(loop + "    return ops, K_BUDGET")
    _epilogue(w, stage, fresh)


def _output_template(plan, stage, ns, w, fresh):
    """The OUTPUT kernel of *stage*.

    Two charges after the vertex function — the ``RESULT`` step of
    ``hops.hop_steps``, then the exhaustion discovery — matching
    ``HopCursor`` advance for advance.  ``frame.cursor`` doubles as the
    emitted flag.
    """
    wc_h = stage.hop.work_cost
    ns["ResultEmitted"] = ResultEmitted
    emit = ["add = rt.collector.add", "recording = rt.recording"]
    ind = _prologue(w, stage, fresh, emit)
    if fresh:
        _emit_vertex_function(stage, plan.graph, ns, w, ind, fresh)
        w.append(ind + "if ops >= budget:")
        _materialize(w, ind + "    ", stage, 1, None)
        w.append(ind + "    return ops, K_BUDGET")
        at = ind
    else:
        w.append(ind + "if frame.phase == 0:")
        _emit_vertex_function(stage, plan.graph, ns, w, ind + "    ", fresh)
        w.append(ind + "    frame.phase = 1")
        w.append(ind + "    if ops >= budget:")
        w.append(ind + "        return ops, K_BUDGET")
        w.append(ind + "if frame.cursor is None:")
        at = ind + "    "
        w.append(at + "frame.cursor = True")
        w.extend(at + line for line in emit)
    # Inline emit_result (machine.py): collector, counters, event.
    w.append(at + "add(ctx)")
    w.append(at + "M.results_emitted += 1")
    w.append(at + "M.stage_emitted[%d] += 1" % stage.index)
    w.append(at + "if recording is not None:")
    w.append(at + "    recording.emit(ResultEmitted(rt.api.now, "
             "rt.machine_id))")
    w.append(at + "ops += %d" % wc_h)
    w.append(at + "if ops >= budget:")
    if fresh:
        _materialize(w, at + "    ", stage, 1, "True")
    w.append(at + "    return ops, K_BUDGET")
    w.append(ind + "ops += %d" % wc_h)
    _retire(w, ind, stage, fresh, None)
    _epilogue(w, stage, fresh)
