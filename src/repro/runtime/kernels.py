"""Compiled bulk hop kernels — the non-blocking fast path.

``run_computation`` (runtime.worker) advances a traversal one micro-op
per loop iteration: an isinstance check, a budget compare, a
``HopCursor.advance`` call and a generator resume (``hops.hop_steps``)
for every single neighbor.  That precision is what lets the simulator
charge costs exactly, but nearly all of the interpreter work is
identical from one neighbor to the next.

This module removes the per-neighbor overhead without changing a single
observable number.  At plan-finalize time each stage gets a *kernel*: a
function specialized to exactly the checks that stage performs
(edge-label compare, iso-slot compares, compiled filter, captures — no
dead branches), processing an entire CSR adjacency run in one tight
loop.  Kernels charge the identical aggregate op count at the identical
points, so ``ticks``, ``total_ops``, ``visits``, ``passes``, result
rows, message/flush boundaries, and BLOCKED-parking are **bit-identical**
to micro-stepped execution; ``tests/test_kernels.py`` enforces this
differentially.

Remote continuations use the batch-admission API of
``runtime.flow_control``: a kernel pre-reserves window capacity for the
rest of its adjacency run (``QueryMachine.reserve_items``) and emits
into the bulk buffers without per-item admission checks.  The moment a
reservation is refused it falls back to the existing
``QueryMachine.route`` micro-step admission, which refuses at exactly
the same item as cursor execution would — preserving strict flow
control, chaos/reliability behavior, and parking semantics.  All
reservations are released before the kernel returns, so outside a
kernel invocation the window state is indistinguishable from the
micro-stepped engine's.

Cost-parity contract (see docs/performance.md):

* every step ``hops.hop_steps`` would yield charges ``hop.work_cost``,
  and so do the extra pull that discovers exhaustion and a BLOCKED
  attempt (which rolls the position back for replay);
* the vertex function charges ``stage.work_cost`` exactly once;
* a kernel only runs while ``ops < budget`` and re-checks the budget
  after every charge, at the same points the micro loop does.

Kernels are disabled in ``blocking_remote`` mode (the ABL4 ablation is
precisely about per-message synchronous behavior) and by
``ClusterConfig(bulk_kernels=False)``, which runs the micro-stepped
cursor path.  The generated source is the second, independent statement
of the stage semantics (the first is ``runtime.hops``); it is not
derived from the interpreter, so the kernels-on/off differential
compares two implementations.
"""

from repro.errors import RuntimeFault
from repro.graph.types import Direction, NO_LABEL
from repro.obs.events import ResultEmitted
from repro.plan.distributed import HopKind
from repro.runtime.hops import Advance, HopCursor
from repro.runtime.worker import (
    RunStatus,
    ScanFrame,
    StageFrame,
    _vertex_function,
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

    def __init__(self, eids):
        self.eids = eids
        self.pos = 0
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
    """The compiled per-stage kernels of one execution plan."""

    __slots__ = ("stage_kernels",)

    def __init__(self, stage_kernels):
        self.stage_kernels = stage_kernels

    def run(self, rt, comp, budget):
        return run_bulk(rt, comp, budget, self.stage_kernels)


def compile_plan_kernels(plan):
    """Build one kernel per stage of *plan* (at plan-finalize time).

    NEIGHBOR, VERTEX and OUTPUT stages — the hot path — get textually
    generated specialized kernels; the remaining hop kinds run the
    reference ``HopCursor`` through a generic batched driver.
    """
    kernels = []
    for stage in plan.stages:
        kind = stage.hop.kind
        if kind is HopKind.NEIGHBOR:
            kernels.append(_compile_neighbor_kernel(plan, stage))
        elif kind is HopKind.VERTEX:
            kernels.append(_compile_vertex_kernel(plan, stage))
        elif kind is HopKind.OUTPUT:
            kernels.append(_compile_output_kernel(plan, stage))
        else:
            kernels.append(_generic_kernel(stage))
    return PlanKernels(kernels)


# ----------------------------------------------------------------------
# The bulk computation driver (replaces run_computation's outer loop)
# ----------------------------------------------------------------------
def run_bulk(rt, comp, budget, kernels):
    """Advance *comp* by up to *budget* micro-ops through its kernels.

    Mirrors ``worker.run_computation`` exactly: same consumption order,
    same per-item/per-frame charges, same DONE/BLOCKED/BUDGET
    resolution.  ``sync_wait_flagged`` is never consulted because
    kernels are disabled in blocking_remote mode.
    """
    ops = 0
    dispatches = 0
    stack = comp.stack
    metrics = rt.metrics
    stage_load = rt.stage_load
    root = comp.root_stage
    message = comp.message
    if message is not None:
        items = message.items
        n_items = len(items)
        root_vslot = rt.plan.stages[root].vertex_slot
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
            item = items[comp.item_pos]
            comp.item_pos += 1
            if type(item) is tuple:
                # note_item_consumed + push_frame, fused: the stage_load
                # delta cancels (same stage), a weight-1 buffered
                # decrement can't move the peak, a frame increment can.
                metrics.cur_buffered_contexts -= 1
                clf = metrics.cur_live_frames + 1
                metrics.cur_live_frames = clf
                if clf > metrics.peak_live_frames:
                    metrics.peak_live_frames = clf
                stack.append(StageFrame(root, item, item[root_vslot]))
            else:
                rt.note_item_consumed(root, item)
                rt.push_frame(comp, frame_for_item(rt, root, item))
            ops += 1
            continue
        if ops >= budget:
            status = RunStatus.BUDGET
            break
        frame = stack[-1]
        if frame.__class__ is ScanFrame:
            ops += 1
            pos = frame.pos
            if pos < len(frame.vertices):
                vertex = frame.vertices[pos]
                frame.pos = pos + 1
                stack.append(StageFrame(
                    frame.stage_index, frame.base_ctx + (vertex,), vertex
                ))
                stage_load[frame.stage_index] += 1
                clf = metrics.cur_live_frames + 1
                metrics.cur_live_frames = clf
                if clf > metrics.peak_live_frames:
                    metrics.peak_live_frames = clf
            else:
                stack.pop()
                stage_load[frame.stage_index] -= 1
                metrics.cur_live_frames -= 1
            continue
        dispatches += 1
        ops, signal = kernels[frame.stage_index](rt, comp, frame, ops, budget)
        if signal == K_CONTINUE:
            continue
        status = RunStatus.BLOCKED if signal == K_BLOCKED \
            else RunStatus.BUDGET
        break
    if dispatches:
        metrics = rt.metrics
        metrics.kernel_batches += dispatches
        metrics.kernel_ops += ops
        recording = rt.recording
        if recording is not None:
            recording.kernel_batch_ops.observe(ops)
    return ops, status


# ----------------------------------------------------------------------
# Generic kernel: batched driver over the reference HopCursor
# ----------------------------------------------------------------------
def _generic_kernel(stage):
    """Kernel for ALL_VERTICES/CN_* stages.

    Runs the reference ``HopCursor``, batching only the dispatch: the
    stage and its costs are bound once instead of re-read per micro-op.
    Every advance charges and budget-checks exactly like the micro loop.
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
                if ops >= budget:
                    return ops, K_BUDGET
                if stack[-1] is not frame:
                    return ops, K_CONTINUE  # descended into a local child
                continue
            if result is exhausted:
                rt.pop_frame(comp)
                return ops, K_CONTINUE
            return ops, K_BLOCKED

    return kernel


# ----------------------------------------------------------------------
# Code generation helpers
# ----------------------------------------------------------------------
def _vertex_labels(graph):
    labels = graph.vertex_labels_list()
    return _ConstList(NO_LABEL) if labels is None else labels


def _edge_labels(graph):
    labels = graph.edge_labels_list()
    return _ConstList(NO_LABEL) if labels is None else labels


def _emit_vertex_function(stage, graph, ns, lines, ind):
    """Emit the specialized vertex function into *lines*.

    Expects ``vertex``, ``ctx``, ``M`` (metrics) and ``SL``
    (stage_load) bound; on failure pops the frame inline — the exact
    body of ``QueryMachine.pop_frame`` (a negative frames delta can
    never move the peak) — and returns.  The compile-time form of
    ``worker._vertex_function`` (counters, debug fault) around
    ``hops.vertex_function``, check for check.
    """
    fail = (ind + "    comp.stack.pop()",
            ind + "    SL[%d] -= 1" % stage.index,
            ind + "    M.cur_live_frames -= 1",
            ind + "    return ops, K_CONTINUE")
    lines.append(ind + "if rt.debug_checks and not rt.local.is_local(vertex):")
    lines.append(ind + "    raise RuntimeFault(")
    lines.append(ind + "        'stage %d executed on machine %%d for "
                       "remote vertex %%d'" % stage.index)
    lines.append(ind + "        % (rt.machine_id, vertex))")
    lines.append(ind + "rt.stage_visits[%d] += 1" % stage.index)
    lines.append(ind + "ops += %d" % stage.work_cost)
    if stage.label_id is not None:
        ns["VLABELS"] = _vertex_labels(graph)
        lines.append(ind + "if VLABELS[vertex] != %d:" % stage.label_id)
        lines.extend(fail)
    if stage.iso_vertex_slots:
        cond = " or ".join(
            "ctx[%d] == vertex" % slot for slot in stage.iso_vertex_slots
        )
        lines.append(ind + "if %s:" % cond)
        lines.extend(fail)
    if stage.filter is not None:
        ns["FILT"] = stage.filter
        lines.append(ind + "if not FILT(ctx, vertex, -1):")
        lines.extend(fail)
    for slot in stage.forbidden_slots:
        lines.append(ind + "if rt.local.edges_between(vertex, ctx[%d]):"
                     % slot)
        lines.extend(fail)
    lines.append(ind + "rt.stage_passes[%d] += 1" % stage.index)
    if stage.captures:
        for i, capture in enumerate(stage.captures):
            ns["CAP%d" % i] = capture
        caps = ", ".join(
            "CAP%d(vertex)" % i for i in range(len(stage.captures))
        )
        lines.append(ind + "ctx = ctx + (%s,)" % caps)
        lines.append(ind + "frame.ctx = ctx")


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


def _finish_kernel(lines, ns, stage):
    source = "\n".join(lines) + "\n"
    code = compile(
        source,
        "<repro-kernel:stage%d:%s>" % (stage.index, stage.hop.kind.value),
        "exec",
    )
    exec(code, ns)
    kernel = ns["kernel"]
    kernel.__source__ = source  # introspection / debugging aid
    return kernel


def _compile_neighbor_kernel(plan, stage):
    """Generate the specialized NEIGHBOR kernel for *stage*.

    The adjacency run is walked over the graph's flat python-list CSR
    (converted once per graph) between absolute ``pos``/``end`` bounds;
    remote continuations go through batch reservations with a
    ``rt.route`` fallback whose refusal point matches the cursor path.
    ``scanned``/``emitted`` are tallied in locals and charged to the
    machine's stage counters once per kernel exit.
    """
    graph = plan.graph
    hop = stage.hop
    s = stage.index
    s_next = s + 1
    wc_h = hop.work_cost
    (out_off, out_dst, out_eid,
     in_off, in_src, in_eid) = graph.adjacency_lists()
    ns = {
        "K_CONTINUE": K_CONTINUE,
        "K_BLOCKED": K_BLOCKED,
        "K_BUDGET": K_BUDGET,
        "RuntimeFault": RuntimeFault,
        "_RunState": _RunState,
        "StageFrame": StageFrame,
        "ELABELS": _edge_labels(graph),
    }
    if hop.direction is Direction.OUT:
        ns["OFF"], ns["DST"], ns["EIDS"] = out_off, out_dst, out_eid
    else:
        ns["OFF"], ns["DST"], ns["EIDS"] = in_off, in_src, in_eid

    w = []

    def leave(ind, signal):
        # Every exit of the adjacency loop: charge the neighbors this
        # invocation inspected (a blocked attempt counts, as on the
        # cursor path) and the continuations it produced, then hand any
        # leftover reservation back to the window.
        w.append(ind + "rt.stage_scanned[%d] += pos - pos0" % s)
        w.append(ind + "rt.stage_emitted[%d] += emitted" % s)
        w.append(ind + "if resv: rt.end_batch(%d, resv)" % s_next)
        w.append(ind + "return ops, %s" % signal)

    w.append("def kernel(rt, comp, frame, ops, budget):")
    w.append("    ctx = frame.ctx")
    w.append("    M = rt.metrics")
    w.append("    SL = rt.stage_load")
    w.append("    state = frame.cursor")
    w.append("    if state is None:")
    w.append("        vertex = frame.vertex")
    _emit_vertex_function(stage, graph, ns, w, "        ")
    # Ownership discipline: reading a remote vertex's adjacency must
    # hard-fail exactly like LocalPartition does on the cursor path.
    w.append("        if rt.owner_list[vertex] != rt.machine_id:")
    w.append("            rt.local.out_edges(vertex)"
             "  # raises RemoteAccessError")
    w.append("        state = _RunState(OFF[vertex], OFF[vertex + 1])")
    w.append("        frame.cursor = state")
    w.append("        frame.phase = 1")
    w.append("        if ops >= budget:")
    w.append("            return ops, K_BUDGET")
    w.append("    else:")
    w.append("        vertex = frame.vertex")
    w.append("    pos = pos0 = state.pos")
    w.append("    end = state.end")
    w.append("    if pos >= end:")
    w.append("        comp.stack.pop()")
    w.append("        SL[%d] -= 1" % s)
    w.append("        M.cur_live_frames -= 1")
    w.append("        return ops + %d, K_CONTINUE" % wc_h)
    # Per-invocation prebinds, amortized over the whole adjacency run.
    w.append("    mid = rt.machine_id")
    w.append("    owners = rt.owner_list")
    w.append("    remote_in = rt.stage_remote_in")
    w.append("    local_q = rt._local_inbox[%d]" % s_next)
    w.append("    cap = rt._local_share_cap")
    w.append("    reserve = rt.reserve_items")
    w.append("    get_buffer = rt._buffer")
    w.append("    flush = rt._flush_buffer")
    w.append("    bulk = rt.config.bulk_message_size")
    if hop.appends_target_id:
        w.append("    ghosted = rt.ghosts_enabled")
    w.append("    resv = {}")
    # Flushed buffers are emptied in place, never replaced, so a list
    # looked up once stays the live (stage, dest) buffer all run long.
    w.append("    bufs = {}")
    w.append("    emitted = 0")
    w.append("    while True:")
    w.append("        if pos >= end:")
    w.append("            ops += %d" % wc_h)
    w.append("            comp.stack.pop()")
    w.append("            SL[%d] -= 1" % s)
    w.append("            M.cur_live_frames -= 1")
    leave("            ", "K_CONTINUE")
    w.append("        target = DST[pos]")
    w.append("        eid = EIDS[pos]")
    w.append("        pos += 1")
    w.append("        ops += %d" % wc_h)
    cond = _edge_accept_condition(hop, ns)
    if cond:
        w.append("        if %s:" % cond)
        body_ind = "            "
    else:
        body_ind = "        "
    out_ctx = _out_ctx_expression(hop, ns)
    w.append(body_ind + "out_ctx = %s" % out_ctx)
    w.append(body_ind + "dest = owners[target]")
    w.append(body_ind + "if dest == mid:")
    # route() counts an emission on either local delivery form.
    w.append(body_ind + "    emitted += 1")
    w.append(body_ind + "    if len(local_q) < cap:")
    w.append(body_ind + "        local_q.append(out_ctx)")
    w.append(body_ind + "        SL[%d] += 1" % s_next)
    # Inline buffered_delta(1): a positive delta can move the peak.
    w.append(body_ind + "        cbc = M.cur_buffered_contexts + 1")
    w.append(body_ind + "        M.cur_buffered_contexts = cbc")
    w.append(body_ind + "        if cbc > M.peak_buffered_contexts:")
    w.append(body_ind + "            M.peak_buffered_contexts = cbc")
    w.append(body_ind + "    else:")
    w.append(body_ind + "        state.pos = pos")
    # Inline push_frame (a positive frames delta can move the peak).
    w.append(body_ind + "        comp.stack.append(StageFrame("
             "%d, out_ctx, target))" % s_next)
    w.append(body_ind + "        SL[%d] += 1" % s_next)
    w.append(body_ind + "        clf = M.cur_live_frames + 1")
    w.append(body_ind + "        M.cur_live_frames = clf")
    w.append(body_ind + "        if clf > M.peak_live_frames:")
    w.append(body_ind + "            M.peak_live_frames = clf")
    leave(body_ind + "        ", "K_CONTINUE")
    if hop.appends_target_id:
        # Ghost-node pre-filter, evaluated only when ghosts exist (the
        # cursor path's call is a no-op without them).
        w.append(body_ind + "elif ghosted and not rt.ghost_admits("
                 "%d, out_ctx, target):" % s_next)
        w.append(body_ind + "    pass")
    w.append(body_ind + "else:")
    w.append(body_ind + "    rem = resv.get(dest, 0)")
    w.append(body_ind + "    if rem <= 0:")
    w.append(body_ind + "        rem = reserve(%d, dest, end - pos + 1)"
             % s_next)
    w.append(body_ind + "    if rem > 0:")
    w.append(body_ind + "        resv[dest] = rem - 1")
    w.append(body_ind + "        buf = bufs.get(dest)")
    w.append(body_ind + "        if buf is None:")
    w.append(body_ind + "            buf = get_buffer(%d, dest)" % s_next)
    w.append(body_ind + "            bufs[dest] = buf")
    w.append(body_ind + "        buf.append(out_ctx)")
    w.append(body_ind + "        cbc = M.cur_buffered_contexts + 1")
    w.append(body_ind + "        M.cur_buffered_contexts = cbc")
    w.append(body_ind + "        if cbc > M.peak_buffered_contexts:")
    w.append(body_ind + "            M.peak_buffered_contexts = cbc")
    w.append(body_ind + "        remote_in[%d] += 1" % s_next)
    w.append(body_ind + "        emitted += 1")
    w.append(body_ind + "        if len(buf) >= bulk:")
    w.append(body_ind + "            flush(%d, dest, buf)" % s_next)
    w.append(body_ind + "    else:")
    # A zero grant means the buffer is full and the window is shut, so
    # route() can only refuse: it is called for the refusal's side
    # effects (last_refused, flow_control_blocks, the FlowBlock event).
    w.append(body_ind + "        if rt.route(comp, %d, dest, out_ctx):"
             % s_next)
    w.append(body_ind + "            raise RuntimeFault("
             "'stage %d: route admitted an item after a refused "
             "reservation')" % s)
    w.append(body_ind + "        state.pos = pos - 1"
             "  # replay this neighbor on resume")
    leave(body_ind + "        ", "K_BLOCKED")
    w.append("        if ops >= budget:")
    w.append("            state.pos = pos")
    leave("            ", "K_BUDGET")
    return _finish_kernel(w, ns, stage)


def _compile_vertex_kernel(plan, stage):
    """Generate the specialized VERTEX kernel for *stage*.

    The steps of ``hops.hop_steps`` for a VERTEX hop: without an edge
    requirement, one unconditional continuation plus the exhaustion
    charge; with one, each matching parallel edge is charged and routed
    individually.  Parallel-edge runs are tiny, so emission goes through
    ``rt.route`` (identical refusal points by construction) — the saving
    here is the cursor object, the generator resumes and the enum
    compares.
    """
    hop = stage.hop
    s_next = stage.index + 1
    wc_h = hop.work_cost
    ns = {
        "K_CONTINUE": K_CONTINUE,
        "K_BLOCKED": K_BLOCKED,
        "K_BUDGET": K_BUDGET,
        "RuntimeFault": RuntimeFault,
        "_EdgeRun": _EdgeRun,
        "ELABELS": _edge_labels(plan.graph),
    }
    w = []
    w.append("def kernel(rt, comp, frame, ops, budget):")
    w.append("    vertex = frame.vertex")
    w.append("    ctx = frame.ctx")
    w.append("    M = rt.metrics")
    w.append("    SL = rt.stage_load")
    w.append("    if frame.phase == 0:")
    _emit_vertex_function(stage, plan.graph, ns, w, "        ")
    w.append("        frame.phase = 1")
    if hop.edge_req_orientation == "current_to_target":
        w.append("        frame.cursor = _EdgeRun(rt.local.edges_between("
                 "vertex, ctx[%d]))" % hop.target_slot)
    elif hop.edge_req_orientation is not None:
        w.append("        frame.cursor = _EdgeRun(rt.local.in_edges_from("
                 "vertex, ctx[%d]))" % hop.target_slot)
    w.append("        if ops >= budget:")
    w.append("            return ops, K_BUDGET")
    w.append("    stack = comp.stack")
    if hop.edge_req_orientation is None:
        # Pure inspection: one routed continuation (frame.cursor doubles
        # as the sent flag), then the exhaustion-discovery charge.
        w.append("    if frame.cursor is None:")
        w.append("        ops += %d" % wc_h)
        w.append("        if not rt.route(comp, %d, "
                 "rt.owner_list[ctx[%d]], ctx):" % (s_next, hop.target_slot))
        w.append("            return ops, K_BLOCKED")
        w.append("        frame.cursor = True")
        w.append("        if ops >= budget:")
        w.append("            return ops, K_BUDGET")
        w.append("        if stack[-1] is not frame:")
        w.append("            return ops, K_CONTINUE")
        w.append("    ops += %d" % wc_h)
        w.append("    stack.pop()")
        w.append("    SL[%d] -= 1" % stage.index)
        w.append("    M.cur_live_frames -= 1")
        w.append("    return ops, K_CONTINUE")
        return _finish_kernel(w, ns, stage)
    w.append("    state = frame.cursor")
    w.append("    eids = state.eids")
    w.append("    pos = pos0 = state.pos")
    w.append("    end = state.end")
    w.append("    dest = rt.owner_list[ctx[%d]]" % hop.target_slot)
    # Charged once per exit, like the NEIGHBOR kernel (the
    # pure-inspection form above scans nothing on either path).
    scanned = "rt.stage_scanned[%d] += pos - pos0" % stage.index
    w.append("    while True:")
    w.append("        if pos >= end:")
    w.append("            ops += %d" % wc_h)
    w.append("            stack.pop()")
    w.append("            SL[%d] -= 1" % stage.index)
    w.append("            M.cur_live_frames -= 1")
    w.append("            " + scanned)
    w.append("            return ops, K_CONTINUE")
    w.append("        eid = eids[pos]")
    w.append("        pos += 1")
    w.append("        ops += %d" % wc_h)
    cond = _edge_accept_condition(hop, ns)
    if cond:
        w.append("        if %s:" % cond)
        body_ind = "            "
    else:
        body_ind = "        "
    w.append(body_ind + "out_ctx = %s" % _out_ctx_expression(hop, ns))
    w.append(body_ind + "if not rt.route(comp, %d, dest, out_ctx):" % s_next)
    w.append(body_ind + "    state.pos = pos - 1"
             "  # replay this edge on resume")
    w.append(body_ind + "    " + scanned)
    w.append(body_ind + "    return ops, K_BLOCKED")
    w.append(body_ind + "if stack[-1] is not frame:")
    w.append(body_ind + "    state.pos = pos")
    w.append(body_ind + "    " + scanned)
    w.append(body_ind + "    if ops >= budget:")
    w.append(body_ind + "        return ops, K_BUDGET")
    w.append(body_ind + "    return ops, K_CONTINUE")
    w.append("        if ops >= budget:")
    w.append("            state.pos = pos")
    w.append("            " + scanned)
    w.append("            return ops, K_BUDGET")
    return _finish_kernel(w, ns, stage)


def _compile_output_kernel(plan, stage):
    """Generate the specialized OUTPUT kernel for *stage*.

    Two charges after the vertex function — the ``RESULT`` step of
    ``hops.hop_steps``, then the exhaustion discovery — matching
    ``HopCursor`` advance for advance.  ``frame.cursor`` doubles as the
    emitted flag.
    """
    wc_h = stage.hop.work_cost
    ns = {
        "K_CONTINUE": K_CONTINUE,
        "K_BUDGET": K_BUDGET,
        "RuntimeFault": RuntimeFault,
        "ResultEmitted": ResultEmitted,
    }
    w = []
    w.append("def kernel(rt, comp, frame, ops, budget):")
    w.append("    ctx = frame.ctx")
    w.append("    M = rt.metrics")
    w.append("    SL = rt.stage_load")
    w.append("    if frame.phase == 0:")
    w.append("        vertex = frame.vertex")
    _emit_vertex_function(stage, plan.graph, ns, w, "        ")
    w.append("        frame.phase = 1")
    w.append("        if ops >= budget:")
    w.append("            return ops, K_BUDGET")
    w.append("    if frame.cursor is None:")
    w.append("        frame.cursor = True")
    # Inline emit_result (machine.py): collector, counter, event.
    w.append("        rt.collector.add(ctx)")
    w.append("        M.results_emitted += 1")
    w.append("        recording = rt.recording")
    w.append("        if recording is not None:")
    w.append("            recording.emit(ResultEmitted(rt.api.now, "
             "rt.machine_id))")
    w.append("        ops += %d" % wc_h)
    w.append("        if ops >= budget:")
    w.append("            return ops, K_BUDGET")
    w.append("    ops += %d" % wc_h)
    w.append("    comp.stack.pop()")
    w.append("    SL[%d] -= 1" % stage.index)
    w.append("    M.cur_live_frames -= 1")
    w.append("    return ops, K_CONTINUE")
    return _finish_kernel(w, ns, stage)
