"""Per-machine runtime: message manager, flow control, termination, results.

``QueryMachine`` implements the simulator's machine interface and acts
as the runtime facade (``rt``) that workers and hop cursors call into.
It owns:

* the machine's :class:`LocalPartition` of the distributed graph;
* the **message manager** — per-(stage, destination) outgoing bulk
  buffers and per-stage inboxes (paper §3.2);
* the **flow control manager** (paper §3.3, ``runtime.flow_control``);
* the **termination tracker** (``runtime.termination``);
* the machine-local result collector;
* its :class:`~repro.cluster.metrics.MachineMetrics`, the one record of
  everything it counts, per-stage counters included (the workers'
  kernels and hop cursors charge them there through ``rt.metrics``).
"""

from collections import deque

from repro.cluster.metrics import MachineMetrics
from repro.context import ExecutionContext
from repro.errors import RuntimeFault
from repro.obs.events import (
    FlowBlock,
    GhostPrune,
    QuotaGranted,
    QuotaRequested,
    ResultEmitted,
    StageCompleted,
    WorkerSpan,
)
from repro.runtime.flow_control import FlowControl
from repro.runtime.hops import vertex_admissible
from repro.runtime.kernels import reference_kernels
from repro.runtime.messages import (
    Ack,
    Completed,
    QuotaGrant,
    QuotaRequest,
    WorkMessage,
    item_weight as _item_weight,
)
from repro.runtime.termination import TerminationTracker
from repro.runtime.worker import ScanFrame, Worker, frame_for_item


# The two PGX.D tasks (paper §3.3) as phases of ``worker_step``: workers
# drive the same DOWORK loop in both; the bootstrap task ends once stage
# 0 is seeded, the await-completion task once every stage is globally
# complete.
_BOOTSTRAP, _AWAIT_COMPLETION, _DONE = range(3)


class QueryMachine:
    """One simulated machine executing its share of a query."""

    def __init__(self, plan, dist_graph, machine_id, api, config,
                 context=None, debug_checks=False):
        context = context or ExecutionContext()
        self.plan = plan
        self.graph = plan.graph
        self.local = dist_graph.local(machine_id)
        self.machine_id = machine_id
        self.config = config
        self.debug_checks = debug_checks
        self.metrics = MachineMetrics(num_stages=plan.num_stages)
        #: With reliability enabled the raw MachineAPI is wrapped in the
        #: reliable-channel transport; everything below (message
        #: manager, flow control, termination) sends through ``self.api``
        #: either way and sees a FIFO-reliable network.
        self._reliable = config.reliability
        if self._reliable:
            from repro.runtime.reliability import ReliableTransport

            api = ReliableTransport(api, config, self.metrics, context)
        self.api = api
        #: Simulator hook: reliability retransmission timers need a
        #: per-tick callback and participate in idle fast-forwarding.
        self.uses_tick_hook = self._reliable
        #: The run context's repro.obs.Recording, shared by every
        #: machine of the run; None (the default) keeps each
        #: instrumentation site to a single pointer comparison.
        self.recording = context.recording

        num_stages = plan.num_stages
        num_machines = config.num_machines
        self.flow = FlowControl(
            num_stages,
            num_machines,
            machine_id,
            config.flow_control_window,
            dynamic=config.dynamic_flow_control,
        )
        self.termination = TerminationTracker(
            num_stages, num_machines, machine_id
        )

        #: Outgoing bulk buffers: (stage, dest) -> list of items.  Lists
        #: are emptied in place (never replaced), so a reference taken
        #: once stays the live buffer for the machine's lifetime.
        self._outgoing = {}
        #: The flushable set: one bit per buffer, ordered as the idle
        #: flush visits them — latest stage first, then creation order
        #: within a stage: bit ``(num_stages - 1 - stage) * num_machines
        #: + rank``.  A bit is set where its buffer can gain items
        #: (:meth:`_buffer`, :meth:`_enqueue`) or its window can admit
        #: again (:meth:`_window_opened`, :meth:`wake_all`), and cleared
        #: when a flush scan visits it; so every non-empty buffer whose
        #: window admits a flush has its bit set.
        self._flushable = 0
        #: Bits of every buffer created so far (what wake_all marks).
        self._created = 0
        #: Bit position -> ``(stage, dest, buffer)``, None until created.
        self._slots = [None] * (num_stages * num_machines)
        #: (stage, dest) -> its bit.
        self._slot_bit = {}
        #: Per stage, the mask of its bit range; one extra zero entry
        #: for the stage after the last.
        self._stage_bits = [
            ((1 << num_machines) - 1)
            << (num_stages - 1 - stage) * num_machines
            for stage in range(num_stages)
        ] + [0]
        #: First stage whose COMPLETED we have not sent yet (sent stages
        #: always form a prefix; see :meth:`_attempt_completions`).
        self._completions_from = 0
        #: Per-stage inbox of WorkMessages.
        self._inbox = [deque() for _ in range(num_stages)]
        #: Unconsumed inbox items + live frames, per stage.
        self.stage_load = [0] * num_stages
        #: Intra-machine work sharing (paper §1/§3.3: computations
        #: "submitted internally to facilitate work-sharing"): a bounded
        #: per-stage queue of local continuations that idle workers pick
        #: up.  The bound keeps the depth-first memory guarantee intact —
        #: once full, continuations stay on the producing worker's stack.
        self._local_inbox = [deque() for _ in range(num_stages)]
        self._local_share_cap = (
            2 * config.workers_per_machine if config.work_sharing else 0
        )

        #: Flat owner list (partition knowledge is global): the bulk
        #: kernels' O(1) routing lookup without per-call numpy boxing.
        self.owner_list = dist_graph.partition.owners_list()
        #: Whether any ghost vertices exist — lets kernels skip the
        #: ghost pre-filter call entirely on ghost-free clusters (where
        #: it is a guaranteed no-op).
        self.ghosts_enabled = dist_graph.num_ghosts > 0
        #: The kernel set that advances every computation
        #: (runtime.kernels): the plan's generated kernels, or the
        #: reference cursor kernels.  Blocking mode always uses the
        #: reference: ABL4 is precisely about per-message synchrony.
        if config.bulk_kernels and not config.blocking_remote:
            self.kernels = plan.bulk_kernels()
        else:
            self.kernels = reference_kernels(plan)

        self._workers = [
            Worker(self, index) for index in range(config.workers_per_machine)
        ]
        self._bootstrap_chunks = self._make_bootstrap_chunks()
        self._bootstrap_total = len(self._bootstrap_chunks)

        # Machine-local result collector: raw rows, or a partial-
        # aggregation accumulator for aggregating queries (so no machine
        # materializes its full match list — see runtime.aggregation).
        from repro.runtime.aggregation import make_collector

        self.collector = make_collector(plan.output)
        self.last_refused = None
        self._sync_wait = None
        self._blocking = config.blocking_remote
        #: Blocking mode (ABL4) only: acknowledged message seqs a
        #: synchronously waiting worker has not seen yet.
        self._acked_seqs = set()
        self._quota_rr = 0
        #: Per destination, the peers a quota request may go to.
        self._quota_peers = [
            [m for m in range(num_machines) if m not in (machine_id, dest)]
            for dest in range(num_machines)
        ]
        self._phase = _BOOTSTRAP
        # Sleep state (docs/performance.md, "The idle path").  A slice
        # of worker w is its own DOWORK scan D(w) plus the machine
        # housekeeping H every slice performs (idle flush, phase,
        # completions); each is skipped while provably a no-op and
        # re-enabled only by the event that can change that verdict.
        #: Bit w set: D(w) may act.  Cleared by w's fruitless scan.
        self._all_workers = (1 << config.workers_per_machine) - 1
        self._awake = self._all_workers
        #: H may act.  Cleared by a pure-idle slice.
        self._housekeeping = True
        #: ``stage * num_machines + dest`` -> mask of sleeping workers
        #: holding a computation parked on that window; whatever reopens
        #: the window wakes them and takes the mask.
        self._parked = [0] * (num_stages * num_machines)
        self._num_stages = num_stages
        self._num_machines = num_machines

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def _make_bootstrap_chunks(self, chunk_size=256):
        root = self.plan.root
        if root.single_vertex_id is not None:
            origin = root.single_vertex_id
            if not (0 <= origin < self.graph.num_vertices):
                return deque()
            if self.local.is_local(origin):
                return deque([[origin]])
            return deque()
        vertices = self.local.local_vertices()
        chunks = deque()
        for start in range(0, len(vertices), chunk_size):
            chunks.append(vertices[start:start + chunk_size])
        return chunks

    def next_bootstrap_frame(self):
        if not self._bootstrap_chunks:
            return None
        chunk = self._bootstrap_chunks.popleft()
        self.stage_load[0] += 1  # the ScanFrame counts as a stage-0 frame
        self.metrics.frames_delta(1)
        return ScanFrame(0, (), chunk)

    @property
    def bootstrap_done(self):
        return not self._bootstrap_chunks

    # ------------------------------------------------------------------
    # Simulator interface
    # ------------------------------------------------------------------
    def worker_step(self, worker_index, budget):
        bit = 1 << worker_index
        scanning = self._awake & bit
        phase = self._phase
        if phase == _DONE or not (scanning or self._housekeeping):
            self.metrics.idle_ticks += 1
            return 0
        worker = self._workers[worker_index]
        metrics = self.metrics
        sent = metrics.work_messages_sent + metrics.control_messages_sent
        completions_from = self._completions_from
        waiting_for_seq = worker.waiting_for_seq
        # Real ops are accounted into the metrics; ``used`` is the time
        # slice consumed (for idleness).  An unscanned worker has no
        # debt: a debt keeps its bit set.
        paid = worker.debt
        if paid >= budget:
            worker.debt = paid - budget
            used = budget  # the whole slice repays earlier overshoot
        else:
            worker.debt = 0
            if waiting_for_seq is not None and not self._ack_seen(worker):
                # Synchronous wait burns the slice; every delivery in
                # blocking mode wakes everyone.
                self._awake &= ~bit
                used = paid
            else:
                effective = budget - paid
                ops = worker.step(effective, paid) if scanning else 0
                if ops == 0:
                    if not (paid or self._housekeeping
                            or self._awake & bit):
                        # A fruitless scan (a sibling took the
                        # message, the window shut again, or all it did
                        # was re-request quota) touched nothing H reads,
                        # and H was a known no-op: it still is.
                        metrics.idle_ticks += 1
                        return 0
                    # Opportunistic work for an idle worker: flush.
                    ops = self.idle_progress()
                    if ops and self.recording is not None:
                        self.recording.emit(WorkerSpan(
                            self.api.now, self.machine_id, worker_index,
                            -1, ops, paid,
                        ))
                metrics.ops += ops
                if ops > effective:
                    # An indivisible operation overshot: this worker's
                    # own next slices repay it, so it stays awake (an
                    # idle flush ran after its bit was cleared).
                    worker.debt = ops - effective
                    self._awake |= bit
                    used = budget
                else:
                    used = paid + ops
        asleep = not (self._awake & bit)
        # A phase ends on the slice that observes its condition, before
        # this slice's completion attempt below can change it.
        if phase == _BOOTSTRAP:
            if not self._bootstrap_chunks:
                self._phase = _AWAIT_COMPLETION
        elif self.termination.all_complete():
            self._phase = _DONE
        if self._sync_wait is not None:
            worker.waiting_for_seq = self._sync_wait
            self._sync_wait = None
        if used == 0:
            metrics.idle_ticks += 1
        # Attempt completions only when one can happen: the first
        # unsent stage's predecessor is complete, and either it can
        # complete itself or its output buffers hold a marked straggler.
        stage = self._completions_from
        if stage < self._num_stages and (
            (self.stage_load[stage] == 0 and not self._bootstrap_chunks)
            or self._flushable & self._stage_bits[stage + 1]
        ) and self.termination.predecessor_complete(stage):
            self._attempt_completions()
        # Pure-idle slice: nothing ran, nothing was sent (every send a
        # slice can make bumps one of the two message counters) and no
        # protocol state moved, so H would repeat the same no-op.
        if (
            used == 0
            and asleep
            and self._phase == phase
            and self._completions_from == completions_from
            and worker.waiting_for_seq == waiting_for_seq
            and metrics.work_messages_sent
            + metrics.control_messages_sent == sent
        ):
            self._housekeeping = False
        else:
            self._housekeeping = True
            if self._blocking:
                self.wake_all()
            elif self._awake != self._all_workers:
                self._wake_for_sources()
        return used

    def wake_all(self):
        """Every worker rescans, every parked computation re-checks its
        window, every buffer is flushable and housekeeping reruns: for
        the events that can enable anything (a COMPLETED, a window
        redistribution) and for blocking mode, which does not model who
        waits on what."""
        self._awake = self._all_workers
        self._parked = [0] * len(self._parked)
        self._flushable = self._created
        self._housekeeping = True

    def sleep_state(self):
        """Diagnostic snapshot for :class:`~repro.errors.QueryStalled`:
        the awake workers, the housekeeping flag, per ``(stage, dest)``
        window the sleeping workers registered under it, and the
        *stranded* buffers — non-empty, their window admitting a flush,
        yet unmarked, so no flush scan will visit them — with their
        item counts."""
        indices = range(len(self._workers))
        can_flush = self.flow.can_flush
        return {
            "workers": len(self._workers),
            "awake": [w for w in indices if self._awake >> w & 1],
            "housekeeping": self._housekeeping,
            "parked": {
                divmod(window, self._num_machines): [
                    w for w in indices if mask >> w & 1
                ]
                for window, mask in enumerate(self._parked) if mask
            },
            "stranded": {
                key: len(self._outgoing[key])
                for key, bit in self._slot_bit.items()
                if self._outgoing[key] and can_flush(*key)
                and not self._flushable & bit
            },
        }

    def _wake_for_sources(self):
        """Wake each sleeping worker that has a free slot for a stage
        with work waiting.  Run after a slice that changed something
        while a sibling sleeps: it covers a kernel's work-shared
        ``local_q.append``, a slot the slice freed, and a worker that
        was woken for a message but spent its slice otherwise."""
        inbox = self._inbox
        local_inbox = self._local_inbox
        for stage in range(self._num_stages):
            if (
                inbox[stage] or local_inbox[stage]
                or (stage == 0 and self._bootstrap_chunks)
            ):
                for worker in self._workers:
                    if worker.slots[stage] is None:
                        self._awake |= worker.bit

    def _ack_seen(self, worker):
        """Blocking mode: has the message *worker* waits on been acked?
        Consumes the recorded seq and ends the wait."""
        seq = worker.waiting_for_seq
        if seq not in self._acked_seqs:
            return False
        self._acked_seqs.discard(seq)
        worker.waiting_for_seq = None
        return True

    def on_message(self, src, payload):
        if self._reliable:
            # The transport dedups/reorders; only in-order application
            # payloads (possibly several, when a frame fills a gap)
            # reach the dispatcher below.
            for inner_src, inner in self.api.receive(src, payload):
                self._dispatch(inner_src, inner)
        else:
            self._dispatch(src, payload)

    def on_tick(self, now):
        """Simulator per-tick hook: drive retransmission timers."""
        self.api.poll(now)

    def next_timer_tick(self):
        """Earliest pending retransmission, for idle fast-forwarding."""
        return self.api.next_timer_tick()

    def _dispatch(self, src, payload):
        """Apply one application payload and wake exactly what it can
        enable (the wake table in docs/performance.md): a sleeping
        worker or idle housekeeping not named here stays a no-op."""
        if self._blocking:
            self.wake_all()
        if isinstance(payload, WorkMessage):
            payload.src = src
            if self.recording is not None:
                payload.arrived_at = self.api.now
            stage = payload.stage
            self._inbox[stage].append(payload)
            self.stage_load[stage] += len(payload.items)
            self.metrics.buffered_delta(payload.weight)
            # The first free slot in slice order takes it; if that
            # worker's slice goes elsewhere, _wake_for_sources passes
            # the message on within the tick.
            for worker in self._workers:
                if worker.slots[stage] is None:
                    self._awake |= worker.bit
                    break
            if self._blocking:
                # Synchronous-RPC model (ABL4): acknowledge on receipt so
                # the sender's round trip is 2x latency; a deferred ack
                # would deadlock once every worker is parked waiting.
                self.api.send(src, Ack(stage, 1, seqs=(payload.seq,)))
                self.metrics.control_messages_sent += 1
        elif isinstance(payload, Ack):
            stage = payload.stage
            self.flow.on_ack_from(stage, src, payload.count)
            if self._blocking:
                self._acked_seqs.update(payload.seqs)
            self._window_opened(stage, src)
        elif isinstance(payload, Completed):
            self.termination.on_completed(payload.stage, src)
            if self.termination.stage_globally_complete(payload.stage):
                self.flow.redistribute_completed_stage(payload.stage)
            self.wake_all()
        elif isinstance(payload, QuotaRequest):
            # Wakes nobody: donating only lowers a limit.
            amount = self.flow.donate_quota(payload.stage, payload.dest)
            self.api.send(src, QuotaGrant(payload.stage, payload.dest, amount))
            self.metrics.control_messages_sent += 1
            if amount:
                self.metrics.quota_granted += amount
        elif isinstance(payload, QuotaGrant):
            stage, dest, amount = payload.stage, payload.dest, payload.amount
            self.flow.on_quota_grant(stage, dest, amount)
            if self.recording is not None:
                self.recording.emit(QuotaGranted(
                    self.api.now, self.machine_id, stage, dest, amount,
                ))
            if amount:
                self._window_opened(stage, dest)
            else:
                # Nothing opened, but the request is no longer pending:
                # the parked workers ask the next peer.
                self._wake_parked(stage * self._num_machines + dest)
        else:
            raise RuntimeFault("unknown payload: %r" % (payload,))

    def _wake_parked(self, window):
        """Wake the workers registered under *window* (``stage *
        num_machines + dest``); they re-register if it refuses again."""
        mask = self._parked[window]
        if mask:
            self._awake |= mask
            self._parked[window] = 0

    def _window_opened(self, stage, dest):
        """The (stage, dest) window gained a slot: computations parked
        on it can resume, and a buffer waiting behind it can flush."""
        self._wake_parked(stage * self._num_machines + dest)
        if self._outgoing.get((stage, dest)):
            self._flushable |= self._slot_bit[stage, dest]
            self._housekeeping = True

    def is_finished(self):
        return self.termination.all_complete()

    # ------------------------------------------------------------------
    # Runtime facade used by workers and hop cursors
    # ------------------------------------------------------------------
    @property
    def num_machines(self):
        return self._num_machines

    def owner(self, vertex):
        return self.local.owner(vertex)

    def push_frame(self, comp, frame):
        comp.stack.append(frame)
        self.stage_load[frame.stage_index] += 1
        self.metrics.frames_delta(1)

    def pop_frame(self, comp):
        frame = comp.stack.pop()
        self.stage_load[frame.stage_index] -= 1
        self.metrics.frames_delta(-1)
        return frame

    def note_item_consumed(self, stage, item):
        self.stage_load[stage] -= 1
        self.metrics.buffered_delta(-_item_weight(item))

    def pop_message(self, stage):
        inbox = self._inbox[stage]
        if not inbox:
            return None
        message = inbox.popleft()
        if self.recording is not None:
            # Hop service time: how long the bulk waited to be consumed.
            self.recording.inbox_wait.observe(
                self.api.now - message.arrived_at
            )
        return message

    def inbox_depth(self):
        """Queued bulk work messages across all stages (sampled)."""
        total = 0
        for inbox in self._inbox:
            total += len(inbox)
        return total

    def pop_local_item(self, stage):
        """Take one work-shared local continuation for *stage*, if any."""
        queue = self._local_inbox[stage]
        if not queue:
            return None
        item = queue.popleft()
        self.stage_load[stage] -= 1
        self.metrics.buffered_delta(-_item_weight(item))
        return item

    def emit_result(self, ctx):
        self.collector.add(ctx)
        metrics = self.metrics
        metrics.results_emitted += 1
        metrics.stage_emitted[-1] += 1
        if self.recording is not None:
            self.recording.emit(ResultEmitted(self.api.now, self.machine_id))

    def send_ack(self, message):
        """Ack *message* to its sender (receiver finished processing it).

        In blocking mode the ack already went out on receipt.
        """
        if self._blocking:
            return
        self.api.send(message.src, Ack(message.stage, 1))
        self.metrics.control_messages_sent += 1

    def ghost_admits(self, stage_index, ctx, target):
        """Ghost-node pre-filter (PGX.D's ghost functionality).

        When *target* is a ghost — its properties and label replicated
        on every machine — the next stage's adjacency-free admission
        checks can run right here; returning False lets the hop skip the
        remote message.  Non-ghost targets always "admit" (the owner
        decides).  Stages with induced-semantics adjacency checks are
        never pre-filtered.
        """
        if not self.local.is_ghost(target):
            return True
        stage = self.plan.stages[stage_index]
        if stage.forbidden_slots:
            return True
        if vertex_admissible(self.graph, stage, ctx, target):
            return True
        self.metrics.ghost_prunes += 1
        if self.recording is not None:
            self.recording.emit(GhostPrune(
                self.api.now, self.machine_id, stage_index
            ))
        return False

    def route(self, comp, stage_index, dest, item):
        """Deliver a continuation to *stage_index* on machine *dest*.

        Local continuations become frames immediately (depth-first);
        remote ones enter the bulk buffer, subject to flow control.
        Returns False when the send was refused — the caller must replay
        the emission once the window frees up.
        """
        if dest == self.machine_id:
            weight = _item_weight(item)
            queue = self._local_inbox[stage_index]
            if len(queue) < self._local_share_cap:
                queue.append(item)
                self.stage_load[stage_index] += 1
                self.metrics.buffered_delta(weight)
            else:
                self.push_frame(comp, frame_for_item(self, stage_index, item))
            self.metrics.stage_emitted[stage_index - 1] += weight
            return True
        if self._blocking:
            admitted = self._route_blocking(stage_index, dest, item)
        else:
            admitted = self._enqueue(stage_index, dest, item)
        if admitted:
            weight = _item_weight(item)
            metrics = self.metrics
            metrics.stage_remote_in[stage_index] += weight
            metrics.stage_emitted[stage_index - 1] += weight
            return True
        self.last_refused = (stage_index, dest)
        self.metrics.flow_control_blocks += 1
        if self.recording is not None:
            self.recording.emit(FlowBlock(
                self.api.now, self.machine_id, stage_index, dest
            ))
        return False

    def _route_blocking(self, stage_index, dest, item):
        """ABL4 mode: one message per context, synchronous ack wait."""
        if not self.flow.can_send(stage_index, dest):
            return False  # route() records the refusal
        message = WorkMessage(stage_index, (item,))
        self.flow.on_send(stage_index, dest)
        self.api.send(dest, message, size=message.weight)
        self.metrics.work_messages_sent += 1
        self.metrics.contexts_sent += message.weight
        self._sync_wait = message.seq
        return True

    # ------------------------------------------------------------------
    # Message manager: bulk buffers
    # ------------------------------------------------------------------
    def _buffer(self, stage, dest):
        """The (stage, dest) buffer, created on first use, marked
        flushable: the bulk kernels call this once per call per
        destination before appending to the buffer directly."""
        key = (stage, dest)
        buffer = self._outgoing.get(key)
        if buffer is None:
            buffer = []
            self._outgoing[key] = buffer
            # The stage's first free slot: its creation rank.
            position = (self._num_stages - 1 - stage) * self._num_machines
            while self._slots[position] is not None:
                position += 1
            self._slots[position] = (stage, dest, buffer)
            self._slot_bit[key] = 1 << position
            self._created |= 1 << position
        self._flushable |= self._slot_bit[key]
        return buffer

    def can_enqueue(self, stage, dest):
        buffer = self._outgoing.get((stage, dest))
        if buffer is None or len(buffer) < self.config.bulk_message_size:
            return True
        return self.flow.can_send(stage, dest)

    def _enqueue(self, stage, dest, item):
        buffer = self._outgoing.get((stage, dest))
        if buffer is None:
            buffer = self._buffer(stage, dest)
        bulk = self.config.bulk_message_size
        if len(buffer) >= bulk and not self._flush(stage, dest):
            return False
        buffer.append(item)
        self._flushable |= self._slot_bit[stage, dest]
        self.metrics.buffered_delta(_item_weight(item))
        if len(buffer) >= bulk:
            self._flush(stage, dest)  # opportunistic; failure is fine
        return True

    def _flush(self, stage, dest):
        return self._flush_buffer(
            stage, dest, self._outgoing.get((stage, dest))
        )

    def _flush_buffer(self, stage, dest, buffer):
        """:meth:`_flush` with the buffer already in hand (hot paths —
        bulk kernels and the per-stage registry scans — skip the dict
        lookup)."""
        if not buffer:
            return True
        if not self.flow.can_flush(stage, dest):
            return False
        message = WorkMessage(stage, tuple(buffer))
        weight = message.weight
        del buffer[:]
        # The buffer has room again: can_enqueue turned true.
        window = stage * self._num_machines + dest
        if self._parked[window]:
            self._wake_parked(window)
        self.flow.on_send(stage, dest)
        self.api.send(dest, message, size=weight)
        self.metrics.work_messages_sent += 1
        self.metrics.contexts_sent += weight
        self.metrics.buffered_delta(-weight)
        return True

    def _outbuf_empty_for(self, stage):
        """No buffered unsent contexts targeting *stage*."""
        base = (self._num_stages - 1 - stage) * self._num_machines
        for slot in self._slots[base:base + self._num_machines]:
            if slot is None:
                return True  # a stage's slots fill in creation order
            if slot[2]:
                return False
        return True

    def _flush_marked(self, mask):
        """Visit the flushable buffers of *mask*, lowest bit first, and
        flush each non-empty one whose window admits it; returns the
        number flushed.  The caller clears the visited bits: a buffer
        left unsent is re-marked by the event that lets it flush."""
        slots = self._slots
        flushed = 0
        while mask:
            low = mask & -mask
            mask ^= low
            stage, dest, buffer = slots[low.bit_length() - 1]
            if buffer and self._flush_buffer(stage, dest, buffer):
                flushed += 1
        return flushed

    def idle_progress(self):
        """Opportunistic work for an otherwise idle worker: flush every
        buffer that can flush, latest stage first and in creation order
        within a stage — the order of the flushable set's bits."""
        mask = self._flushable
        if not mask:
            return 0
        self._flushable = 0
        return self._flush_marked(mask) * self.config.message_send_cost

    # ------------------------------------------------------------------
    # Dynamic flow control: quota borrowing
    # ------------------------------------------------------------------
    def maybe_request_quota(self, stage, dest):
        if not self.flow.wants_quota(stage, dest):
            return
        peers = self._quota_peers[dest]
        if not peers:
            return
        peer = peers[self._quota_rr % len(peers)]
        self._quota_rr += 1
        self.flow.note_quota_requested(stage, dest)
        self.api.send(peer, QuotaRequest(stage, dest))
        self.metrics.control_messages_sent += 1
        self.metrics.quota_requests += 1
        if self.recording is not None:
            self.recording.emit(QuotaRequested(
                self.api.now, self.machine_id, stage, dest, peer
            ))

    # ------------------------------------------------------------------
    # Termination protocol
    # ------------------------------------------------------------------
    def _attempt_completions(self):
        # Sent stages always form a prefix: marking stage n requires
        # stage n-1 globally complete, which includes our own mark.
        # Start at the cached first-unsent stage instead of rescanning
        # (worker_step calls this only when one can complete).
        num_stages = self._num_stages
        for stage in range(self._completions_from, num_stages):
            if not self.termination.predecessor_complete(stage):
                break
            # Outgoing buffers *from* this stage target stage + 1: push
            # the stragglers out right now.
            stragglers = self._flushable & self._stage_bits[stage + 1]
            if stragglers:
                self._flushable ^= stragglers
                self._flush_marked(stragglers)
            # newly_completable is pure: the emptiness scan is only
            # needed when the load check passes.
            load = self.stage_load[stage]
            outbuf_empty = load == 0 and (
                stage + 1 >= num_stages or self._outbuf_empty_for(stage + 1)
            )
            if not self.termination.newly_completable(
                stage, self.bootstrap_done, load, outbuf_empty,
            ):
                break
            self.termination.mark_sent(stage)
            self._completions_from = stage + 1
            if self.recording is not None:
                self.recording.emit(StageCompleted(
                    self.api.now, self.machine_id, stage
                ))
            for machine in range(self._num_machines):
                if machine != self.machine_id:
                    self.api.send(machine, Completed(stage))
                    self.metrics.control_messages_sent += 1
            if self.termination.stage_globally_complete(stage):
                self.flow.redistribute_completed_stage(stage)
                self.wake_all()
