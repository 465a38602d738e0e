"""Typed trace events emitted by the runtime.

Every event is a small ``__slots__`` record with a class-level ``kind``
string and the simulated ``tick`` it happened on.  Events are only ever
constructed when a :class:`~repro.obs.recording.Recording` is installed,
so the unrecorded fast path allocates nothing (see ``docs/
observability.md`` for the catalogue and how each kind maps onto the
paper's mechanisms).
"""


def _all_slots(cls):
    slots = []
    for klass in reversed(cls.__mro__):
        slots.extend(getattr(klass, "__slots__", ()))
    return slots


class TraceEvent:
    """Base class: one timestamped runtime event."""

    __slots__ = ("tick",)
    kind = "event"

    def __init__(self, tick):
        self.tick = tick

    def to_dict(self):
        record = {"kind": self.kind}
        for slot in _all_slots(type(self)):
            record[slot] = getattr(self, slot)
        return record

    def __repr__(self):
        fields = ", ".join(
            "%s=%r" % (slot, getattr(self, slot))
            for slot in _all_slots(type(self))
        )
        return "%s(%s)" % (type(self).__name__, fields)


class WorkerSpan(TraceEvent):
    """A worker ran *ops* micro-ops of *stage* during one tick.

    ``offset`` is the number of micro-ops the worker had already consumed
    earlier in the same tick, so spans can be laid out sub-tick in the
    Chrome-trace export.  ``stage`` is the root stage of the computation
    the worker serviced (-1 for idle-progress buffer flushing).
    """

    __slots__ = ("machine", "worker", "stage", "ops", "offset")
    kind = "worker_span"

    def __init__(self, tick, machine, worker, stage, ops, offset):
        super().__init__(tick)
        self.machine = machine
        self.worker = worker
        self.stage = stage
        self.ops = ops
        self.offset = offset


class MessageSend(TraceEvent):
    """A payload was handed to the network (work or control traffic)."""

    __slots__ = ("src", "dst", "payload", "stage", "size", "deliver_at")
    kind = "message_send"

    def __init__(self, tick, src, dst, payload, stage, size, deliver_at):
        super().__init__(tick)
        self.src = src
        self.dst = dst
        self.payload = payload  # payload class name, e.g. "WorkMessage"
        self.stage = stage
        self.size = size
        self.deliver_at = deliver_at


class MessageDeliver(TraceEvent):
    """A payload reached its destination machine."""

    __slots__ = ("src", "dst", "payload", "stage")
    kind = "message_deliver"

    def __init__(self, tick, src, dst, payload, stage):
        super().__init__(tick)
        self.src = src
        self.dst = dst
        self.payload = payload
        self.stage = stage


class FlowBlock(TraceEvent):
    """Flow control refused a send: window for (stage, dest) exhausted."""

    __slots__ = ("machine", "stage", "dest")
    kind = "flow_block"

    def __init__(self, tick, machine, stage, dest):
        super().__init__(tick)
        self.machine = machine
        self.stage = stage
        self.dest = dest


class FlowUnblock(TraceEvent):
    """A parked computation's refused send channel opened up again."""

    __slots__ = ("machine", "stage", "dest")
    kind = "flow_unblock"

    def __init__(self, tick, machine, stage, dest):
        super().__init__(tick)
        self.machine = machine
        self.stage = stage
        self.dest = dest


class QuotaRequested(TraceEvent):
    """Dynamic flow control: asked *peer* for window capacity."""

    __slots__ = ("machine", "stage", "dest", "peer")
    kind = "quota_request"

    def __init__(self, tick, machine, stage, dest, peer):
        super().__init__(tick)
        self.machine = machine
        self.stage = stage
        self.dest = dest
        self.peer = peer


class QuotaGranted(TraceEvent):
    """Dynamic flow control: received *amount* donated window slots."""

    __slots__ = ("machine", "stage", "dest", "amount")
    kind = "quota_grant"

    def __init__(self, tick, machine, stage, dest, amount):
        super().__init__(tick)
        self.machine = machine
        self.stage = stage
        self.dest = dest
        self.amount = amount


class StageCompleted(TraceEvent):
    """Termination protocol: *machine* declared *stage* complete."""

    __slots__ = ("machine", "stage")
    kind = "stage_completed"

    def __init__(self, tick, machine, stage):
        super().__init__(tick)
        self.machine = machine
        self.stage = stage


class GhostPrune(TraceEvent):
    """The ghost-node pre-filter dropped a context before shipping it."""

    __slots__ = ("machine", "stage")
    kind = "ghost_prune"

    def __init__(self, tick, machine, stage):
        super().__init__(tick)
        self.machine = machine
        self.stage = stage


class ResultEmitted(TraceEvent):
    """A machine emitted one final match into its result collector."""

    __slots__ = ("machine",)
    kind = "result"

    def __init__(self, tick, machine):
        super().__init__(tick)
        self.machine = machine


# ----------------------------------------------------------------------
# Chaos & reliability events (repro.chaos / repro.runtime.reliability)
# ----------------------------------------------------------------------
class MessageDropped(TraceEvent):
    """Chaos: the network silently lost a message."""

    __slots__ = ("src", "dst", "payload")
    kind = "chaos_drop"

    def __init__(self, tick, src, dst, payload):
        super().__init__(tick)
        self.src = src
        self.dst = dst
        self.payload = payload


class MessageDuplicated(TraceEvent):
    """Chaos: the network delivered a spurious second copy."""

    __slots__ = ("src", "dst", "payload", "delay")
    kind = "chaos_duplicate"

    def __init__(self, tick, src, dst, payload, delay):
        super().__init__(tick)
        self.src = src
        self.dst = dst
        self.payload = payload
        self.delay = delay


class MessageDelayed(TraceEvent):
    """Chaos: a message was delayed past the FIFO order (reordering)."""

    __slots__ = ("src", "dst", "payload", "delay")
    kind = "chaos_delay"

    def __init__(self, tick, src, dst, payload, delay):
        super().__init__(tick)
        self.src = src
        self.dst = dst
        self.payload = payload
        self.delay = delay


class MachineStalled(TraceEvent):
    """Chaos: *machine*'s workers freeze until tick *until*."""

    __slots__ = ("machine", "until")
    kind = "chaos_stall"

    def __init__(self, tick, machine, until):
        super().__init__(tick)
        self.machine = machine
        self.until = until


class MachineResumed(TraceEvent):
    """Chaos: a stalled machine's workers run again."""

    __slots__ = ("machine",)
    kind = "chaos_resume"

    def __init__(self, tick, machine):
        super().__init__(tick)
        self.machine = machine


class MachineCrashed(TraceEvent):
    """Chaos: *machine* crashed hard — the query will abort."""

    __slots__ = ("machine",)
    kind = "chaos_crash"

    def __init__(self, tick, machine):
        super().__init__(tick)
        self.machine = machine


class Retransmit(TraceEvent):
    """Reliability: an unacknowledged frame was sent again."""

    __slots__ = ("machine", "dst", "seq", "attempt")
    kind = "retransmit"

    def __init__(self, tick, machine, dst, seq, attempt):
        super().__init__(tick)
        self.machine = machine
        self.dst = dst
        self.seq = seq
        self.attempt = attempt


class DuplicateFrameDropped(TraceEvent):
    """Reliability: the receiver discarded an already-seen frame."""

    __slots__ = ("machine", "src", "seq")
    kind = "dup_frame_dropped"

    def __init__(self, tick, machine, src, seq):
        super().__init__(tick)
        self.machine = machine
        self.src = src
        self.seq = seq


class FrameBuffered(TraceEvent):
    """Reliability: an out-of-order frame was parked for reordering."""

    __slots__ = ("machine", "src", "seq", "expected")
    kind = "frame_buffered"

    def __init__(self, tick, machine, src, seq, expected):
        super().__init__(tick)
        self.machine = machine
        self.src = src
        self.seq = seq
        self.expected = expected


class QueryAbortedEvent(TraceEvent):
    """The run was cancelled (crash, deadline) at this tick."""

    __slots__ = ("reason",)
    kind = "aborted"

    def __init__(self, tick, reason):
        super().__init__(tick)
        self.reason = reason


#: Every concrete event kind, in definition order.
EVENT_KINDS = tuple(cls.kind for cls in TraceEvent.__subclasses__())
