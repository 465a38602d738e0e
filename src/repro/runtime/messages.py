"""Message types exchanged between simulated machines.

Work messages are *bulk* messages: the message manager packs up to
``bulk_message_size`` intermediate results (contexts) into one network
message (paper §3.2, "already-full bulk messages").  Everything else is
small control traffic that bypasses flow control: acknowledgments,
COMPLETED notifications of the termination protocol, and the quota
messages of dynamic flow-control capacity borrowing.
"""

import itertools

_SEQUENCE = itertools.count(1)


class WorkMessage:
    """A bulk of intermediate results destined for one stage.

    ``items`` are plain context tuples, except for CN_PROBE stages where
    each item is ``(ctx, candidates)`` with *candidates* a tuple of
    ``(vertex, appendix)`` pairs (see ``runtime.hops``).
    """

    __slots__ = ("stage", "items", "seq", "src", "arrived_at")

    def __init__(self, stage, items):
        self.stage = stage
        self.items = items
        self.seq = next(_SEQUENCE)
        self.src = None  # filled in on delivery
        self.arrived_at = 0  # delivery tick (inbox-wait histogram)

    def __len__(self):
        return len(self.items)

    def __repr__(self):
        return "WorkMessage(stage=%d, items=%d, seq=%d)" % (
            self.stage, len(self.items), self.seq,
        )


class Ack:
    """Receiver finished processing *count* bulk messages of *stage*.

    Frees the sender's flow-control window (paper §3.3) and, in blocking
    mode, wakes workers waiting on specific message sequence numbers.
    """

    __slots__ = ("stage", "count", "seqs")

    def __init__(self, stage, count, seqs=()):
        self.stage = stage
        self.count = count
        self.seqs = tuple(seqs)

    def __repr__(self):
        return "Ack(stage=%d, count=%d)" % (self.stage, self.count)


class Completed:
    """Termination protocol: the sender finished processing *stage*."""

    __slots__ = ("stage",)

    def __init__(self, stage):
        self.stage = stage

    def __repr__(self):
        return "Completed(stage=%d)" % self.stage


class QuotaRequest:
    """Dynamic flow control: ask a peer for spare window capacity.

    The requester is blocked sending *stage* traffic to *dest*; the peer
    may donate part of its own unused window for the same (stage, dest).
    """

    __slots__ = ("stage", "dest")

    def __init__(self, stage, dest):
        self.stage = stage
        self.dest = dest

    def __repr__(self):
        return "QuotaRequest(stage=%d, dest=%d)" % (self.stage, self.dest)


class QuotaGrant:
    """Dynamic flow control: donate *amount* window slots."""

    __slots__ = ("stage", "dest", "amount")

    def __init__(self, stage, dest, amount):
        self.stage = stage
        self.dest = dest
        self.amount = amount

    def __repr__(self):
        return "QuotaGrant(stage=%d, dest=%d, amount=%d)" % (
            self.stage, self.dest, self.amount,
        )


class RelFrame:
    """Reliability layer: one sequenced frame of a directed channel.

    Wraps an application payload (work or control) with the per-
    ``(src, dst)`` channel sequence number the receiver uses for dedup
    and reordering (``runtime.reliability``).  ``stage`` and
    ``trace_name`` delegate to the inner payload so traces and metrics
    stay readable through the wrapper.
    """

    __slots__ = ("seq", "payload", "size")

    def __init__(self, seq, payload, size=0):
        self.seq = seq
        self.payload = payload
        self.size = size

    @property
    def stage(self):
        return getattr(self.payload, "stage", None)

    @property
    def trace_name(self):
        return "Rel[%s]" % type(self.payload).__name__

    def __repr__(self):
        return "RelFrame(seq=%d, payload=%r)" % (self.seq, self.payload)


class RelAck:
    """Reliability layer: cumulative + selective acknowledgment.

    ``cumulative`` acknowledges every frame up to and including that
    sequence number; ``sacked`` lists out-of-order frames already held
    in the receiver's reorder buffer.  Acks are idempotent and sent
    unframed, so their own loss or duplication is harmless — the next
    (re)delivery triggers a fresh one.
    """

    __slots__ = ("cumulative", "sacked")

    def __init__(self, cumulative, sacked=()):
        self.cumulative = cumulative
        self.sacked = tuple(sacked)

    def __repr__(self):
        return "RelAck(cumulative=%d, sacked=%r)" % (
            self.cumulative, self.sacked,
        )
