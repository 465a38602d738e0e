"""Reliable FIFO channels over an unreliable network.

The termination protocol (``runtime.termination``) and flow control
(``runtime.flow_control``) are sound only on an *ordered, reliable*
transport — the InfiniBand RC assumption the paper inherits from its
messaging library.  When the chaos subsystem makes delivery imperfect
(drops, duplicates, reordering), this module restores that abstraction
end to end, TCP-style but scaled to simulator ticks:

* the sender wraps every payload in a :class:`~repro.runtime.messages.
  RelFrame` carrying a per-``(src, dst)``-channel sequence number and
  keeps it buffered until acknowledged;
* the receiver delivers frames strictly in sequence order: duplicates
  are discarded, out-of-order frames wait in a reorder buffer;
* every received frame triggers a cumulative + selective
  :class:`~repro.runtime.messages.RelAck`; unacknowledged frames are
  retransmitted after a timeout with exponential backoff.

The transport duck-types :class:`~repro.cluster.simulator.MachineAPI`,
so the whole runtime above it (message manager, flow control,
termination) is unchanged — it simply sees the FIFO-reliable network it
was written for.  Delivered-exactly-once accounting lands in
``MachineMetrics`` (``retransmits``, ``dup_frames_dropped``,
``reordered_frames``).
"""

from repro.obs.events import DuplicateFrameDropped, FrameBuffered, Retransmit
from repro.runtime.messages import RelAck, RelFrame


class _ChannelSender:
    """Outbound half of one directed channel."""

    __slots__ = ("next_seq", "unacked")

    def __init__(self):
        self.next_seq = 0
        #: seq -> [frame, size, retransmit_at, current_rto, attempts]
        self.unacked = {}


class _ChannelReceiver:
    """Inbound half of one directed channel."""

    __slots__ = ("expected", "buffer")

    def __init__(self):
        self.expected = 0
        #: Out-of-order frames parked until the gap fills: seq -> payload.
        self.buffer = {}


class ReliableTransport:
    """Per-machine reliable channel layer wrapping a ``MachineAPI``."""

    def __init__(self, api, config, metrics, context):
        self._api = api
        self._metrics = metrics
        self._recording = context.recording
        self.machine_id = api.machine_id
        rto = config.retransmit_timeout
        if not rto:
            # Auto: a round trip plus slack for NIC serialization.
            rto = 2 * config.network_latency + 8
        self._rto = rto
        self._rto_cap = 8 * rto
        self._senders = {}
        self._receivers = {}
        #: Earliest pending retransmit tick (None = nothing buffered).
        self._next_poll = None

    # ------------------------------------------------------------------
    # MachineAPI surface
    # ------------------------------------------------------------------
    @property
    def now(self):
        return self._api.now

    @property
    def num_machines(self):
        return self._api.num_machines

    def send(self, dst, payload, size=0):
        sender = self._senders.get(dst)
        if sender is None:
            sender = self._senders[dst] = _ChannelSender()
        seq = sender.next_seq
        sender.next_seq += 1
        frame = RelFrame(seq, payload)
        retransmit_at = self.now + self._rto
        sender.unacked[seq] = [frame, size, retransmit_at, self._rto, 1]
        if self._next_poll is None or retransmit_at < self._next_poll:
            self._next_poll = retransmit_at
        self._api.send(dst, frame, size)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, src, payload):
        """Process one delivered payload.

        Returns the ``(src, inner_payload)`` pairs now deliverable to
        the machine, in channel order — possibly none (ack, duplicate,
        out-of-order frame) or several (a frame that filled a gap).
        """
        if isinstance(payload, RelAck):
            self._on_ack(src, payload)
            return ()
        if not isinstance(payload, RelFrame):
            # Unframed traffic (defensive): pass through untouched.
            return ((src, payload),)
        receiver = self._receivers.get(src)
        if receiver is None:
            receiver = self._receivers[src] = _ChannelReceiver()
        seq = payload.seq
        deliveries = []
        if seq < receiver.expected or seq in receiver.buffer:
            self._metrics.dup_frames_dropped += 1
            if self._recording is not None:
                self._recording.emit(DuplicateFrameDropped(
                    self.now, self.machine_id, src, seq
                ))
        else:
            receiver.buffer[seq] = payload.payload
            if seq != receiver.expected:
                self._metrics.reordered_frames += 1
                if self._recording is not None:
                    self._recording.emit(FrameBuffered(
                        self.now, self.machine_id, src, seq,
                        receiver.expected,
                    ))
            while receiver.expected in receiver.buffer:
                deliveries.append(
                    (src, receiver.buffer.pop(receiver.expected))
                )
                receiver.expected += 1
        # Ack on every frame — duplicates included, so a lost ack is
        # repaired by the retransmission it failed to suppress.
        self._api.send(src, RelAck(
            receiver.expected - 1, tuple(sorted(receiver.buffer))
        ))
        self._metrics.control_messages_sent += 1
        return deliveries

    def _on_ack(self, src, ack):
        sender = self._senders.get(src)
        if sender is None:
            return
        unacked = sender.unacked
        for seq in [seq for seq in unacked if seq <= ack.cumulative]:
            del unacked[seq]
        for seq in ack.sacked:
            unacked.pop(seq, None)

    # ------------------------------------------------------------------
    # Timers (driven by the simulator's per-tick hook)
    # ------------------------------------------------------------------
    def poll(self, now):
        """Retransmit every overdue unacknowledged frame.

        Backoff is exponential per frame (doubling up to a cap), so a
        stalled peer sees decaying retransmission pressure instead of a
        storm.  Returns the number of frames resent.
        """
        if self._next_poll is None or now < self._next_poll:
            return 0
        next_poll = None
        resent = 0
        for dst, sender in self._senders.items():
            for seq, record in sender.unacked.items():
                if record[2] <= now:
                    record[4] += 1
                    record[3] = min(record[3] * 2, self._rto_cap)
                    record[2] = now + record[3]
                    self._metrics.retransmits += 1
                    if self._recording is not None:
                        self._recording.emit(Retransmit(
                            now, self.machine_id, dst, seq, record[4]
                        ))
                        self._recording.retransmit_attempts.observe(
                            record[4]
                        )
                    self._api.send(dst, record[0], record[1])
                    resent += 1
                if next_poll is None or record[2] < next_poll:
                    next_poll = record[2]
        self._next_poll = next_poll
        return resent

    def next_timer_tick(self):
        """Earliest tick a retransmission may be due, or ``None``."""
        return self._next_poll

    def unacked_frames(self):
        """Frames still awaiting acknowledgment (abort diagnostics)."""
        return sum(len(sender.unacked) for sender in self._senders.values())
