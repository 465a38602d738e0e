"""Simulated interconnect.

Messages handed to the network on tick *t* are delivered on tick
``t + latency + payload_size // bandwidth``.  Delivery is FIFO per
directed (source, destination) channel — the termination protocol relies
on a machine's ``COMPLETED`` notification never overtaking its earlier
work messages on the same channel, which matches the ordered reliable
transport (InfiniBand RC) the paper's messaging library runs on.

The chaos subsystem (``repro.chaos``) subclasses :class:`Network` to
inject message drops, duplications, and reordering delays; the
injection/transfer helpers below are factored out so the subclass can
reuse the cost model while overriding the delivery discipline.
"""

import heapq
import itertools


class Envelope:
    """A message in flight."""

    __slots__ = ("src", "dst", "payload", "deliver_at", "size", "sent_at")

    def __init__(self, src, dst, payload, deliver_at, size, sent_at=0):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.deliver_at = deliver_at
        self.size = size
        #: Tick the sender handed the payload over (latency histogram).
        self.sent_at = sent_at


class Network:
    """Latency/bandwidth network model with per-channel FIFO delivery.

    *sender_rate* models NIC serialization at the source: one machine
    can inject at most that many messages per tick, so all-to-all
    exchanges (e.g. the termination protocol's COMPLETED broadcasts)
    get slower as the cluster grows — matching the paper's observation
    that tiny-query overhead increases with the machine count.

    All clocks are integral.  NIC occupancy is tracked in *slots* of
    ``1/sender_rate`` tick each, using pure integer arithmetic, so a
    delivery tick is always a whole number — fractional per-message
    costs never leak into the simulator clock.
    """

    def __init__(self, latency=0, bandwidth=0, sender_rate=8):
        self._latency = latency
        self._bandwidth = bandwidth
        self._sender_rate = sender_rate
        self._heap = []
        self._sequence = itertools.count()
        # Last scheduled delivery tick per (src, dst), for FIFO enforcement.
        self._channel_clock = {}
        # Next free NIC slot per source, in units of 1/sender_rate ticks.
        self._source_slot = {}
        self.messages_delivered = 0
        # Fault counters; only ever incremented by the chaos subclass.
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0

    def __len__(self):
        """Messages currently in flight."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Cost model helpers (shared with repro.chaos.ChaosNetwork)
    # ------------------------------------------------------------------
    def _injection_tick(self, now, src):
        """Integral tick the source NIC injects the next message.

        The NIC serializes ``sender_rate`` messages per tick: message
        *k* of a burst occupies slot *k* and injects on tick
        ``slot // sender_rate`` — integer arithmetic throughout.
        """
        rate = self._sender_rate
        if not rate:
            return now
        slot = max(now * rate, self._source_slot.get(src, 0))
        self._source_slot[src] = slot + 1
        return slot // rate

    def _transfer_ticks(self, size):
        return size // self._bandwidth if self._bandwidth else 0

    def _fifo_clamp(self, channel, deliver_at):
        """Enforce per-channel FIFO: never deliver before a prior message."""
        previous = self._channel_clock.get(channel, -1)
        if deliver_at <= previous:
            deliver_at = previous  # keep FIFO order; ties break by sequence
        self._channel_clock[channel] = deliver_at
        return deliver_at

    def _push(self, src, dst, payload, deliver_at, size, sent_at=0):
        heapq.heappush(
            self._heap,
            (deliver_at, next(self._sequence),
             Envelope(src, dst, payload, deliver_at, size, sent_at)),
        )

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def send(self, now, src, dst, payload, size=0):
        """Queue *payload* from *src* to *dst*; returns the delivery tick."""
        deliver_at = (
            self._injection_tick(now, src)
            + self._latency
            + self._transfer_ticks(size)
        )
        deliver_at = self._fifo_clamp((src, dst), deliver_at)
        self._push(src, dst, payload, deliver_at, size, sent_at=now)
        return deliver_at

    def deliver_due(self, now):
        """Pop and return all envelopes due at or before tick *now*.

        Envelopes come out in (delivery tick, send order) — deterministic.
        """
        due = []
        while self._heap and self._heap[0][0] <= now:
            _, _, envelope = heapq.heappop(self._heap)
            due.append(envelope)
        self.messages_delivered += len(due)
        return due

    def next_delivery_tick(self):
        """Tick of the earliest in-flight envelope, or None when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]
