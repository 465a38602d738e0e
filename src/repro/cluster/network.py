"""Simulated interconnect.

Messages handed to the network on tick *t* are delivered on tick
``t + latency + payload_size // bandwidth``.  Delivery is FIFO per
directed (source, destination) channel — the termination protocol relies
on a machine's ``COMPLETED`` notification never overtaking its earlier
work messages on the same channel, which matches the ordered reliable
transport (InfiniBand RC) the paper's messaging library runs on.

:meth:`Network.send` is the whole fault-free path: the cost model
(:meth:`Network._arrival`: NIC slot, latency, transfer), the FIFO clamp
and the enqueue.  A message in flight is its :class:`Envelope`, which
is also its heap entry.  The chaos subsystem (``repro.chaos``)
subclasses :class:`Network` to inject message drops, duplications and
reordering delays: it shares ``_arrival`` and replaces the delivery
discipline.
"""

from collections import namedtuple
from heapq import heappop, heappush

#: A message in flight and the network heap's entry for it: entries
#: order by delivery tick, then by send order (``seq`` is unique, so a
#: payload is never compared).  ``sent_at`` is the tick the sender
#: handed the payload over (latency histogram).  Senders build one with
#: ``_envelope(Envelope, fields)``, which skips namedtuple's Python-level
#: ``__new__``.
Envelope = namedtuple("Envelope", "deliver_at seq src dst payload sent_at")
_envelope = tuple.__new__


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
        # Send counter: the seq of the last envelope queued.
        self._sequence = 0
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

    def _arrival(self, now, src, size):
        """The cost model: the tick a message of *size* that *src*
        hands over on tick *now* lands, before any FIFO clamp.

        The NIC serializes ``sender_rate`` messages per tick: message
        *k* of a burst occupies slot *k* and injects on tick
        ``slot // sender_rate`` — integer arithmetic throughout.  The
        link then adds its latency and ``size // bandwidth`` ticks.
        """
        rate = self._sender_rate
        if rate:
            slot = self._source_slot.get(src, 0)
            if slot < now * rate:
                slot = now * rate
            self._source_slot[src] = slot + 1
            now = slot // rate
        if self._bandwidth:
            return now + self._latency + size // self._bandwidth
        return now + self._latency

    def send(self, now, src, dst, payload, size=0):
        """Queue *payload* from *src* to *dst*; returns the delivery tick.

        A message never lands before an earlier one on its channel;
        ties break by send order.
        """
        deliver_at = self._arrival(now, src, size)
        channel = (src, dst)
        previous = self._channel_clock.get(channel, -1)
        if deliver_at < previous:
            deliver_at = previous
        self._channel_clock[channel] = deliver_at
        self._sequence += 1
        heappush(self._heap, _envelope(Envelope, (
            deliver_at, self._sequence, src, dst, payload, now,
        )))
        return deliver_at

    def deliver_due(self, now):
        """Pop and return all envelopes due at or before tick *now*.

        Envelopes come out in (delivery tick, send order) — deterministic.
        """
        heap = self._heap
        due = []
        while heap and heap[0][0] <= now:
            due.append(heappop(heap))
        self.messages_delivered += len(due)
        return due

    def next_delivery_tick(self):
        """Tick of the earliest in-flight envelope, or None when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]
