"""A :class:`~repro.cluster.network.Network` that injects faults.

``ChaosNetwork.send`` prices every message with the base cost model
(``Network._arrival``: latency, bandwidth, NIC serialization) but
replaces the delivery discipline according to a
:class:`~repro.chaos.plan.FaultPlan`:

* **drop** — the envelope is never enqueued; the sender still paid its
  NIC slot and remains oblivious (exactly like a lost frame);
* **duplicate** — a second copy is enqueued with an independent delay,
  bypassing the FIFO clamp (a retransmission-style spurious copy);
* **delay/reorder** — the original is pushed past the per-channel FIFO
  clock, so later traffic on the same channel can overtake it.

Every injection is counted and, when the run is recorded, emitted as
a typed ``repro.obs`` event so faults show up on the query timeline.
"""

from heapq import heappush

from repro.cluster.network import Envelope, Network, _envelope
from repro.obs.events import MessageDelayed, MessageDropped, MessageDuplicated


def _payload_name(payload):
    return getattr(payload, "trace_name", type(payload).__name__)


class ChaosNetwork(Network):
    """Latency/bandwidth network with seeded fault injection."""

    def __init__(self, latency=0, bandwidth=0, sender_rate=8, plan=None,
                 recording=None):
        super().__init__(latency=latency, bandwidth=bandwidth,
                         sender_rate=sender_rate)
        if plan is None:
            raise ValueError("ChaosNetwork requires a FaultPlan")
        self._plan = plan
        self.recording = recording

    @property
    def plan(self):
        return self._plan

    def send(self, now, src, dst, payload, size=0):
        base = self._arrival(now, src, size)
        drop, duplicate, delay, dup_delay = self._plan.message_fate(
            now, src, dst
        )
        recording = self.recording
        if delay:
            # A delayed message escapes the FIFO clamp: that is exactly
            # how it ends up overtaken by later traffic on its channel.
            deliver_at = base + delay
            self.messages_delayed += 1
            if recording is not None:
                recording.emit(MessageDelayed(
                    now, src, dst, _payload_name(payload), delay
                ))
        else:
            # Network.send's FIFO clamp; a dropped message holds its
            # channel's clock too, since its sender believes it sent.
            deliver_at = max(base, self._channel_clock.get((src, dst), -1))
            self._channel_clock[src, dst] = deliver_at
        copies = () if drop else (deliver_at,)
        if drop:
            self.messages_dropped += 1
            if recording is not None:
                recording.emit(MessageDropped(
                    now, src, dst, _payload_name(payload)
                ))
        if duplicate:
            self.messages_duplicated += 1
            if recording is not None:
                recording.emit(MessageDuplicated(
                    now, src, dst, _payload_name(payload), dup_delay
                ))
            copies += (base + dup_delay,)
        for tick in copies:
            self._sequence += 1
            heappush(self._heap, _envelope(Envelope, (
                tick, self._sequence, src, dst, payload, now,
            )))
        return deliver_at
