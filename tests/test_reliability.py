"""Unit tests for the reliable-channel layer (``runtime.reliability``).

These drive a :class:`ReliableTransport` directly against a fake
``MachineAPI``, so every delivery guarantee — in-order release, dedup,
gap buffering, ack bookkeeping, retransmission with backoff — is pinned
down without a simulator in the loop.
"""

from repro.cluster import ClusterConfig, MachineMetrics
from repro.context import ExecutionContext
from repro.runtime import RelAck, RelFrame, ReliableTransport


class FakeApi:
    """Minimal MachineAPI: records sends, exposes a settable clock."""

    def __init__(self, machine_id=0, num_machines=2):
        self.machine_id = machine_id
        self.num_machines = num_machines
        self.now = 0
        self.sent = []

    def send(self, dst, payload, size=0):
        self.sent.append((dst, payload, size))


def make(rto=10, **config_kwargs):
    api = FakeApi()
    config = ClusterConfig(retransmit_timeout=rto, **config_kwargs)
    metrics = MachineMetrics()
    return ReliableTransport(api, config, metrics,
                             ExecutionContext()), api, metrics


def frames_sent(api, dst=None):
    return [payload for sent_dst, payload, _size in api.sent
            if isinstance(payload, RelFrame)
            and (dst is None or sent_dst == dst)]


class TestSendPath:
    def test_send_wraps_in_sequenced_frames(self):
        transport, api, _metrics = make()
        transport.send(1, "a")
        transport.send(1, "b")
        transport.send(0, "c")  # separate channel: its own numbering
        sent = frames_sent(api)
        assert [frame.seq for frame in sent] == [0, 1, 0]
        assert [frame.payload for frame in sent] == ["a", "b", "c"]
        assert transport.unacked_frames() == 3

    def test_frame_trace_name_shows_inner_type(self):
        frame = RelFrame(0, "payload")
        assert frame.trace_name == "Rel[str]"


class TestReceivePath:
    def test_in_order_frames_released_immediately(self):
        transport, api, _metrics = make()
        out = transport.receive(1, RelFrame(0, "a"))
        assert out == [(1, "a")]
        out = transport.receive(1, RelFrame(1, "b"))
        assert out == [(1, "b")]

    def test_out_of_order_buffered_then_released_in_order(self):
        transport, api, metrics = make()
        assert transport.receive(1, RelFrame(2, "c")) == []
        assert transport.receive(1, RelFrame(1, "b")) == []
        assert metrics.reordered_frames == 2
        # Seq 0 fills the gap: everything drains in sequence order.
        out = transport.receive(1, RelFrame(0, "a"))
        assert out == [(1, "a"), (1, "b"), (1, "c")]

    def test_duplicates_dropped_but_still_acked(self):
        transport, api, metrics = make()
        transport.receive(1, RelFrame(0, "a"))
        assert transport.receive(1, RelFrame(0, "a")) == []
        assert metrics.dup_frames_dropped == 1
        # Both receipts acked: a lost ack is repaired by the duplicate.
        acks = [payload for _dst, payload, _size in api.sent
                if isinstance(payload, RelAck)]
        assert len(acks) == 2
        assert all(ack.cumulative == 0 for ack in acks)

    def test_buffered_duplicate_also_dropped(self):
        transport, _api, metrics = make()
        transport.receive(1, RelFrame(3, "d"))
        transport.receive(1, RelFrame(3, "d"))
        assert metrics.dup_frames_dropped == 1

    def test_ack_reports_selective_gaps(self):
        transport, api, _metrics = make()
        transport.receive(1, RelFrame(0, "a"))
        transport.receive(1, RelFrame(2, "c"))
        ack = [payload for _dst, payload, _size in api.sent
               if isinstance(payload, RelAck)][-1]
        assert ack.cumulative == 0
        assert ack.sacked == (2,)

    def test_unframed_payload_passes_through(self):
        transport, _api, _metrics = make()
        assert transport.receive(1, "bare") == ((1, "bare"),)


class TestAcks:
    def test_cumulative_ack_clears_prefix(self):
        transport, _api, _metrics = make()
        for payload in "abc":
            transport.send(1, payload)
        transport.receive(1, RelAck(1, ()))
        assert transport.unacked_frames() == 1

    def test_selective_ack_clears_individual_frames(self):
        transport, _api, _metrics = make()
        for payload in "abc":
            transport.send(1, payload)
        transport.receive(1, RelAck(-1, (1,)))
        assert transport.unacked_frames() == 2

    def test_ack_for_unknown_channel_ignored(self):
        transport, _api, _metrics = make()
        transport.receive(1, RelAck(5, ()))  # nothing sent yet: no-op


class TestRetransmission:
    def test_no_retransmit_before_timeout(self):
        transport, api, metrics = make(rto=10)
        transport.send(1, "a")
        api.now = 9
        assert transport.poll(9) == 0
        assert metrics.retransmits == 0

    def test_retransmit_after_timeout(self):
        transport, api, metrics = make(rto=10)
        transport.send(1, "a")
        api.now = 10
        assert transport.poll(10) == 1
        assert metrics.retransmits == 1
        resent = frames_sent(api)
        assert resent[0].seq == resent[1].seq == 0

    def test_backoff_doubles_until_cap(self):
        transport, api, _metrics = make(rto=10)
        transport.send(1, "a")
        due = 10
        intervals = []
        for _attempt in range(6):
            api.now = due
            assert transport.poll(due) == 1
            nxt = transport.next_timer_tick()
            intervals.append(nxt - due)
            due = nxt
        assert intervals == [20, 40, 80, 80, 80, 80]  # cap = 8 * rto

    def test_ack_cancels_retransmission(self):
        transport, api, _metrics = make(rto=10)
        transport.send(1, "a")
        transport.receive(1, RelAck(0, ()))
        api.now = 50
        assert transport.poll(50) == 0
        assert transport.next_timer_tick() is None

    def test_next_timer_tracks_earliest_frame(self):
        transport, api, _metrics = make(rto=10)
        transport.send(1, "a")
        api.now = 5
        transport.send(1, "b")
        assert transport.next_timer_tick() == 10

    def test_auto_rto_from_latency(self):
        api = FakeApi()
        config = ClusterConfig(network_latency=6, retransmit_timeout=0)
        transport = ReliableTransport(api, config, MachineMetrics(),
                                      ExecutionContext())
        transport.send(1, "a")
        assert transport.next_timer_tick() == 2 * 6 + 8


class TestEndToEnd:
    def test_lossy_channel_delivers_exactly_once_in_order(self):
        """Simulate a lossy wire by hand: drop the first copy of every
        third frame, deliver the rest out of order, run retransmission —
        the receiver still sees every payload once, in order."""
        sender, sender_api, _m = make(rto=5)
        receiver, receiver_api, _m2 = make(rto=5)
        payloads = ["m%d" % i for i in range(9)]
        for payload in payloads:
            sender.send(1, payload)
        wire = frames_sent(sender_api)
        delivered = []
        # First pass: lose every third frame, shuffle the rest.
        survivors = [f for i, f in enumerate(wire) if i % 3 != 0]
        for frame in reversed(survivors):
            delivered.extend(p for _src, p in receiver.receive(0, frame))
        # Feed the acks back, then retransmit what's still missing.
        for _dst, payload, _size in list(receiver_api.sent):
            if isinstance(payload, RelAck):
                sender.receive(1, payload)
        assert sender.unacked_frames() == 3
        sender_api.now = 5
        sender.poll(5)
        for frame in frames_sent(sender_api)[len(wire):]:
            delivered.extend(p for _src, p in receiver.receive(0, frame))
        assert delivered == payloads
