"""Unit tests for the cluster simulator substrate."""

import pytest

from repro.cluster import (
    ClusterConfig,
    MachineMetrics,
    Network,
    QueryMetrics,
    Simulator,
)
from repro.errors import ClusterConfigError, RuntimeFault


class TestClusterConfig:
    def test_defaults_validate(self):
        ClusterConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_machines", 0),
            ("workers_per_machine", 0),
            ("ops_per_tick", 0),
            ("network_latency", -1),
            ("bulk_message_size", 0),
            ("flow_control_window", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ClusterConfigError):
            ClusterConfig(**{field: value})

    def test_replace(self):
        config = ClusterConfig(num_machines=4)
        other = config.replace(num_machines=8)
        assert other.num_machines == 8
        assert config.num_machines == 4


class TestNetwork:
    def test_latency(self):
        network = Network(latency=5)
        network.send(10, 0, 1, "hello")
        assert network.deliver_due(14) == []
        due = network.deliver_due(15)
        assert len(due) == 1
        assert due[0].payload == "hello"

    def test_bandwidth_adds_transfer_time(self):
        network = Network(latency=2, bandwidth=10)
        network.send(0, 0, 1, "big", size=35)
        assert network.deliver_due(4) == []
        assert len(network.deliver_due(5)) == 1

    def test_fifo_per_channel(self):
        network = Network(latency=1, bandwidth=1)
        # A slow big message then a fast small one on the same channel.
        network.send(0, 0, 1, "big", size=10)
        network.send(1, 0, 1, "small", size=0)
        due = network.deliver_due(100)
        assert [envelope.payload for envelope in due] == ["big", "small"]
        assert due[0].deliver_at <= due[1].deliver_at

    def test_channels_are_independent(self):
        network = Network(latency=1, bandwidth=1)
        network.send(0, 0, 1, "slow", size=50)
        network.send(0, 2, 1, "fast", size=0)
        first = network.deliver_due(1)
        assert [envelope.payload for envelope in first] == ["fast"]

    def test_next_delivery_tick(self):
        network = Network(latency=3)
        assert network.next_delivery_tick() is None
        network.send(0, 0, 1, "x")
        assert network.next_delivery_tick() == 3

    def test_deterministic_order_same_tick(self):
        network = Network(latency=0)
        for index in range(5):
            network.send(0, 0, 1, index)
        # Sender-side NIC serialization staggers same-tick messages, but
        # the order stays the send order.
        payloads = [envelope.payload for envelope in network.deliver_due(10)]
        assert payloads == [0, 1, 2, 3, 4]

    def test_sender_rate_staggers_broadcasts(self):
        network = Network(latency=0, sender_rate=1)
        for dst in range(1, 5):
            network.send(0, 0, dst, dst)
        # One message per tick leaves the NIC: the last lands 3 ticks in.
        assert len(network.deliver_due(0)) == 1
        assert len(network.deliver_due(2)) == 2
        assert len(network.deliver_due(3)) == 1

    def test_unlimited_sender_rate(self):
        network = Network(latency=0, sender_rate=0)
        for dst in range(1, 5):
            network.send(0, 0, dst, dst)
        assert len(network.deliver_due(0)) == 4

    @pytest.mark.parametrize("rate", [1, 2, 3, 7, 8])
    def test_clock_stays_integral(self, rate):
        """Regression: fractional NIC serialization cost must never leak
        into delivery ticks (the clock is integer ticks, always)."""
        network = Network(latency=2, sender_rate=rate)
        for index in range(3 * rate + 1):
            network.send(0, 0, 1 + index % 3, index)
        ticks = [envelope.deliver_at for envelope in network.deliver_due(100)]
        assert all(isinstance(tick, int) for tick in ticks)
        assert network.next_delivery_tick() is None

    def test_sender_rate_slots_per_tick(self):
        # rate=3: exactly three messages leave the NIC per tick.
        network = Network(latency=0, sender_rate=3)
        for index in range(7):
            network.send(0, 0, 1 + index % 3, index)
        assert len(network.deliver_due(0)) == 3
        assert len(network.deliver_due(1)) == 3
        assert len(network.deliver_due(2)) == 1

    def test_idle_nic_clock_catches_up(self):
        # A quiet NIC doesn't accumulate debt: sending again later uses
        # the current tick, not stale slots from the last burst.
        network = Network(latency=0, sender_rate=1)
        network.send(0, 0, 1, "early")
        network.deliver_due(0)
        network.send(50, 0, 1, "late")
        due = network.deliver_due(50)
        assert [envelope.payload for envelope in due] == ["late"]


class TestWorkerStepPhases:
    def test_finished_machine_idles_without_entering_worker(
            self, monkeypatch):
        """Bootstrap and await-completion are phases of worker_step;
        past them a slice is one idle tick and no DOWORK scan."""
        from repro import uniform_random_graph
        from repro.context import ExecutionContext
        from repro.runtime import PgxdAsyncEngine
        from repro.runtime.worker import Worker

        graph = uniform_random_graph(60, 240, seed=3)
        engine = PgxdAsyncEngine(graph, ClusterConfig(num_machines=2))
        plan = engine.plan("SELECT a, b WHERE (a)-[]->(b)")
        simulator, machines = engine.prepare_execution(
            plan, ExecutionContext()
        )
        simulator.run()
        machine = machines[0]
        assert machine.is_finished()
        # The await-completion phase ends on the first slice that sees
        # every stage globally complete; that slice still polls DOWORK.
        machine.worker_step(0, 100)

        def entered(self, budget):
            raise AssertionError("Worker.step entered after completion")

        monkeypatch.setattr(Worker, "step", entered)
        idle_before = machine.metrics.idle_ticks
        assert machine.worker_step(0, 100) == 0
        assert machine.metrics.idle_ticks == idle_before + 1


class _CountdownMachine:
    """Test machine: performs N ops then pings its peer; finishes when
    it has both run out of local work and received a ping."""

    def __init__(self, api, work):
        self.api = api
        self.remaining = work
        self.got_ping = False
        self.sent = False
        self.metrics = MachineMetrics()

    def on_message(self, src, payload):
        assert payload == "ping"
        self.got_ping = True

    def worker_step(self, worker_index, budget):
        if self.remaining > 0:
            used = min(budget, self.remaining)
            self.remaining -= used
            self.metrics.ops += used
            if self.remaining == 0 and not self.sent:
                peer = 1 - self.api.machine_id
                self.api.send(peer, "ping")
                self.sent = True
            return used
        return 0

    def is_finished(self):
        return self.remaining == 0 and self.got_ping


class TestSimulator:
    def test_runs_to_completion(self):
        config = ClusterConfig(num_machines=2, workers_per_machine=1,
                               ops_per_tick=10, network_latency=3)
        simulator = Simulator(config)
        machines = [
            _CountdownMachine(simulator.api_for(0), 25),
            _CountdownMachine(simulator.api_for(1), 5),
        ]
        simulator.attach(machines)
        metrics = simulator.run()
        assert metrics.total_ops == 30
        # Machine 0 needs 3 ticks of work; machine 1's ping arrives later.
        assert metrics.ticks >= 3

    def test_machine_count_checked(self):
        simulator = Simulator(ClusterConfig(num_machines=3))
        with pytest.raises(RuntimeFault):
            simulator.attach([])

    def test_self_send_rejected(self):
        simulator = Simulator(ClusterConfig(num_machines=2))
        api = simulator.api_for(0)
        with pytest.raises(RuntimeFault):
            api.send(0, "loopback")

    def test_metrics_collect(self):
        per_machine = [MachineMetrics(ops=5), MachineMetrics(ops=7)]
        per_machine[0].buffered_delta(4)
        per_machine[0].buffered_delta(-2)
        metrics = QueryMetrics.collect(100, per_machine)
        assert metrics.ticks == 100
        assert metrics.total_ops == 12
        assert metrics.peak_buffered_contexts == 4
        assert "ticks=100" in metrics.summary()
