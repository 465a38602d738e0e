"""Edge-case tests for the simulator loop and clock handling."""

import pytest

from repro.cluster import ClusterConfig, MachineMetrics, Simulator
from repro.errors import RuntimeFault


class _SleeperMachine:
    """Does nothing until it receives a wakeup message."""

    def __init__(self, api):
        self.api = api
        self.woke = api.machine_id == 0
        self.sent = False
        self.metrics = MachineMetrics()

    def on_message(self, src, payload):
        self.woke = True

    def worker_step(self, worker_index, budget):
        if self.api.machine_id == 0 and not self.sent:
            self.sent = True
            self.api.send(1, "wake")
            return 1
        return 0

    def is_finished(self):
        return self.woke


class TestFastForward:
    def test_clock_jumps_to_next_delivery(self):
        config = ClusterConfig(num_machines=2, network_latency=500)
        simulator = Simulator(config)
        machines = [
            _SleeperMachine(simulator.api_for(0)),
            _SleeperMachine(simulator.api_for(1)),
        ]
        simulator.attach(machines)
        metrics = simulator.run()
        # The run must not iterate 500 empty ticks one by one: the clock
        # fast-forwards, but the total still reflects the latency.
        assert metrics.ticks >= 500
        assert metrics.ticks < 510

    def test_integer_clock_with_fractional_nic(self):
        config = ClusterConfig(num_machines=2, network_latency=3,
                               sender_messages_per_tick=3)
        simulator = Simulator(config)
        machines = [
            _SleeperMachine(simulator.api_for(0)),
            _SleeperMachine(simulator.api_for(1)),
        ]
        simulator.attach(machines)
        metrics = simulator.run()
        assert isinstance(metrics.ticks, int)


class _StuckMachine:
    def __init__(self, api):
        self.metrics = MachineMetrics()

    def on_message(self, src, payload):
        pass

    def worker_step(self, worker_index, budget):
        return 0

    def is_finished(self):
        return False  # never


class _TimerOnlyMachine(_StuckMachine):
    """Idle forever, but always with a timer pending 1000 ticks out."""

    uses_tick_hook = True

    def __init__(self, api):
        super().__init__(api)
        self.api = api

    def on_tick(self, now):
        pass

    def next_timer_tick(self):
        return self.api.now + 1000


class TestDeadlockDetection:
    def test_idle_unfinished_raises(self):
        config = ClusterConfig(num_machines=1)
        simulator = Simulator(config)
        simulator.attach([_StuckMachine(simulator.api_for(0))])
        with pytest.raises(RuntimeFault):
            simulator.run()

    def test_fast_forward_respects_max_ticks(self):
        """An idle run that always has a timer to jump to must still
        trip the safety valve instead of fast-forwarding for ever."""
        config = ClusterConfig(num_machines=1, max_ticks=10_000)
        simulator = Simulator(config)
        simulator.attach([_TimerOnlyMachine(simulator.api_for(0))])
        simulator.start()
        with pytest.raises(RuntimeFault, match="max_ticks"):
            for _ in range(50):
                simulator.step()
        assert simulator.now <= 10_000 + 1000


class _BusyMachine:
    def __init__(self, api):
        self.metrics = MachineMetrics()

    def on_message(self, src, payload):
        pass

    def worker_step(self, worker_index, budget):
        return budget  # spins forever

    def is_finished(self):
        return False


class TestMaxTicks:
    def test_runaway_guard(self):
        config = ClusterConfig(num_machines=1, max_ticks=100)
        simulator = Simulator(config)
        simulator.attach([_BusyMachine(simulator.api_for(0))])
        with pytest.raises(RuntimeFault):
            simulator.run()
