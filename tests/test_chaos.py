"""Integration tests for the chaos & reliability subsystem.

The headline guarantee: a query running under seeded message chaos
(drops, duplicates, reordering) returns *exactly* the same results as
the fault-free run, because the reliability layer restores the ordered
exactly-once delivery the termination protocol requires.  Crashes and
deadlines are unrecoverable by design and abort with a structured
:class:`~repro.errors.QueryAborted` carrying partial state.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ClusterConfig, ExecutionContext, PgxdAsyncEngine, \
    run_query, uniform_random_graph
from repro.chaos import ChaosConfig, ChaosNetwork, FaultPlan, PROFILES, \
    profile
from repro.cluster import Network
from repro.errors import ClusterConfigError, QueryAborted
from repro.obs import Recording

QUERY = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.type = 1"


@pytest.fixture(scope="module")
def chaos_graph():
    return uniform_random_graph(200, 1_200, seed=21, num_types=4)


@pytest.fixture(scope="module")
def clean_rows(chaos_graph):
    result = run_query(chaos_graph, QUERY, ClusterConfig(num_machines=4))
    return sorted(result.rows)


def chaos_run(graph, chaos, query=QUERY, context=None, **config_kwargs):
    config = ClusterConfig(num_machines=4, chaos=chaos, reliability=True,
                           **config_kwargs)
    return run_query(graph, query, config, context=context)


class TestChaosParity:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profiles_preserve_results(self, chaos_graph, clean_rows, name):
        result = chaos_run(chaos_graph, profile(name, seed=7))
        assert sorted(result.rows) == clean_rows

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_soak_parity_across_seeds(self, chaos_graph, clean_rows, seed):
        result = chaos_run(chaos_graph, profile("soak", seed=seed))
        assert sorted(result.rows) == clean_rows

    def test_faults_actually_injected(self, chaos_graph):
        result = chaos_run(chaos_graph, profile("soak", seed=7))
        metrics = result.metrics
        assert metrics.messages_dropped > 0
        assert metrics.messages_duplicated > 0
        assert metrics.messages_delayed > 0
        # Every injected fault shows up as recovery work somewhere.
        assert metrics.retransmits > 0
        assert metrics.dup_frames_dropped > 0
        assert metrics.reordered_frames > 0
        assert "retransmits=" in metrics.reliability_summary()

    def test_memory_bound_holds_under_chaos(self, chaos_graph):
        """The flow-control receiver bound survives fault injection:
        duplicates are dropped before the buffers, retransmits replace
        (never add to) in-flight frames."""
        machines, window, bulk = 4, 2, 4
        config = ClusterConfig(
            num_machines=machines,
            flow_control_window=window,
            bulk_message_size=bulk,
            dynamic_flow_control=False,
            chaos=profile("soak", seed=5),
            reliability=True,
        )
        result = run_query(chaos_graph, QUERY, config)
        num_stages = result.plan.num_stages
        bound = num_stages * (machines - 1) * window * bulk \
            + num_stages * (machines - 1) * bulk
        assert result.metrics.peak_buffered_contexts <= bound

    def test_chaos_emits_trace_events(self, chaos_graph):
        result = chaos_run(chaos_graph, profile("soak", seed=7),
                           context=ExecutionContext(recording=Recording()))
        kinds = {event.kind for event in result.recording.events}
        assert "chaos_drop" in kinds
        assert "chaos_duplicate" in kinds
        assert "chaos_delay" in kinds
        assert "retransmit" in kinds
        assert "dup_frame_dropped" in kinds

    def test_chaos_runs_are_deterministic(self, chaos_graph):
        first = chaos_run(chaos_graph, profile("soak", seed=11))
        second = chaos_run(chaos_graph, profile("soak", seed=11))
        assert first.rows == second.rows
        assert first.metrics.ticks == second.metrics.ticks
        assert first.metrics.retransmits == second.metrics.retransmits
        assert first.metrics.messages_dropped == \
            second.metrics.messages_dropped


class TestStalls:
    def test_stall_recovers_with_identical_results(self, chaos_graph,
                                                   clean_rows):
        chaos = ChaosConfig(stalls=((1, 5, 20), (2, 10, 10)))
        result = chaos_run(chaos_graph, chaos)
        assert sorted(result.rows) == clean_rows

    def test_stall_emits_trace_events(self, chaos_graph):
        chaos = ChaosConfig(stalls=((1, 5, 20),))
        result = chaos_run(chaos_graph, chaos,
                           context=ExecutionContext(recording=Recording()))
        kinds = {event.kind for event in result.recording.events}
        assert "chaos_stall" in kinds
        assert "chaos_resume" in kinds

    def test_stall_without_message_faults_needs_no_reliability(
            self, chaos_graph, clean_rows):
        config = ClusterConfig(num_machines=4,
                               chaos=ChaosConfig(stalls=((0, 3, 8),)))
        result = run_query(chaos_graph, QUERY, config)
        assert sorted(result.rows) == clean_rows


class TestAborts:
    def test_crash_aborts_with_partial_state(self, chaos_graph):
        chaos = ChaosConfig(crashes=((2, 15),))
        with pytest.raises(QueryAborted) as info:
            chaos_run(chaos_graph, chaos)
        aborted = info.value
        assert "machine 2 crashed" in aborted.reason
        assert aborted.tick == 15
        assert aborted.metrics is not None
        assert aborted.metrics.ticks == 15
        assert "stages complete" in aborted.detail

    def test_crash_under_message_chaos_reports_unacked(self, chaos_graph):
        chaos = profile("drop", seed=3).replace(crashes=((1, 20),))
        with pytest.raises(QueryAborted) as info:
            chaos_run(chaos_graph, chaos)
        assert "unacked" in info.value.detail

    def test_crash_emits_abort_trace_event(self, chaos_graph):
        chaos = ChaosConfig(crashes=((0, 10),))
        recording = Recording()
        with pytest.raises(QueryAborted) as info:
            chaos_run(chaos_graph, chaos,
                      context=ExecutionContext(recording=recording))
        assert info.value.recording is recording
        kinds = [event.kind for event in recording.events]
        assert "chaos_crash" in kinds
        assert "aborted" in kinds
        assert recording.meta.get("aborted")

    def test_deadline_aborts(self, chaos_graph):
        with pytest.raises(QueryAborted) as info:
            run_query(chaos_graph, QUERY, ClusterConfig(num_machines=4),
                      context=ExecutionContext(deadline=3))
        aborted = info.value
        assert "deadline" in aborted.reason
        assert aborted.tick == 3
        assert aborted.metrics is not None

    def test_timeout_option_overrides_config(self, chaos_graph):
        # The one precedence rule left: submit's plain ``deadline=``
        # wins over the deadline its ``context=`` already carries.
        engine = PgxdAsyncEngine(chaos_graph, ClusterConfig(num_machines=4))
        handle = engine.submit(
            QUERY, deadline=4, context=ExecutionContext(deadline=100_000)
        )
        with pytest.raises(QueryAborted) as info:
            handle.result()
        assert info.value.tick == 4

    def test_generous_deadline_does_not_fire(self, chaos_graph, clean_rows):
        result = run_query(chaos_graph, QUERY, ClusterConfig(num_machines=4),
                           context=ExecutionContext(deadline=100_000))
        assert sorted(result.rows) == clean_rows


class TestFaultPlan:
    def fates(self, config, seed, n=200):
        plan = FaultPlan(config, default_seed=seed)
        return [plan.message_fate(tick, 0, 1) for tick in range(n)]

    def test_same_seed_same_fates(self):
        config = profile("soak")
        assert self.fates(config, 9) == self.fates(config, 9)

    def test_different_seed_different_fates(self):
        config = profile("soak")
        assert self.fates(config, 1) != self.fates(config, 2)

    def test_config_seed_wins_over_default(self):
        config = profile("soak", seed=5)
        assert self.fates(config, 1) == self.fates(config, 2)

    def test_dropped_never_duplicated(self):
        config = ChaosConfig(drop_rate=0.5, duplicate_rate=0.5)
        for drop, duplicate, _delay, _dup_delay in self.fates(config, 3):
            assert not (drop and duplicate)

    def test_zero_rates_inject_nothing(self):
        for fate in self.fates(ChaosConfig(), 4):
            assert fate == (False, False, 0, 0)


class TestConfigValidation:
    def test_message_faults_require_reliability(self):
        with pytest.raises(ClusterConfigError):
            ClusterConfig(chaos=ChaosConfig(drop_rate=0.1))

    def test_bad_rate_rejected(self):
        with pytest.raises(ClusterConfigError):
            ChaosConfig(drop_rate=1.5)

    def test_bad_stall_rejected(self):
        with pytest.raises(ClusterConfigError):
            ChaosConfig(stalls=((0, 5, 0),))

    def test_bad_crash_rejected(self):
        with pytest.raises(ClusterConfigError):
            ChaosConfig(crashes=((-1, 5),))

    def test_unknown_profile_rejected(self):
        with pytest.raises(ClusterConfigError):
            profile("tsunami")

    def test_bad_deadline_rejected(self, chaos_graph):
        # A run setting, so a run outcome: typed, at tick 0, not a hang.
        with pytest.raises(QueryAborted) as info:
            run_query(chaos_graph, QUERY, ClusterConfig(num_machines=4),
                      context=ExecutionContext(deadline=0))
        assert info.value.tick == 0

    def test_chaos_machine_out_of_range_rejected(self, chaos_graph):
        chaos = ChaosConfig(crashes=((99, 5),))
        with pytest.raises(ClusterConfigError):
            chaos_run(chaos_graph, chaos)


class TestFaultFreeChaosNetwork:
    """A ChaosNetwork whose plan injects nothing is the plain Network:
    both price a message with the one cost model and clamp it FIFO."""

    @given(
        sender_rate=st.sampled_from([0, 1, 3, 8]),
        bandwidth=st.sampled_from([0, 1, 10]),
        latency=st.integers(0, 3),
        sends=st.lists(
            st.tuples(
                st.integers(0, 2),  # ticks since the previous send
                st.integers(0, 3),  # src
                st.integers(1, 3),  # dst offset from src
                st.integers(0, 40),  # size
            ),
            max_size=40,
        ),
    )
    def test_delivers_what_network_delivers(self, sender_rate, bandwidth,
                                            latency, sends):
        plain = Network(latency=latency, bandwidth=bandwidth,
                        sender_rate=sender_rate)
        chaotic = ChaosNetwork(
            latency=latency, bandwidth=bandwidth, sender_rate=sender_rate,
            plan=FaultPlan(ChaosConfig(), default_seed=0),
        )
        logs = {plain: [], chaotic: []}
        now = 0
        for index, (gap, src, offset, size) in enumerate(sends):
            now += gap
            for network, log in logs.items():
                log.extend(
                    (env.deliver_at, env.src, env.dst, env.payload)
                    for env in network.deliver_due(now)
                )
                log.append(network.send(now, src, (src + offset) % 4,
                                        index, size))
        for network, log in logs.items():
            log.extend(
                (env.deliver_at, env.src, env.dst, env.payload)
                for env in network.deliver_due(now + 10_000)
            )
        assert logs[chaotic] == logs[plain]
        assert len(chaotic) == len(plain) == 0
        assert chaotic.messages_delivered == len(sends)
