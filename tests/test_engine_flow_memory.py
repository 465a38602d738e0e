"""Integration tests for flow control, memory bounds, and blocking mode.

These check the paper's systems claims end to end:

* queries complete under arbitrarily small flow-control budgets, with
  identical results (the "deterministic guarantee of query completion
  under a finite amount of memory");
* peak buffered contexts respect the configured receiver-side bound;
* dynamic memory management (redistribution + borrowing) never changes
  results;
* asynchronous execution beats blocking execution under latency.
"""

import pytest

from repro import ClusterConfig, run_query, uniform_random_graph

HEAVY_QUERY = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.type = 1"


@pytest.fixture(scope="module")
def workload_graph():
    return uniform_random_graph(200, 1_200, seed=21, num_types=4)


class TestMemoryBounds:
    @pytest.mark.parametrize("window,bulk", [(8, 32), (2, 8), (1, 2), (1, 1)])
    def test_completes_under_any_budget(self, workload_graph, window, bulk):
        config = ClusterConfig(
            num_machines=4,
            flow_control_window=window,
            bulk_message_size=bulk,
        )
        result = run_query(workload_graph, HEAVY_QUERY, config)
        reference = run_query(
            workload_graph, HEAVY_QUERY, ClusterConfig(num_machines=1)
        )
        assert sorted(result.rows) == sorted(reference.rows)

    def test_peak_buffering_respects_budget(self, workload_graph):
        """Receiver-side bound: stages * senders * window * bulk."""
        machines = 4
        window, bulk = 2, 4
        config = ClusterConfig(
            num_machines=machines,
            flow_control_window=window,
            bulk_message_size=bulk,
            dynamic_flow_control=False,
        )
        result = run_query(workload_graph, HEAVY_QUERY, config)
        num_stages = result.plan.num_stages
        # A machine buffers at most: inbound in-flight per (stage, sender)
        # plus its own outgoing partial buffers (one per stage/dest pair).
        bound = num_stages * (machines - 1) * window * bulk \
            + num_stages * (machines - 1) * bulk
        assert result.metrics.peak_buffered_contexts <= bound

    def test_smaller_budget_lowers_peak(self, workload_graph):
        big = run_query(
            workload_graph, HEAVY_QUERY,
            ClusterConfig(num_machines=4, flow_control_window=16,
                          bulk_message_size=64),
        )
        small = run_query(
            workload_graph, HEAVY_QUERY,
            ClusterConfig(num_machines=4, flow_control_window=1,
                          bulk_message_size=2),
        )
        assert small.metrics.peak_buffered_contexts < \
            big.metrics.peak_buffered_contexts

    def test_flow_control_blocks_recorded(self, workload_graph):
        result = run_query(
            workload_graph, HEAVY_QUERY,
            ClusterConfig(num_machines=4, flow_control_window=1,
                          bulk_message_size=1),
        )
        assert result.metrics.flow_control_blocks > 0


class TestDynamicFlowControl:
    def test_dynamic_and_static_agree_on_results(self, workload_graph):
        base = dict(num_machines=4, flow_control_window=2,
                    bulk_message_size=4)
        dynamic = run_query(
            workload_graph, HEAVY_QUERY,
            ClusterConfig(dynamic_flow_control=True, **base),
        )
        static = run_query(
            workload_graph, HEAVY_QUERY,
            ClusterConfig(dynamic_flow_control=False, **base),
        )
        assert sorted(dynamic.rows) == sorted(static.rows)

    def test_borrowing_happens_under_pressure(self, workload_graph):
        result = run_query(
            workload_graph, HEAVY_QUERY,
            ClusterConfig(num_machines=4, flow_control_window=1,
                          bulk_message_size=1, dynamic_flow_control=True),
        )
        assert result.metrics.quota_requests > 0

    def test_static_mode_never_borrows(self, workload_graph):
        result = run_query(
            workload_graph, HEAVY_QUERY,
            ClusterConfig(num_machines=4, flow_control_window=1,
                          bulk_message_size=1, dynamic_flow_control=False),
        )
        assert result.metrics.quota_requests == 0


class TestBlockingMode:
    def test_blocking_agrees_on_results(self, workload_graph):
        config = ClusterConfig(num_machines=3, blocking_remote=True)
        result = run_query(workload_graph, HEAVY_QUERY, config)
        reference = run_query(
            workload_graph, HEAVY_QUERY, ClusterConfig(num_machines=3)
        )
        assert sorted(result.rows) == sorted(reference.rows)

    def test_async_is_faster_under_latency(self, workload_graph):
        base = dict(num_machines=3, network_latency=16)
        async_run = run_query(
            workload_graph, HEAVY_QUERY,
            ClusterConfig(blocking_remote=False, **base),
        )
        blocking_run = run_query(
            workload_graph, HEAVY_QUERY,
            ClusterConfig(blocking_remote=True, **base),
        )
        assert async_run.metrics.ticks < blocking_run.metrics.ticks

    @pytest.mark.parametrize("latency,ticks", [
        (2, 1_922), (8, 6_166), (32, 22_737),
    ])
    def test_exact_counts(self, latency, ticks):
        """Blocking runs have no second executor to be compared with,
        so their numbers are pinned; only the tick count depends on the
        latency."""
        graph = uniform_random_graph(400, 2_400, seed=17, num_types=4)
        result = run_query(graph, HEAVY_QUERY, ClusterConfig(
            num_machines=3, workers_per_machine=4, ops_per_tick=4,
            network_latency=latency, blocking_remote=True,
        ))
        metrics = result.metrics
        assert metrics.ticks == ticks
        assert (metrics.total_ops, len(result.rows), metrics.work_messages,
                metrics.control_messages, metrics.flow_control_blocks) \
            == (21_258, 3_766, 3_006, 3_024, 0)
