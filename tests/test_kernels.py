"""Bulk-kernel fast path: cost parity and batch reservations.

The compiled kernels (:mod:`repro.runtime.kernels`) are a pure
performance layer: every deterministic quantity — result rows, ticks,
total micro-ops, visits/passes, the stage profile — must be bit-identical
to the reference cursor kernels.  These tests run the full benchmark
matrix (and chaos-injected and window-starved runs) both ways and diff
everything, per-machine ``scanned``/``emitted`` profile views included,
then property-test the batch reservation API that lets kernels pre-admit
whole remote batches without breaking the flow-control memory bound.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ClusterConfig,
    PlannerOptions,
    run_query,
    uniform_random_graph,
)
from repro.bench import WORKLOADS, run_workload, workload_setup
from repro.chaos import profile
from repro.errors import RuntimeFault
from repro.graph.builder import GraphBuilder
from repro.plan.options import MatchSemantics
from repro.runtime.flow_control import FlowControl
from repro.runtime.machine import QueryMachine

def _views(result):
    return result.execution_profile().to_dict()["per_machine"]


def _both_ways(graph, query, options=None, **config):
    """*query* with kernels on and off."""
    return [
        run_query(
            graph, query,
            ClusterConfig(num_machines=4, bulk_kernels=bulk_kernels,
                          **config),
            options,
        )
        for bulk_kernels in (True, False)
    ]


def _peaks(result):
    """The gauges' high-water marks, whole run and per machine."""
    metrics = result.metrics
    return (
        metrics.peak_live_frames,
        metrics.peak_buffered_contexts,
        [(machine.peak_live_frames, machine.peak_buffered_contexts)
         for machine in metrics.per_machine],
    )


def _assert_identical(on, off):
    assert on.rows == off.rows
    assert on.metrics.ticks == off.metrics.ticks
    assert on.metrics.total_ops == off.metrics.total_ops
    assert on.metrics.flow_control_blocks == off.metrics.flow_control_blocks
    assert _peaks(on) == _peaks(off)
    assert on.stage_profile == off.stage_profile
    assert _views(on) == _views(off)


class TestDifferentialParity:
    """Kernels on vs. off over every benchmark workload."""

    @pytest.mark.parametrize(
        "key,spec", WORKLOADS, ids=[key for key, _ in WORKLOADS]
    )
    def test_workload_metrics_identical(self, key, spec):
        bulk = run_workload(key, spec, bulk_kernels=True)
        micro = run_workload(key, spec, bulk_kernels=False)
        assert bulk == micro

    @pytest.mark.parametrize(
        "key,spec", WORKLOADS, ids=[key for key, _ in WORKLOADS]
    )
    def test_workload_profiles_identical(self, key, spec):
        """Every stage counter, per machine, on every matrix plan."""
        views = []
        for bulk_kernels in (True, False):
            engine, queries, options = workload_setup(
                spec, bulk_kernels=bulk_kernels
            )
            views.append([
                _views(engine.query(query, options)) for query in queries
            ])
        assert views[0] == views[1]

    def test_result_rows_identical(self):
        graph = uniform_random_graph(200, 1_000, seed=13, num_types=4)
        query = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.type = 1"
        _assert_identical(*_both_ways(graph, query))

    def test_fast_path_actually_engaged(self):
        graph = uniform_random_graph(100, 500, seed=5, num_types=3)
        query = "SELECT a, b WHERE (a)-[]->(b)"
        on = run_query(graph, query, ClusterConfig(num_machines=2))
        off = run_query(
            graph, query, ClusterConfig(num_machines=2, bulk_kernels=False)
        )
        assert on.metrics.kernel_ops > 0
        # Both sets run under run_bulk; the generated one's frame-free
        # entries take a whole message or scan per dispatch.
        assert 0 < on.metrics.kernel_batches < off.metrics.kernel_batches

    def test_chaos_run_identical(self):
        """Fault injection + reliability, kernels on vs. off."""
        graph = uniform_random_graph(200, 1_200, seed=21, num_types=4)
        query = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.type = 1"
        _assert_identical(*_both_ways(
            graph, query, chaos=profile("soak", seed=7), reliability=True,
        ))

    def test_window_starved_run_identical(self):
        """Refused reservations: the kernels' route fallback parks at
        the same item the cursor path does."""
        graph = uniform_random_graph(200, 1_200, seed=21, num_types=4)
        query = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c)"
        on, off = _both_ways(
            graph, query, flow_control_window=1, bulk_message_size=4,
        )
        assert on.metrics.flow_control_blocks > 0
        assert (
            on.metrics.flow_control_blocks == off.metrics.flow_control_blocks
        )
        _assert_identical(on, off)

    def test_route_fallback_never_admits(self, monkeypatch):
        """After a zero grant the NEIGHBOR kernel calls ``route`` only
        for the refusal's side effects and then replays the item; an
        admission there would ship it twice.  Zero grants forced while
        the window is open must fault instead."""
        monkeypatch.setattr(
            QueryMachine, "reserve_items",
            lambda self, stage, dest, want: 0,
        )
        graph = uniform_random_graph(100, 500, seed=5, num_types=3)
        with pytest.raises(RuntimeFault, match="route admitted"):
            run_query(graph, "SELECT a, b WHERE (a)-[]->(b)",
                      ClusterConfig(num_machines=2))


def _labelled_graph():
    rng = random.Random(3)
    builder = GraphBuilder()
    for _ in range(120):
        builder.add_vertex(label=rng.choice(("p", "q")),
                           value=rng.randrange(100))
    for _ in range(600):
        builder.add_edge(rng.randrange(120), rng.randrange(120), label="e")
    return builder.build()


#: A labelled stage-0 scan, a filtered message-rooted NEIGHBOR stage, a
#: VERTEX inspection (edge-checked closing the cycle; pure under induced
#: semantics) and an OUTPUT stage.
_SHAPES = [
    ("SELECT a, b, c WHERE (a:p)-[]->(b)-[]->(c), (c)-[]->(a), "
     "b.value > 30", PlannerOptions()),
    ("SELECT a, b, c WHERE (a:p)-[]->(b)-[]->(c), b.value > 30",
     PlannerOptions(semantics=MatchSemantics.INDUCED)),
]


class TestMaterialisationParity:
    """Kernels on vs. off wherever a frame-free context must get its
    frame: a budget of 1-8 ops per tick ends runs after the take, after
    the vertex function and mid-hop; work sharing off forces every local
    continuation to descend; a window of 1 refuses sends."""

    @pytest.mark.parametrize("window", [1, None], ids=["window1", "default"])
    @pytest.mark.parametrize("work_sharing", [True, False],
                             ids=["shared", "unshared"])
    @pytest.mark.parametrize("ops_per_tick", [1, 2, 3, 5, 8])
    def test_identical(self, ops_per_tick, work_sharing, window):
        graph = _labelled_graph()
        config = {"ops_per_tick": ops_per_tick, "work_sharing": work_sharing}
        if window is not None:
            config["flow_control_window"] = window
        for query, options in _SHAPES:
            on, off = _both_ways(graph, query, options, **config)
            assert on.metrics.kernel_batches > 0
            _assert_identical(on, off)


# ----------------------------------------------------------------------
# Batch reservation property test
# ----------------------------------------------------------------------
_STAGES = 3
_MACHINES = 3
_WINDOW = 2

_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["reserve", "release", "send", "ack", "grant", "donate",
             "redistribute"]
        ),
        st.integers(min_value=0, max_value=_STAGES - 1),
        st.integers(min_value=1, max_value=_MACHINES - 1),
        st.integers(min_value=1, max_value=8),
    ),
    max_size=60,
)


class TestReservationInvariant:
    @settings(max_examples=200, deadline=None)
    @given(_ops)
    def test_reserve_never_exceeds_window(self, ops):
        """inflight + reserved <= limit after every operation, even while
        quota borrowing (grants/donations) and stage redistribution are
        resizing the per-(stage, dest) limits underneath the kernel."""
        flow = FlowControl(_STAGES, _MACHINES, 0, _WINDOW, dynamic=True)
        for name, stage, dest, amount in ops:
            if name == "reserve":
                granted = flow.reserve(stage, dest, amount)
                assert 0 <= granted <= amount
            elif name == "release":
                flow.release(stage, dest)
            elif name == "send":
                if flow.can_flush(stage, dest):
                    flow.on_send(stage, dest)
            elif name == "ack":
                count = min(amount, flow.inflight(stage, dest))
                if count:
                    flow.on_ack_from(stage, dest, count)
            elif name == "grant":
                flow.on_quota_grant(stage, dest, amount)
            elif name == "donate":
                flow.donate_quota(stage, dest)
            elif name == "redistribute":
                # The termination protocol only redistributes a stage
                # once it is globally complete — nothing in flight.
                if all(
                    flow.inflight(stage, m) == 0
                    and flow.reserved(stage, m) == 0
                    for m in range(_MACHINES)
                ):
                    flow.redistribute_completed_stage(stage)
            for n in range(_STAGES):
                for m in range(_MACHINES):
                    assert (
                        flow.inflight(n, m) + flow.reserved(n, m)
                        <= flow.limit(n, m)
                    ), (name, stage, dest, amount, n, m)

    def test_reserve_caps_at_spare_capacity(self):
        flow = FlowControl(2, 2, 0, 3, dynamic=True)
        flow.on_send(0, 1)
        assert flow.reserve(0, 1, 10) == 2  # limit 3, inflight 1
        assert flow.reserve(0, 1, 10) == 0  # window fully spoken for
        assert not flow.can_send(0, 1)
        flow.release(0, 1)
        assert flow.reserve(0, 1, 1) == 1

    def test_send_consumes_reservation(self):
        flow = FlowControl(2, 2, 0, 2, dynamic=True)
        assert flow.reserve(0, 1, 2) == 2
        flow.on_send(0, 1)
        assert flow.inflight(0, 1) == 1
        assert flow.reserved(0, 1) == 1
        flow.on_send(0, 1)
        assert flow.inflight(0, 1) == 2
        assert flow.reserved(0, 1) == 0
