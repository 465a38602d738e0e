"""White-box tests of runtime internals: machine, messages, hops, worker."""

import pytest

from repro import ClusterConfig, PlannerOptions, run_query
from repro.cluster.metrics import MachineMetrics
from repro.cluster.simulator import Simulator
from repro.errors import RuntimeFault
from repro.graph import DistributedGraph, GraphBuilder, uniform_random_graph
from repro.graph.types import Direction
from repro.plan import CompiledHop, HopKind, plan_query
from repro.runtime.hops import (
    RESULT,
    Advance,
    AllScanItem,
    CNItem,
    HopCursor,
    hop_steps,
)
from repro.runtime.machine import QueryMachine, _item_weight
from repro.runtime.messages import Ack, Completed, WorkMessage
from repro.runtime.worker import Computation, ScanFrame, StageFrame


def make_machine(graph=None, machines=2, **config_kwargs):
    graph = graph or uniform_random_graph(20, 60, seed=0)
    config = ClusterConfig(num_machines=machines, **config_kwargs)
    plan = plan_query("SELECT a, b WHERE (a)-[]->(b)", graph)
    dist = DistributedGraph.create(graph, machines)
    simulator = Simulator(config)
    built = [
        QueryMachine(plan, dist, m, simulator.api_for(m), config)
        for m in range(machines)
    ]
    simulator.attach(built)
    return simulator, built


class TestItemWeight:
    def test_plain_context(self):
        assert _item_weight((1, 2, 3)) == 1

    def test_cn_item(self):
        item = CNItem((1,), ((5, ()), (6, ())))
        assert _item_weight(item) == 3


class TestMessageHandling:
    def test_work_message_enters_inbox_and_load(self):
        _, (m0, m1) = make_machine()
        message = WorkMessage(1, ((0, 1), (0, 2)))
        m0.on_message(1, message)
        assert m0.stage_load[1] == 2
        assert m0.pop_message(1) is message
        assert message.src == 1

    def test_ack_frees_flow_window(self):
        _, (m0, _m1) = make_machine()
        m0.flow.on_send(1, 1)
        m0.on_message(1, Ack(1, 1, seqs=(42,)))
        assert m0.flow.inflight(1, 1) == 0
        # Seqs matter to a synchronous wait only (ABL4).
        assert not m0._acked_seqs

    def test_ack_seq_recorded_for_a_synchronous_wait_then_consumed(self):
        _, (m0, _m1) = make_machine(blocking_remote=True)
        m0.flow.on_send(1, 1)
        worker = m0._workers[0]
        worker.waiting_for_seq = 42
        assert not m0._ack_seen(worker)
        m0.on_message(1, Ack(1, 1, seqs=(42,)))
        assert m0._ack_seen(worker)
        assert worker.waiting_for_seq is None
        assert not m0._acked_seqs

    def test_completed_recorded(self):
        _, (m0, _m1) = make_machine()
        m0.on_message(1, Completed(0))
        assert m0.termination.stage_globally_complete(0) is False
        m0.termination.mark_sent(0)
        assert m0.termination.stage_globally_complete(0) is True

    def test_unknown_payload_rejected(self):
        _, (m0, _m1) = make_machine()
        with pytest.raises(RuntimeFault):
            m0.on_message(1, object())


class TestBulkBuffering:
    def test_flush_on_full_buffer(self):
        simulator, (m0, _m1) = make_machine(bulk_message_size=2)
        comp = Computation(0)
        assert m0.route(comp, 1, 1, (0, 5)) is True
        assert len(simulator.network) == 0  # buffered, not yet sent
        assert m0.route(comp, 1, 1, (0, 6)) is True
        assert len(simulator.network) == 1  # bulk flushed at 2

    def test_flow_control_blocks_route(self):
        simulator, (m0, _m1) = make_machine(
            bulk_message_size=1, flow_control_window=1
        )
        comp = Computation(0)
        assert m0.route(comp, 1, 1, (0, 5)) is True   # sent (window used)
        assert m0.route(comp, 1, 1, (0, 6)) is True   # buffered
        assert m0.route(comp, 1, 1, (0, 7)) is False  # buffer full + no window
        assert m0.last_refused == (1, 1)
        assert m0.metrics.flow_control_blocks == 1

    def test_local_route_never_blocks(self):
        _, (m0, _m1) = make_machine(
            bulk_message_size=1, flow_control_window=1
        )
        comp = Computation(0)
        for value in range(50):
            assert m0.route(comp, 1, 0, (0, value)) is True
        # Work-shared up to the cap, the rest pushed depth-first.
        assert len(comp.stack) > 0
        assert m0.pop_local_item(1) is not None

    def test_idle_progress_flushes_partials(self):
        simulator, (m0, _m1) = make_machine(bulk_message_size=8)
        comp = Computation(0)
        m0.route(comp, 1, 1, (0, 5))
        assert len(simulator.network) == 0
        ops = m0.idle_progress()
        assert ops > 0
        assert len(simulator.network) == 1


class TestFrames:
    def test_scan_frame_fields(self):
        frame = ScanFrame(0, (), [1, 2, 3])
        assert frame.pos == 0
        assert frame.stage_index == 0

    def test_stage_frame_defaults(self):
        frame = StageFrame(1, (4,), 4)
        assert frame.phase == 0
        assert frame.cursor is None
        assert frame.cn_payload is None

    def test_all_scan_item_wraps_context(self):
        item = AllScanItem((1, 2))
        assert item.ctx == (1, 2)


def parallel_edge_graph():
    """0 =x,y,x=> 1, 0 -x-> 2, 1 -x-> 2, 3 -x-> 1 (edge ids 0..5 in
    that order: three parallel 0->1 edges, the middle one labeled y)."""
    builder = GraphBuilder()
    for _ in range(4):
        builder.add_vertex()
    for src, dst, label in ((0, 1, "x"), (0, 1, "y"), (0, 1, "x"),
                            (0, 2, "x"), (1, 2, "x"), (3, 1, "x")):
        builder.add_edge(src, dst, label=label)
    return builder.build()


def make_hop(kind, graph=None, **fields):
    hop = CompiledHop(kind)
    if graph is not None:
        hop.edge_label_id = graph.labels.lookup("x")
    for name, value in fields.items():
        setattr(hop, name, value)
    return hop


class TestHopSteps:
    """The micro-op sequence of every hop kind, no executor in the loop:
    one ``(scanned, target, type(item))`` per step."""

    @staticmethod
    def table(graph, hop, ctx, vertex, **kwargs):
        steps = list(hop_steps(graph, graph, hop, ctx, vertex, **kwargs))
        return steps, [
            (scanned, target, RESULT if item is RESULT else type(item))
            for scanned, target, item in steps
        ]

    def test_output(self):
        graph = parallel_edge_graph()
        _, table = self.table(graph, make_hop(HopKind.OUTPUT), (0, 1), 1)
        assert table == [(0, 1, RESULT)]

    def test_neighbor_out_inspects_every_parallel_edge(self):
        graph = parallel_edge_graph()
        hop = make_hop(HopKind.NEIGHBOR, graph, direction=Direction.OUT,
                       appends_target_id=True,
                       edge_captures=[lambda eid: eid])
        steps, table = self.table(graph, hop, (0,), 0)
        none = type(None)
        assert table == [(1, 1, tuple), (1, 1, none), (1, 1, tuple),
                         (1, 2, tuple)]
        # Captures first, then the target id.
        assert [item for _, _, item in steps] == [
            (0, 0, 1), None, (0, 2, 1), (0, 3, 2)
        ]

    def test_neighbor_in(self):
        graph = parallel_edge_graph()
        hop = make_hop(HopKind.NEIGHBOR, graph, direction=Direction.IN,
                       appends_target_id=True)
        steps, table = self.table(graph, hop, (1,), 1)
        assert table == [(1, 0, tuple), (1, 0, type(None)), (1, 0, tuple),
                         (1, 3, tuple)]
        assert steps[-1][2] == (1, 3)

    def test_vertex_inspection_is_one_unscanned_step(self):
        graph = parallel_edge_graph()
        hop = make_hop(HopKind.VERTEX, target_slot=1)
        steps, table = self.table(graph, hop, (0, 2), 0)
        assert table == [(0, 2, tuple)]
        assert steps[0][2] == (0, 2)

    @pytest.mark.parametrize("orientation,ctx,vertex,target", [
        ("current_to_target", (0, 1), 0, 1),
        ("target_to_current", (1, 0), 1, 0),
    ])
    def test_vertex_edge_check_enumerates_parallel_edges(
            self, orientation, ctx, vertex, target):
        graph = parallel_edge_graph()
        hop = make_hop(HopKind.VERTEX, graph, target_slot=1,
                       edge_req_orientation=orientation,
                       edge_captures=[lambda eid: eid])
        steps, table = self.table(graph, hop, ctx, vertex)
        assert table == [(1, target, tuple), (1, target, type(None)),
                         (1, target, tuple)]
        # No target id appended: the vertex is already bound.
        assert [item for _, _, item in steps] == [
            ctx + (0,), None, ctx + (2,)
        ]

    def test_distinct_edges_and_filter_reject_without_skipping_the_step(self):
        graph = parallel_edge_graph()
        hop = make_hop(HopKind.NEIGHBOR, direction=Direction.OUT,
                       appends_target_id=True, iso_edge_slots=[1],
                       edge_filter=lambda ctx, vertex, eid: eid != 3)
        steps, _ = self.table(graph, hop, (0, 1), 0)
        assert [item for _, _, item in steps] == [
            (0, 1, 1), None, (0, 1, 1), None
        ]

    def test_all_vertices_names_each_machine(self):
        graph = parallel_edge_graph()
        steps, table = self.table(graph, make_hop(HopKind.ALL_VERTICES),
                                  (7,), 0, num_machines=3)
        assert table == [(0, None, AllScanItem)] * 3
        assert [(item.ctx, item.dest) for _, _, item in steps] == [
            ((7,), 0), ((7,), 1), ((7,), 2)
        ]

    def test_cn_collect_scans_then_ships_once(self):
        graph = parallel_edge_graph()
        hop = make_hop(HopKind.CN_COLLECT, graph, target_slot=1,
                       edge_captures=[lambda eid: eid])
        steps, table = self.table(graph, hop, (0, 3), 0)
        none = type(None)
        assert table == [(1, 1, none), (1, 1, none), (1, 1, none),
                         (1, 2, none), (0, 3, CNItem)]
        item = steps[-1][2]
        assert item.ctx == (0, 3)
        assert item.candidates == ((1, (0,)), (1, (2,)), (2, (3,)))

    def test_cn_collect_without_candidates_ships_nothing(self):
        graph = parallel_edge_graph()
        hop = make_hop(HopKind.CN_COLLECT, target_slot=1, edge_label_id=99)
        _, table = self.table(graph, hop, (1, 3), 1)
        assert table == [(1, 2, type(None))]

    def test_cn_probe_fetches_then_scans_each_candidate(self):
        graph = parallel_edge_graph()
        hop = make_hop(HopKind.CN_PROBE, graph, appends_target_id=True)
        steps, table = self.table(
            graph, hop, (0, 3), 3,
            candidates=((1, (0,)), (1, (2,)), (2, (3,))),
        )
        none = type(None)
        assert table == [(0, 1, none), (1, 1, tuple),
                         (0, 1, none), (1, 1, tuple),
                         (0, 2, none)]
        assert [item for _, _, item in steps if item is not None] == [
            (0, 3, 0, 1), (0, 3, 2, 1)
        ]


class _RefusingRuntime:
    """The slice of the ``rt`` facade a cursor touches; ``route``
    refuses its *refuse_at*-th call once."""

    machine_id = 0
    num_machines = 2

    def __init__(self, graph, refuse_at):
        self.graph = self.local = graph
        self.metrics = MachineMetrics(num_stages=2)
        self.refuse_at = refuse_at
        self.calls = 0
        self.sent = []
        self.results = []

    def owner(self, vertex):
        return vertex % 2

    def ghost_admits(self, stage_index, ctx, target):
        return True

    def emit_result(self, ctx):
        self.results.append(ctx)

    def route(self, comp, stage_index, dest, item):
        self.calls += 1
        if self.calls == self.refuse_at:
            return False
        self.sent.append((stage_index, dest, item))
        return True


class TestHopCursorReplay:
    @staticmethod
    def drain(refuse_at):
        graph = parallel_edge_graph()
        rt = _RefusingRuntime(graph, refuse_at)
        stage = type("Stage", (), {})()
        stage.hop = make_hop(HopKind.NEIGHBOR, graph,
                             direction=Direction.OUT,
                             appends_target_id=True)
        frame = StageFrame(0, (0,), 0)
        cursor = HopCursor(stage, frame, rt)
        outcomes = []
        while not outcomes or outcomes[-1] is not Advance.EXHAUSTED:
            outcomes.append(cursor.advance(rt, None, frame))
        return rt, outcomes

    def test_unrefused_run(self):
        rt, outcomes = self.drain(refuse_at=None)
        assert outcomes == [Advance.PROGRESS] * 4 + [Advance.EXHAUSTED]
        assert rt.metrics.stage_scanned == [4, 0]
        assert rt.sent == [(1, 1, (0, 1)), (1, 1, (0, 1)), (1, 0, (0, 2))]

    @pytest.mark.parametrize("refuse_at", [1, 2, 3])
    def test_refused_step_is_replayed_exactly_once(self, refuse_at):
        reference, _ = self.drain(refuse_at=None)
        rt, outcomes = self.drain(refuse_at)
        # One extra advance (the BLOCKED attempt, charged like any
        # other) whose inspected edge is counted again on the replay.
        assert outcomes.count(Advance.BLOCKED) == 1
        assert len(outcomes) == 6
        assert rt.metrics.stage_scanned == [5, 0]
        # Nothing lost, nothing duplicated, order kept.
        assert rt.sent == reference.sent
        assert rt.calls == 4

    def test_output_emits_the_frame_context(self):
        graph = parallel_edge_graph()
        rt = _RefusingRuntime(graph, None)
        stage = type("Stage", (), {})()
        stage.hop = make_hop(HopKind.OUTPUT)
        frame = StageFrame(1, (0, 1), 1)
        cursor = HopCursor(stage, frame, rt)
        assert cursor.advance(rt, None, frame) is Advance.PROGRESS
        assert cursor.advance(rt, None, frame) is Advance.EXHAUSTED
        assert rt.results == [(0, 1)]
        assert rt.metrics.stage_scanned == [0, 0]


class TestComputation:
    def test_from_message(self):
        message = WorkMessage(2, ((0, 1),))
        comp = Computation.from_message(message)
        assert comp.root_stage == 2
        assert comp.message is message and comp.item_pos == 0
        assert comp.stack == []

    def test_bootstrap(self):
        frame = ScanFrame(0, (), [0])
        comp = Computation.bootstrap(frame)
        assert comp.root_stage == 0
        assert comp.stack == [frame] and comp.message is None


class TestBootstrapChunks:
    def test_single_vertex_only_on_owner(self):
        _, machines = make_machine()
        graph = uniform_random_graph(20, 60, seed=0)
        plan = plan_query("SELECT v WHERE (v WITH id() = 3)-[]->(b)", graph)
        config = ClusterConfig(num_machines=2)
        dist = DistributedGraph.create(graph, 2)
        simulator = Simulator(config)
        owners = [
            QueryMachine(plan, dist, m, simulator.api_for(m), config)
            for m in range(2)
        ]
        owner_id = dist.owner(3)
        assert not owners[owner_id].bootstrap_done
        assert owners[1 - owner_id].bootstrap_done

    def test_out_of_range_origin_everywhere_done(self):
        graph = uniform_random_graph(20, 60, seed=0)
        plan = plan_query(
            "SELECT v WHERE (v WITH id() = 999)-[]->(b)", graph
        )
        config = ClusterConfig(num_machines=2)
        dist = DistributedGraph.create(graph, 2)
        simulator = Simulator(config)
        machines = [
            QueryMachine(plan, dist, m, simulator.api_for(m), config)
            for m in range(2)
        ]
        assert all(machine.bootstrap_done for machine in machines)


class TestRemoteDisciplineEndToEnd:
    def test_debug_checks_catch_misrouted_frames(self):
        """A frame forced onto the wrong machine must be detected."""
        graph = uniform_random_graph(20, 60, seed=0)
        config = ClusterConfig(num_machines=2)
        plan = plan_query("SELECT a, b WHERE (a)-[]->(b)", graph)
        dist = DistributedGraph.create(graph, 2)
        simulator = Simulator(config)
        machines = [
            QueryMachine(plan, dist, m, simulator.api_for(m), config,
                         debug_checks=True)
            for m in range(2)
        ]
        simulator.attach(machines)
        remote_vertex = int(dist.local(1).local_vertices()[0])
        # Hand machine 0 a context whose stage-1 vertex it does not own.
        bogus = WorkMessage(1, ((0, remote_vertex),))
        machines[0].on_message(1, bogus)
        with pytest.raises(RuntimeFault):
            simulator.run()


class TestStrictSemanticsEndToEnd:
    def test_isomorphism_excludes_repeated_vertices(self):
        builder = GraphBuilder()
        a = builder.add_vertex()
        b = builder.add_vertex()
        builder.add_edge(a, b)
        builder.add_edge(b, a)
        graph = builder.build()
        from repro.plan import MatchSemantics

        homo = run_query(
            graph, "SELECT x, y, z WHERE (x)-[]->(y)-[]->(z)",
            ClusterConfig(num_machines=2),
        )
        iso = run_query(
            graph, "SELECT x, y, z WHERE (x)-[]->(y)-[]->(z)",
            ClusterConfig(num_machines=2),
            options=PlannerOptions(semantics=MatchSemantics.ISOMORPHISM),
        )
        # Homomorphism allows x = z (a->b->a); isomorphism forbids it.
        assert len(homo.rows) == 2
        assert len(iso.rows) == 0
