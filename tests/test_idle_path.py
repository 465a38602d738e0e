"""The event-driven idle path: exactness and mechanism.

A ``QueryMachine`` whose workers have all proved they have nothing to do
stops re-deriving that verdict: ``worker_step`` answers ``idle_ticks +=
1; return 0`` until ``on_message`` wakes it (docs/performance.md, "The
idle path").  That is only legitimate if it is *exact*, so the first
half of this file runs every drawn configuration twice — as shipped, and
against a test-side **never-quiet reference** that re-arms the latch
before every slice, i.e. the engine as it was before the latch existed —
and demands equality of everything a run can report.  The second half
pins the mechanism on real machines: what wakes a latched machine, and
that the latch actually engages.
"""

import contextlib
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, PgxdAsyncEngine, run_query, \
    uniform_random_graph
from repro.chaos import ChaosConfig
from repro.context import ExecutionContext
from repro.obs import Tracer
from repro.runtime.machine import QueryMachine
from repro.runtime.messages import Ack, Completed
from repro.runtime.termination import TerminationTracker
from repro.runtime.worker import Worker
from repro.service import QueryService, ServiceConfig


@contextlib.contextmanager
def never_quiet_reference():
    """Run with the quiescence latch held open: every slice takes the
    full ``worker_step`` path, as at the commit before the latch."""
    latched_step = QueryMachine.worker_step

    def worker_step(self, worker_index, budget):
        self._awake = self._all_workers
        return latched_step(self, worker_index, budget)

    QueryMachine.worker_step = worker_step
    try:
        yield
    finally:
        QueryMachine.worker_step = latched_step


QUERIES = [
    "SELECT a, b WHERE (a)-[]->(b)",
    "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.type = 1",
    "SELECT a, b, c WHERE (a)-[]->(b), (a)-[]->(c), b != c",
    "SELECT a, b WHERE (a)-[]->(b), (b)-[]->(a)",
    "SELECT a, c WHERE (a)-[]->(b)<-[]-(c), a.value < c.value",
    "SELECT a, b, c, d WHERE (a)-[]->(b)-[]->(c)-[]->(d), a.type = 0",
]


def _observation(result):
    """Everything one run reports."""
    return {
        "rows": result.rows,
        # per-machine MachineMetrics included
        "metrics": asdict(result.metrics),
        "views": [view.to_dict() for view in result.profiler.views()],
        "events": [event.to_dict() for event in result.trace],
    }


@st.composite
def _cluster_configs(draw):
    reliability = draw(st.booleans())
    chaos = None
    if draw(st.booleans()):
        faults = {}
        if reliability:
            faults = dict(drop_rate=0.05, duplicate_rate=0.02,
                          reorder_rate=0.10)
        chaos = ChaosConfig(
            seed=draw(st.integers(min_value=0, max_value=50)),
            stalls=((0, draw(st.integers(0, 30)), draw(st.integers(1, 40))),),
            **faults
        )
    return ClusterConfig(
        num_machines=draw(st.sampled_from([1, 2, 4, 7])),
        workers_per_machine=draw(st.sampled_from([1, 4])),
        flow_control_window=draw(st.integers(min_value=1, max_value=3)),
        bulk_message_size=draw(st.sampled_from([1, 2, 4, 32])),
        dynamic_flow_control=draw(st.booleans()),
        reliability=reliability,
        chaos=chaos,
        blocking_remote=draw(st.booleans()),
        message_send_cost=draw(st.sampled_from([0, 4])),
        bulk_kernels=draw(st.booleans()),
        work_sharing=draw(st.booleans()),
    )


class TestExactness:
    """Latched engine == never-quiet reference, on everything."""

    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        vertices=st.integers(min_value=2, max_value=60),
        density=st.integers(min_value=1, max_value=5),
        query=st.sampled_from(QUERIES),
        config=_cluster_configs(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_never_quiet_reference(self, graph_seed, vertices,
                                           density, query, config):
        graph = uniform_random_graph(
            vertices, vertices * density, seed=graph_seed, num_types=3
        )
        def traced():
            return _observation(run_query(
                graph, query, config,
                context=ExecutionContext(tracer=Tracer()),
            ))

        latched = traced()
        with never_quiet_reference():
            reference = traced()
        assert latched == reference

    @staticmethod
    def _service_run():
        graph = uniform_random_graph(80, 320, seed=1234, num_types=4)
        engine = PgxdAsyncEngine(graph, ClusterConfig(
            num_machines=3, flow_control_window=4, bulk_message_size=4,
        ))
        service = QueryService(engine, ServiceConfig(max_concurrent=4))
        handles = [service.submit(query) for query in QUERIES[:4]]
        service.drain()
        tenants = []
        for handle in handles:
            tenants.append((handle.result().rows, asdict(handle.metrics)))
        return service.peak_active, service.now, service.stats(), tenants

    def test_service_tenants_match_reference(self):
        latched = self._service_run()
        with never_quiet_reference():
            reference = self._service_run()
        assert latched[0] >= 3  # concurrent tenants interleaved
        assert latched == reference


# ----------------------------------------------------------------------
# Mechanism, on real machines
# ----------------------------------------------------------------------
PRESSURE = dict(flow_control_window=1, bulk_message_size=4)
PATH_QUERY = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c)"


def _prepared(num_machines=4, **config):
    graph = uniform_random_graph(200, 1_200, seed=21, num_types=4)
    engine = PgxdAsyncEngine(
        graph, ClusterConfig(num_machines=num_machines, **config)
    )
    simulator, machines = engine.prepare_execution(
        engine.plan(PATH_QUERY), ExecutionContext()
    )
    simulator.start()
    return simulator, machines


def _step_until(simulator, machines, wanted):
    """Step tick by tick until ``wanted(machine)`` returns something
    truthy for a *latched* machine; returns ``(machine, that value)``."""
    while not simulator.step():
        for machine in machines:
            if machine._awake == 0:
                found = wanted(machine)
                if found:
                    return machine, found
    raise AssertionError("the run never reached the wanted state")


def _parked_worker(machine):
    for worker in machine._workers:
        for comp in worker.slots:
            if comp is not None and comp.blocked_on is not None:
                return worker, comp
    return None


def _one_completed_short(machine):
    """``(stage, peer)`` when only *peer*'s COMPLETED(stage - 1) stands
    between this machine and declaring *stage* complete."""
    stage = machine._completions_from
    if stage == 0 or stage >= machine.plan.num_stages:
        return None
    missing = [
        peer for peer in range(machine.num_machines)
        if peer not in machine.termination._completed[stage - 1]
    ]
    if (
        len(missing) == 1
        and machine.stage_load[stage] == 0
        and (stage + 1 >= machine.plan.num_stages
             or machine._outbuf_empty_for(stage + 1))
    ):
        return stage, missing[0]
    return None


class TestWakeUps:
    def test_ack_resumes_parked_computation_on_next_slice(self):
        simulator, machines = _prepared(**PRESSURE)
        machine, (worker, comp) = _step_until(
            simulator, machines, _parked_worker
        )
        budget = simulator.config.ops_per_tick
        idle_before = machine.metrics.idle_ticks
        assert machine.worker_step(worker.index, budget) == 0
        assert not worker.ran_computation  # latched: still parked
        assert machine.metrics.idle_ticks == idle_before + 1

        stage, dest = comp.blocked_on
        machine.on_message(dest, Ack(stage, 1))
        assert machine.worker_step(worker.index, budget) > 0
        assert worker.ran_computation
        assert comp.blocked_on != (stage, dest) or comp.stack

    def test_completed_wakes_and_broadcasts_on_that_slice(self):
        simulator, machines = _prepared(**PRESSURE)
        machine, (stage, peer) = _step_until(
            simulator, machines, _one_completed_short
        )
        budget = simulator.config.ops_per_tick
        sent_before = machine.metrics.control_messages_sent
        machine.worker_step(0, budget)
        assert machine._completions_from == stage  # latched: no progress
        assert machine.metrics.control_messages_sent == sent_before

        machine.on_message(peer, Completed(stage - 1))
        assert machine.worker_step(0, budget) == 0
        # A zero-op slice that moved the protocol proves nothing: every
        # worker has to find the new state idle again.
        assert machine._awake == machine._all_workers
        assert machine._completions_from > stage
        assert machine.termination.sent(stage)
        assert (
            machine.metrics.control_messages_sent - sent_before
            >= machine.num_machines - 1
        )

    def test_shared_local_item_taken_in_the_tick_it_was_produced(
            self, monkeypatch):
        """A delivery wakes a latched machine, one worker turns it into
        a work-shared local continuation, and a co-worker — latched a
        moment ago — takes that continuation within the same tick.
        (Cursor path: the kernels queue local items without ``route``.)"""
        simulator, machines = _prepared(num_machines=3, bulk_kernels=False)
        log = {"running": None, "woken": {}, "queued": {}, "handoffs": []}
        plain_step, plain_route = Worker.step, QueryMachine.route
        plain_pop = QueryMachine.pop_local_item
        plain_on_message = QueryMachine.on_message

        def step(self, budget):
            log["running"] = self.index
            return plain_step(self, budget)

        def on_message(self, src, payload):
            if self._awake == 0:
                log["woken"][self.machine_id] = simulator.now
            return plain_on_message(self, src, payload)

        def route(self, comp, stage_index, dest, item):
            depth = len(self._local_inbox[stage_index])
            admitted = plain_route(self, comp, stage_index, dest, item)
            if len(self._local_inbox[stage_index]) > depth:
                log["queued"][id(item)] = (simulator.now, log["running"])
            return admitted

        def pop_local_item(self, stage):
            item = plain_pop(self, stage)
            if item is not None:
                tick, producer = log["queued"].pop(id(item))
                if (
                    tick == simulator.now
                    and producer != log["running"]
                    and log["woken"].get(self.machine_id) == tick
                ):
                    log["handoffs"].append((tick, self.machine_id))
            return item

        monkeypatch.setattr(Worker, "step", step)
        monkeypatch.setattr(QueryMachine, "on_message", on_message)
        monkeypatch.setattr(QueryMachine, "route", route)
        monkeypatch.setattr(QueryMachine, "pop_local_item", pop_local_item)
        while not simulator.step():
            pass
        assert log["handoffs"]

    def test_latch_engages_under_window_pressure(self, monkeypatch):
        calls = {"worker_step": 0, "Worker.step": 0}
        plain_worker_step, plain_step = QueryMachine.worker_step, Worker.step

        def worker_step(self, worker_index, budget):
            calls["worker_step"] += 1
            return plain_worker_step(self, worker_index, budget)

        def step(self, budget):
            calls["Worker.step"] += 1
            return plain_step(self, budget)

        monkeypatch.setattr(QueryMachine, "worker_step", worker_step)
        monkeypatch.setattr(Worker, "step", step)
        simulator, _machines = _prepared(num_machines=8, **PRESSURE)
        while not simulator.step():
            pass
        assert calls["Worker.step"] < 0.70 * calls["worker_step"]


# ----------------------------------------------------------------------
# The counted termination predicate
# ----------------------------------------------------------------------
class TestCountedAllComplete:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_set_definition(self, data):
        num_stages = data.draw(st.integers(min_value=1, max_value=4))
        num_machines = data.draw(st.integers(min_value=1, max_value=4))
        me = data.draw(st.integers(min_value=0, max_value=num_machines - 1))
        tracker = TerminationTracker(num_stages, num_machines, me)
        events = data.draw(st.lists(
            st.tuples(
                st.booleans(),  # True = mark_sent, False = on_completed
                st.integers(min_value=0, max_value=num_stages - 1),
                st.integers(min_value=0, max_value=num_machines - 1),
            ),
            max_size=60,
        ))
        model = [set() for _ in range(num_stages)]
        for own, stage, machine in events:  # duplicates included
            if own:
                tracker.mark_sent(stage)
                model[stage].add(me)
            else:
                tracker.on_completed(stage, machine)
                model[stage].add(machine)
            assert tracker.all_complete() == all(
                len(done) == num_machines for done in model
            )
            for index, done in enumerate(model):
                assert tracker.stage_globally_complete(index) == (
                    len(done) == num_machines
                )
        assert tracker.progress_summary() == "stages complete: " + ", ".join(
            "%d/%d" % (len(done), num_machines) for done in model
        )
