"""The event-driven idle path: exactness and mechanism.

A slice of worker *w* is its own DOWORK scan D(w) plus the machine
housekeeping H every slice performs; ``QueryMachine`` keeps one bit per
worker ("D(w) may act") and one flag ("H may act"), skips whichever is
provably a no-op, and sets them again only from the event that can
change the verdict (docs/performance.md, "The idle path").  That is only
legitimate if it is *exact*, so the first half of this file runs every
drawn configuration twice — as shipped, and against a test-side
**never-quiet reference** that wakes everything before every slice, i.e.
the engine with no idle path at all — and demands equality of everything
a run can report.  The second half pins the mechanism on real machines,
one case per row of the wake table, and what a missing row turns into: a
typed, diagnosed stall.
"""

import contextlib
from collections import deque
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, PgxdAsyncEngine, run_query, \
    uniform_random_graph
from repro.chaos import ChaosConfig
from repro.context import ExecutionContext
from repro.errors import QueryStalled, RuntimeFault
from repro.obs import Recording
from repro.runtime.machine import QueryMachine
from repro.runtime.messages import Ack, Completed, QuotaGrant, WorkMessage
from repro.runtime.termination import TerminationTracker
from repro.runtime.worker import Worker
from repro.service import QueryService, ServiceConfig


@contextlib.contextmanager
def never_quiet_reference():
    """Run with nothing ever asleep: every slice takes the full
    ``worker_step`` path (DOWORK scan and housekeeping), every parked
    computation re-checks its window and every buffer is visited by the
    flush scans.  The state is reset here rather than through
    ``wake_all``, so an omission in ``wake_all`` is not shared."""
    sleeping_step = QueryMachine.worker_step

    def worker_step(self, worker_index, budget):
        self._awake = self._all_workers
        self._housekeeping = True
        self._parked = [0] * len(self._parked)
        self._flushable = sum(
            1 << bit for bit, slot in enumerate(self._slots) if slot
        )
        return sleeping_step(self, worker_index, budget)

    QueryMachine.worker_step = worker_step
    try:
        yield
    finally:
        QueryMachine.worker_step = sleeping_step


def _max_examples(tier1):
    """*tier1* examples, unless the selected hypothesis profile asks for
    more than hypothesis's own default (``--hypothesis-profile soak``)."""
    selected = settings().max_examples
    if selected > settings.get_profile("default").max_examples:
        return selected
    return tier1


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
    recording = result.recording
    return {
        "rows": result.rows,
        # per-machine MachineMetrics included
        "metrics": asdict(result.metrics),
        "views": result.execution_profile().to_dict()["per_machine"],
        "events": [event.to_dict() for event in recording],
        "series": (recording.series.ticks, recording.series.machines,
                   recording.series.wavefront),
        "registry": recording.prometheus(),
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
        workers_per_machine=draw(st.sampled_from([1, 2, 3, 4])),
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
    """Sleeping engine == never-quiet reference, on everything."""

    @given(
        graph_seed=st.integers(min_value=0, max_value=10_000),
        vertices=st.integers(min_value=2, max_value=60),
        density=st.integers(min_value=1, max_value=5),
        query=st.sampled_from(QUERIES),
        config=_cluster_configs(),
    )
    @settings(max_examples=_max_examples(60), deadline=None)
    def test_matches_never_quiet_reference(self, graph_seed, vertices,
                                           density, query, config):
        graph = uniform_random_graph(
            vertices, vertices * density, seed=graph_seed, num_types=3
        )
        def recorded():
            return _observation(run_query(
                graph, query, config,
                context=ExecutionContext(recording=Recording()),
            ))

        sleeping = recorded()
        with never_quiet_reference():
            reference = recorded()
        assert sleeping == reference

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
        sleeping = self._service_run()
        with never_quiet_reference():
            reference = self._service_run()
        assert sleeping[0] >= 3  # concurrent tenants interleaved
        assert sleeping == reference


# ----------------------------------------------------------------------
# Mechanism, on real machines: one case per row of the wake table
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
    truthy for a machine that is wholly asleep (no worker bit, no
    housekeeping); returns ``(machine, that value)``."""
    while not simulator.step():
        for machine in machines:
            if machine._awake == 0 and not machine._housekeeping:
                found = wanted(machine)
                if found:
                    return machine, found
    raise AssertionError("the run never reached the wanted state")


def _parked_windows(machine):
    """``window -> [workers]`` for every window with a registered
    sleeper, straight from the machine's diagnostic snapshot."""
    return machine.sleep_state()["parked"]


def _record_scans(monkeypatch):
    """Indices of the workers whose DOWORK loop is entered from here on."""
    scanned = []
    plain_step = Worker.step

    def step(self, budget, trace_offset):
        scanned.append(self.index)
        return plain_step(self, budget, trace_offset)

    monkeypatch.setattr(Worker, "step", step)
    return scanned


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
    def test_work_message_wakes_one_free_worker_second_taken_same_tick(
            self, monkeypatch):
        simulator, machines = _prepared()
        machine, _ = _step_until(
            simulator, machines,
            lambda m: all(w.slots[1] is None for w in m._workers),
        )
        budget = simulator.config.ops_per_tick
        vertex = int(machine.local.local_vertices()[0])
        peer = (machine.machine_id + 1) % machine.num_machines
        # Two bulks for stage 1 in one tick, each worth a whole slice.
        bulk = ((vertex, vertex),) * (2 * budget)
        for _ in range(2):
            machine.on_message(peer, WorkMessage(1, bulk))
            assert machine._awake == 0b0001  # the first free slot only
            assert not machine._housekeeping
        scanned = _record_scans(monkeypatch)
        for index in range(len(machine._workers)):
            machine.worker_step(index, budget)
        # Worker 0 took the first bulk; its slice passed the second on
        # to the next free slot, which ran later in the same tick.
        assert scanned[:2] == [0, 1]
        assert not machine._inbox[1]

    def test_ack_for_a_window_nobody_waits_on_wakes_nobody(
            self, monkeypatch):
        simulator, machines = _prepared(**PRESSURE)

        def quiet_window(machine):
            for stage, row in enumerate(machine.flow._inflight):
                for dest, inflight in enumerate(row):
                    if (
                        inflight
                        and (stage, dest) not in _parked_windows(machine)
                        and not machine._outgoing.get((stage, dest))
                    ):
                        return stage, dest
            return None

        machine, (stage, dest) = _step_until(
            simulator, machines, quiet_window
        )
        scanned = _record_scans(monkeypatch)
        idle_before = machine.metrics.idle_ticks
        machine.on_message(dest, Ack(stage, 1))
        assert machine.flow.inflight(stage, dest) == 0
        assert machine._awake == 0 and not machine._housekeeping
        for index in range(len(machine._workers)):
            assert machine.worker_step(index, 32) == 0
        assert scanned == []
        assert machine.metrics.idle_ticks == idle_before + 4

    def test_ack_resumes_parked_computation_on_next_slice(
            self, monkeypatch):
        simulator, machines = _prepared(**PRESSURE)

        def two_windows(machine):
            parked = _parked_windows(machine)
            for window, workers in sorted(parked.items()):
                others = {
                    w for key, ws in parked.items() if key != window
                    for w in ws
                } - set(workers)
                if len(workers) == 1 and others:
                    return window, workers[0], sorted(others)[0]
            return None

        machine, ((stage, dest), waiter, sibling) = _step_until(
            simulator, machines, two_windows
        )
        budget = simulator.config.ops_per_tick
        comp = next(
            comp for comp in machine._workers[waiter].slots
            if comp is not None and comp.blocked_on == (stage, dest)
        )
        scanned = _record_scans(monkeypatch)
        assert machine.worker_step(waiter, budget) == 0  # asleep: parked
        assert scanned == []

        machine.on_message(dest, Ack(stage, 1))
        assert machine._awake == 1 << waiter
        # The full buffer behind the window can go out now: housekeeping.
        assert machine._housekeeping
        assert machine.worker_step(waiter, budget) > 0
        assert comp.blocked_on != (stage, dest) or comp.stack
        machine.worker_step(sibling, budget)
        assert scanned == [waiter]  # the sibling's slice was H only
        assert not machine._awake >> sibling & 1

    def test_zero_quota_grant_makes_the_parked_worker_ask_again(
            self, monkeypatch):
        simulator, machines = _prepared(**PRESSURE)

        def pending_window(machine):
            for window, workers in sorted(_parked_windows(machine).items()):
                if window in machine.flow._quota_pending:
                    return window, workers
            return None

        machine, ((stage, dest), workers) = _step_until(
            simulator, machines, pending_window
        )
        budget = simulator.config.ops_per_tick
        requests = machine.metrics.quota_requests
        peer = next(
            m for m in range(machine.num_machines)
            if m not in (machine.machine_id, dest)
        )
        machine.on_message(peer, QuotaGrant(stage, dest, 0))
        assert machine._awake == sum(1 << w for w in workers)
        assert not machine._housekeeping  # nothing opened
        scanned = _record_scans(monkeypatch)
        for index in range(len(machine._workers)):
            assert machine.worker_step(index, budget) == 0
        assert scanned == workers
        assert machine.metrics.quota_requests == requests + 1
        assert (stage, dest) in machine.flow._quota_pending
        # Asleep again, registered again, and H never ran for it.
        assert machine._awake == 0 and not machine._housekeeping
        assert _parked_windows(machine)[(stage, dest)] == workers

    def test_flush_wakes_a_worker_parked_on_that_window_same_tick(
            self, monkeypatch):
        simulator, machines = _prepared(**PRESSURE)

        def parked_on_high_worker(machine):
            for window, workers in sorted(_parked_windows(machine).items()):
                if workers[-1] >= 2:
                    return window, workers[-1]
            return None

        machine, ((stage, dest), waiter) = _step_until(
            simulator, machines, parked_on_high_worker
        )
        budget = simulator.config.ops_per_tick
        # An Ack opens the window with its wake-up lost: the flush that
        # follows is the second line of defence.
        with monkeypatch.context() as patch:
            patch.setattr(
                QueryMachine, "_wake_parked", lambda self, window: None
            )
            machine.on_message(dest, Ack(stage, 1))
        assert machine._awake == 0 and machine._housekeeping
        scanned = _record_scans(monkeypatch)
        sent = machine.metrics.work_messages_sent
        assert machine.worker_step(0, budget) > 0  # H only: idle flush
        assert machine.metrics.work_messages_sent == sent + 1
        assert scanned == []
        assert machine._awake >> waiter & 1
        for index in range(1, waiter + 1):
            machine.worker_step(index, budget)
        assert waiter in scanned

    def test_idle_flush_beyond_the_budget_leaves_debt_and_worker_awake(
            self, monkeypatch):
        overshoots = []
        plain_worker_step = QueryMachine.worker_step
        plain_idle_progress = QueryMachine.idle_progress
        flushed = {}

        def idle_progress(self):
            flushed[self.machine_id] = plain_idle_progress(self)
            return flushed[self.machine_id]

        def worker_step(self, worker_index, budget):
            flushed.pop(self.machine_id, None)
            used = plain_worker_step(self, worker_index, budget)
            ops = flushed.get(self.machine_id, 0)
            if ops > budget:
                worker = self._workers[worker_index]
                overshoots.append(ops)
                assert used == budget
                assert worker.debt > 0
                assert self._awake >> worker_index & 1
            return used

        monkeypatch.setattr(QueryMachine, "idle_progress", idle_progress)
        monkeypatch.setattr(QueryMachine, "worker_step", worker_step)
        simulator, _machines = _prepared(
            num_machines=8, ops_per_tick=3, message_send_cost=4,
            bulk_message_size=4,
        )
        while not simulator.step():
            pass
        assert overshoots

    def test_shared_local_item_taken_in_the_tick_it_was_produced(
            self, monkeypatch):
        """A kernel appends to ``rt._local_inbox`` directly (no call
        into the machine): the producer's slice wakes the free-slot
        siblings, and one that slept until then takes the continuation
        within the tick."""
        simulator, machines = _prepared(num_machines=3)
        log = {"running": None, "asleep": 0, "handoffs": []}

        class SharedQueue(deque):
            def append(self, item):
                self.produced = (simulator.now, log["running"],
                                 log["asleep"])
                deque.append(self, item)

            def popleft(self):
                tick, producer, asleep = self.produced
                taker = log["running"]
                if tick == simulator.now and asleep >> taker & 1:
                    log["handoffs"].append((tick, producer, taker))
                return deque.popleft(self)

        for machine in machines:
            machine._local_inbox = [
                SharedQueue() for _ in machine._local_inbox
            ]
        plain_worker_step = QueryMachine.worker_step

        def worker_step(self, worker_index, budget):
            log["running"] = worker_index
            log["asleep"] = ~self._awake
            return plain_worker_step(self, worker_index, budget)

        monkeypatch.setattr(QueryMachine, "worker_step", worker_step)
        while not simulator.step():
            pass
        assert log["handoffs"]
        assert all(taker > producer
                   for _tick, producer, taker in log["handoffs"])

    def test_completed_wakes_and_broadcasts_on_that_slice(self):
        simulator, machines = _prepared(**PRESSURE)
        machine, (stage, peer) = _step_until(
            simulator, machines, _one_completed_short
        )
        budget = simulator.config.ops_per_tick
        sent_before = machine.metrics.control_messages_sent
        machine.worker_step(0, budget)
        assert machine._completions_from == stage  # asleep: no progress
        assert machine.metrics.control_messages_sent == sent_before

        machine.on_message(peer, Completed(stage - 1))
        assert machine._awake == machine._all_workers
        assert machine._housekeeping
        assert machine.worker_step(0, budget) == 0
        # A zero-op slice that moved the protocol proves nothing:
        # housekeeping stays armed for the next slice.
        assert machine._housekeeping
        assert machine._completions_from > stage
        assert machine.termination.sent(stage)
        assert (
            machine.metrics.control_messages_sent - sent_before
            >= machine.num_machines - 1
        )

    def test_sleep_engages_under_window_pressure(self, monkeypatch):
        calls = {"worker_step": 0}
        plain_worker_step = QueryMachine.worker_step

        def worker_step(self, worker_index, budget):
            calls["worker_step"] += 1
            return plain_worker_step(self, worker_index, budget)

        monkeypatch.setattr(QueryMachine, "worker_step", worker_step)
        scanned = _record_scans(monkeypatch)
        simulator, _machines = _prepared(num_machines=8, **PRESSURE)
        while not simulator.step():
            pass
        assert len(scanned) < 0.40 * calls["worker_step"]


class TestLostWakeUp:
    def test_a_lost_window_wake_is_a_diagnosed_stall(self, monkeypatch):
        """Progress depends on the wake table being complete: drop one
        row and the run must stop at once with the sleeper named, not
        spin until ``max_ticks``."""
        monkeypatch.setattr(
            QueryMachine, "_wake_parked", lambda self, window: None
        )
        simulator, machines = _prepared(**PRESSURE)
        with pytest.raises(QueryStalled) as caught:
            while not simulator.step():
                pass
        stalled = caught.value
        assert isinstance(stalled, RuntimeFault)
        assert stalled.tick < 600
        assert stalled.tick == simulator.now < simulator.config.max_ticks
        sleepers = [
            entry for entry in stalled.sleep_state
            if entry["parked"] and not entry["awake"]
        ]
        assert sleepers
        (stage, dest), workers = sorted(sleepers[0]["parked"].items())[0]
        text = str(stalled)
        assert "query stalled at tick %d" % stalled.tick in text
        assert "s%d->m%d:w%d" % (stage, dest, workers[0]) in text
        assert "stages complete" in text
        assert stalled.flow_state[sleepers[0]["machine"]]["buffered_contexts"]


def _unmarked(method, dropped=None):
    """*method* with its flushable mark taken out: the bits the call
    sets are cleared again, except a buffer's that the call created
    (that mark is ``_buffer``'s).  *dropped* collects ``(machine, stage,
    dest)`` for every mark taken out."""
    def unmarked(self, stage, dest, *rest):
        before, created = self._flushable, self._created
        result = method(self, stage, dest, *rest)
        lost = self._flushable & ~(before | (self._created ^ created))
        if lost:
            self._flushable ^= lost
            if dropped is not None:
                dropped.add((self.machine_id, stage, dest))
        return result
    return unmarked


def _outcome(graph, query, config):
    """Everything a run reports, or the tick at which it stalled."""
    try:
        return _observation(run_query(
            graph, query, config,
            context=ExecutionContext(recording=Recording()),
        ))
    except QueryStalled as stalled:
        return "stalled at tick %d" % stalled.tick


class TestUpdateSites:
    """The flushable set and the parked registrations are exact only if
    every site that must set a bit or take a registration does.  Each
    test takes one site out on a fixed window-1 run, which must then
    stall or differ from the never-quiet reference: the hypothesis
    differential, at its default example count, does not reach every
    site."""

    def test_window_opened_mark_is_a_stall_naming_the_stranded_buffer(
            self, monkeypatch):
        dropped = set()
        monkeypatch.setattr(QueryMachine, "_window_opened", _unmarked(
            QueryMachine._window_opened, dropped
        ))
        simulator, _machines = _prepared(**PRESSURE)
        with pytest.raises(QueryStalled) as caught:
            while not simulator.step():
                pass
        stalled = caught.value
        stranded = [
            (entry["machine"], window, items)
            for entry in stalled.sleep_state
            for window, items in sorted(entry["stranded"].items())
        ]
        assert stranded
        machine, (stage, dest), items = stranded[0]
        assert (machine, stage, dest) in dropped
        assert 0 < items <= PRESSURE["bulk_message_size"]
        assert "stranded=[s%d->m%d:%d" % (stage, dest, items) \
            in str(stalled)

    def test_enqueue_mark(self, monkeypatch):
        # Kernels off: every remote emission goes through _enqueue.
        graph = uniform_random_graph(200, 1_200, seed=21, num_types=4)
        config = ClusterConfig(num_machines=4, bulk_kernels=False,
                               **PRESSURE)
        with never_quiet_reference():
            reference = _outcome(graph, PATH_QUERY, config)
        monkeypatch.setattr(
            QueryMachine, "_enqueue", _unmarked(QueryMachine._enqueue)
        )
        assert _outcome(graph, PATH_QUERY, config) != reference

    def test_parked_reset_in_wake_all(self, monkeypatch):
        # A redistributed window admits again with no Ack, no grant and
        # no flush: only wake_all's reset lets its parked computations
        # re-check it.
        graph = uniform_random_graph(60, 240, seed=1, num_types=4)
        config = ClusterConfig(num_machines=3, workers_per_machine=2,
                               **PRESSURE)
        query = "SELECT a, b, c, d WHERE (a)-[]->(b)-[]->(c)-[]->(d)"
        with never_quiet_reference():
            reference = _outcome(graph, query, config)
        plain_wake_all = QueryMachine.wake_all

        def wake_all(self):
            parked = self._parked
            plain_wake_all(self)
            self._parked = parked

        monkeypatch.setattr(QueryMachine, "wake_all", wake_all)
        assert _outcome(graph, query, config) != reference


class TestAckedSeqs:
    def test_no_acked_seq_outlives_the_wait_that_needed_it(self):
        for blocking in (False, True):
            simulator, machines = _prepared(
                num_machines=3, blocking_remote=blocking
            )
            while not simulator.step():
                pass
            # Recorded only for a synchronous wait, consumed by it.
            assert all(not machine._acked_seqs for machine in machines)


# ----------------------------------------------------------------------
# The counted termination predicate
# ----------------------------------------------------------------------
class TestCountedAllComplete:
    @given(st.data())
    @settings(max_examples=_max_examples(200), deadline=None)
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
