"""The discrete-time cluster simulator.

The simulator owns a set of duck-typed *machine* objects (each has
``on_message(src, payload)``, ``worker_step(worker_index, budget)``,
``is_finished()`` and ``metrics``), the :class:`Network`, and the
global clock.  On each tick it first delivers due network messages, then
gives every worker of every machine an operation budget.  The run ends
when every machine reports completion and no messages are in flight.

Machines talk to the outside world exclusively through the
:class:`MachineAPI` handle they are given, which tags network traffic
with the current tick — machines never see the simulator itself.  Its
``send`` hands the payload straight to ``Network.send``; each tick the
simulator unpacks the due :class:`~repro.cluster.network.Envelope`
entries into ``on_message`` calls.

Three optional subsystems hook in here:

* **chaos** (``repro.chaos``): when the config carries a ``ChaosConfig``
  the network is replaced by a fault-injecting :class:`~repro.chaos.
  ChaosNetwork` and a :class:`~repro.chaos.ChaosController` applies
  scripted machine stalls and crashes each tick;
* **timers**: machines exposing ``uses_tick_hook`` get an ``on_tick``
  call every tick (the reliability layer's retransmission timers), and
  their ``next_timer_tick`` participates in idle fast-forwarding;
* **recording** (``repro.obs.recording``): when the run's context
  carries one, the simulator binds it at :meth:`Simulator.start`,
  records each send and delivery (event + message-latency histogram),
  samples its series after every processed tick's workers ran, and
  seals it when the run ends or aborts.

A hard machine crash or an exceeded query deadline raises a structured
:class:`~repro.errors.QueryAborted` (:meth:`Simulator.abort`) carrying
partial metrics, the recording and :meth:`Simulator.flow_state` — the
simulator never hangs on an unrecoverable fault.
"""

from repro.cluster.config import NETWORK_BANDWIDTH
from repro.cluster.metrics import QueryMetrics
from repro.cluster.network import Network
from repro.context import ExecutionContext
from repro.errors import QueryAborted, QueryStalled, RuntimeFault


class MachineAPI:
    """Capability handle machines use to reach the network and the clock."""

    def __init__(self, simulator, machine_id):
        self._simulator = simulator
        self.machine_id = machine_id

    @property
    def now(self):
        return self._simulator.now

    @property
    def num_machines(self):
        return self._simulator.num_machines

    def send(self, dst, payload, size=0):
        if dst == self.machine_id:
            raise RuntimeFault("machine %d sent a message to itself" % dst)
        simulator = self._simulator
        deliver_at = simulator.network.send(
            simulator.now, self.machine_id, dst, payload, size
        )
        recording = simulator.recording
        if recording is not None:
            from repro.obs.events import MessageSend

            recording.emit(MessageSend(
                simulator.now, self.machine_id, dst,
                getattr(payload, "trace_name", type(payload).__name__),
                getattr(payload, "stage", None),
                size, deliver_at,
            ))


class Simulator:
    """Drives machines tick by tick until global completion."""

    def __init__(self, config, context=None):
        self._config = config
        context = context or ExecutionContext()
        recording = context.recording
        chaos_config = config.chaos
        if chaos_config is not None:
            from repro.chaos import ChaosController, ChaosNetwork, FaultPlan

            plan = FaultPlan(chaos_config, default_seed=config.seed)
            self.network = ChaosNetwork(
                latency=config.network_latency,
                bandwidth=NETWORK_BANDWIDTH,
                sender_rate=config.sender_messages_per_tick,
                plan=plan,
                recording=recording,
            )
            self.chaos = ChaosController(
                plan, config.num_machines, recording=recording
            )
        else:
            self.network = Network(
                latency=config.network_latency,
                bandwidth=NETWORK_BANDWIDTH,
                sender_rate=config.sender_messages_per_tick,
            )
            self.chaos = None
        self.now = 0
        self._machines = []
        #: The run's recording, deadline and tenant identity, read off
        #: its ExecutionContext.  A None recording keeps every hot path
        #: bare; the run aborts once ``now`` reaches a non-None
        #: deadline; ``query_id`` (None for a plain single-query run) is
        #: stamped into flow-state snapshots so abort diagnostics can
        #: name the tenant.
        self.recording = recording
        self.deadline = context.deadline
        self.query_id = context.query_id
        self._started = False
        self._timer_machines = []

    @property
    def num_machines(self):
        return self._config.num_machines

    @property
    def config(self):
        return self._config

    def api_for(self, machine_id):
        """The capability handle for machine *machine_id*."""
        return MachineAPI(self, machine_id)

    def attach(self, machines):
        """Register the machine objects (must match config.num_machines)."""
        if len(machines) != self._config.num_machines:
            raise RuntimeFault(
                "expected %d machines, got %d"
                % (self._config.num_machines, len(machines))
            )
        self._machines = list(machines)

    # ------------------------------------------------------------------
    # Abort path (crash / deadline): structured, never a hang
    # ------------------------------------------------------------------
    def _metrics(self):
        """The run's QueryMetrics so far, network fault counters included
        (partial on the abort path, final in :meth:`finish`)."""
        metrics = QueryMetrics.collect(
            self.now, [machine.metrics for machine in self._machines]
        )
        network = self.network
        metrics.messages_dropped = network.messages_dropped
        metrics.messages_duplicated = network.messages_duplicated
        metrics.messages_delayed = network.messages_delayed
        return metrics

    def flow_state(self):
        """Per-machine flow-control/memory snapshot for abort reports.

        Captured on *every* abort path — deadline timeouts included, not
        just crashes — so a query stuck on an exhausted window can be
        debugged from the exception alone; the multi-query service also
        reads it for co-tenants.
        """
        state = []
        for machine_id, machine in enumerate(self._machines):
            flow = getattr(machine, "flow", None)
            metrics = getattr(machine, "metrics", None)
            entry = {
                "machine": machine_id,
                "query_id": self.query_id,
                "occupancy": flow.occupancy() if flow is not None else {},
                "inflight_total": (
                    flow.inflight_total() if flow is not None else 0
                ),
                "buffered_contexts": getattr(
                    metrics, "cur_buffered_contexts", 0
                ),
                "live_frames": getattr(metrics, "cur_live_frames", 0),
            }
            state.append(entry)
        return state

    def abort(self, reason):
        """Abort the run now with a structured :class:`QueryAborted`.

        :meth:`step` calls it on a crash or a passed deadline; the
        multi-query service calls it to cancel one tenant's scope
        mid-run.
        """
        metrics = self._metrics()
        if self.recording is not None:
            self.recording.seal(self.now, metrics, aborted=reason)
        detail, flow_state = self._diagnosis()
        raise QueryAborted(
            reason,
            tick=self.now,
            metrics=metrics,
            recording=self.recording,
            detail=detail,
            flow_state=flow_state,
        )

    def _diagnosis(self):
        """``(detail line or None, flow state)`` of a run that stopped
        short: termination progress and unacked frames, plus the
        per-machine windows (rendered by ``errors.stop_report``)."""
        details = []
        tracker = getattr(self._machines[0], "termination", None)
        if tracker is not None:
            details.append(tracker.progress_summary())
        unacked = sum(
            machine.api.unacked_frames()
            for machine in self._machines
            if hasattr(getattr(machine, "api", None), "unacked_frames")
        )
        if unacked:
            details.append("%d unacked frames" % unacked)
        return "; ".join(details) or None, self.flow_state()

    def stalled(self, reason):
        """The :class:`QueryStalled` describing this run right now (the
        caller raises it): nothing in it can move, yet it is not done."""
        detail, flow_state = self._diagnosis()
        sleep_state = []
        for machine_id, machine in enumerate(self._machines):
            sleep = getattr(machine, "sleep_state", None)
            if sleep is not None:
                sleep_state.append(dict(sleep(), machine=machine_id))
        return QueryStalled(
            reason, tick=self.now, detail=detail, flow_state=flow_state,
            sleep_state=sleep_state,
        )

    def start(self):
        """Prepare for tick-by-tick stepping (idempotent).

        Splitting the run into ``start`` / ``step`` / ``finish`` lets
        the multi-query service (``repro.service``) interleave several
        simulators on one shared deployment, advancing each scope one
        *virtual* tick at a time; :meth:`run` composes the same three
        pieces for the classic single-query path, so both drive the
        identical per-tick semantics.
        """
        if self._started:
            return
        if not self._machines:
            raise RuntimeFault("no machines attached")
        machines = self._machines
        self._timer_machines = [
            (index, machine)
            for index, machine in enumerate(machines)
            if getattr(machine, "uses_tick_hook", False)
        ]
        if self.recording is not None:
            num_stages = getattr(
                getattr(machines[0], "plan", None), "num_stages", 0
            )
            self.recording.bind(machines, self._config, num_stages)
        self._started = True

    def step(self):
        """Advance the cluster by one processed tick.

        Returns True when the run is globally complete (every machine
        finished and no messages in flight); idle stretches fast-forward
        the clock to the next due event inside a single call.  Raises
        :class:`~repro.errors.QueryAborted` on a crash or a passed
        deadline, exactly like :meth:`run`.
        """
        config = self._config
        machines = self._machines
        workers = config.workers_per_machine
        budget = config.ops_per_tick
        recording = self.recording
        chaos = self.chaos
        deadline = self.deadline
        if recording is not None:
            from repro.obs.events import MessageDeliver
        if deadline is not None and self.now >= deadline:
            self.abort("deadline of %d ticks exceeded" % deadline)
        if chaos is not None:
            crashed = chaos.begin_tick(self.now)
            if crashed is not None:
                self.abort("machine %d crashed" % crashed)
        for index, machine in self._timer_machines:
            if chaos is None or not chaos.is_stalled(index, self.now):
                machine.on_tick(self.now)

        for _at, _seq, src, dst, payload, sent_at in \
                self.network.deliver_due(self.now):
            if recording is not None:
                recording.emit(MessageDeliver(
                    self.now, src, dst,
                    getattr(payload, "trace_name", type(payload).__name__),
                    getattr(payload, "stage", None),
                ))
                recording.message_latency.observe(self.now - sent_at)
            machines[dst].on_message(src, payload)

        all_idle = True
        for index, machine in enumerate(machines):
            if chaos is not None and chaos.is_stalled(index, self.now):
                continue  # compute frozen; the NIC above still ran
            for worker_index in range(workers):
                used = machine.worker_step(worker_index, budget)
                if used:
                    all_idle = False

        if recording is not None:
            # End-of-tick sample, after all workers ran.
            recording.series.on_tick(self.now)

        if all(machine.is_finished() for machine in machines):
            if len(self.network) == 0:
                return True
        if all_idle:
            # Nothing to do right now: fast-forward to the next
            # event — a delivery, a retransmission timer, a scripted
            # chaos transition, or the deadline itself.
            candidates = []
            next_delivery = self.network.next_delivery_tick()
            if next_delivery is not None:
                candidates.append(next_delivery)
            for _index, machine in self._timer_machines:
                timer = machine.next_timer_tick()
                if timer is not None:
                    candidates.append(timer)
            if chaos is not None:
                event = chaos.next_event_tick(self.now)
                if event is not None:
                    candidates.append(event)
            if deadline is not None:
                candidates.append(deadline)
            if candidates:
                self.now = max(self.now + 1, min(candidates))
                self._check_max_ticks()
                return False
            if all(machine.is_finished() for machine in machines):
                return True
            raise self.stalled(
                "simulation deadlock: all machines idle, no messages in "
                "flight, not finished"
            )
        self.now += 1
        self._check_max_ticks()
        return False

    def _check_max_ticks(self):
        if self.now > self._config.max_ticks:
            raise RuntimeFault("simulation exceeded max_ticks")

    def finish(self):
        """Seal a completed run; returns its :class:`QueryMetrics`."""
        metrics = self._metrics()
        if self.recording is not None:
            self.recording.seal(self.now, metrics)
        return metrics

    def run(self):
        """Run to completion; returns a :class:`QueryMetrics`.

        Raises :class:`~repro.errors.QueryAborted` when a chaos-scripted
        machine crash fires or the query deadline passes.
        """
        self.start()
        while not self.step():
            pass
        return self.finish()
