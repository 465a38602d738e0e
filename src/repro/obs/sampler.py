"""Per-tick time-series sampling of the live runtime.

The :class:`TimeSeriesSampler` is the one per-tick reader of machine
state: the simulator calls ``on_tick`` once per processed tick (after
every worker ran), and the recording flushes it once more when the run
is sealed.  Idle fast-forwarding skips ticks the same way it does for
machines — nothing changes during skipped ticks, and every sample
carries its own tick, so the series is simply sparse there (``spans``
holds each sample's elapsed ticks).

Each sample records, per machine, the quantities the paper's §3.2/§3.3
claims are about: the buffered-context gauge against the configured
budget, flow-control window occupancy, quota grants, retransmits, and
the idle fraction.  The ``buffered_max`` column is the within-interval
high-water mark (exact whenever the machine's peak advanced during the
interval), so ``max(series["buffered_max"]) == peak_buffered_contexts``
holds for a complete run — the bounded-memory claim as a curve.  The
series is also the one source of the Prometheus export's end-state
gauges (each machine's last sample) and of its ``repro_inbox_depth``
histogram (the ``inbox_depth`` column, bucketed).

Samples are pure functions of the deterministic simulation state, so a
fixed seed reproduces the series bit for bit.
"""

#: Per-machine series columns, in export order.
MACHINE_COLUMNS = (
    "ops",            # micro-ops executed since the previous sample
    "buffered",       # buffered-context gauge (inbox + parked + outgoing)
    "buffered_max",   # within-interval high-water mark of that gauge
    "frames",         # live traversal frames
    "inflight",       # total unacked flow-control window occupancy
    "occupancy",      # number of (stage, dest) windows with traffic in flight
    "inbox_depth",    # queued bulk work messages
    "idle_frac",      # 1 - ops / (workers * ops_per_tick * interval ticks)
    "quota_granted",  # cumulative window slots received from peers
    "retransmits",    # cumulative reliability-layer retransmissions
    "stages_done",    # stages this machine has declared COMPLETED
)


class TimeSeriesSampler:
    """Records per-machine series each simulator tick of a recorded run."""

    def __init__(self, interval=1):
        #: Sample every N processed ticks (1 = every tick).
        self.interval = max(1, int(interval))
        #: Tick of each sample (shared by all machines), and the elapsed
        #: ticks it covers: the distance to the run's previous sample, so
        #: interval sampling and fast-forwarded stretches weigh what
        #: they span.
        self.ticks = []
        self.spans = []
        #: machine -> {column: [values]}, aligned with ``ticks``.
        self.machines = {}
        #: Per-sample tuple of per-stage completed-machine counts — the
        #: stage-completion wavefront the monitor dashboard renders.
        self.wavefront = []
        #: Receiver-side context budget (0 = unknown/not bound yet).
        self.budget = 0
        self.num_stages = 0
        #: The run's machines, once bound.
        self.bound = ()
        self._capacity = 1
        self._last_ops = {}
        self._prev_peak = {}
        #: Optional live hook: called as ``on_sample(sampler, tick)``
        #: every ``callback_every`` samples (the monitor dashboard).
        self.on_sample = None
        self.callback_every = 1
        self._since_callback = 0

    @property
    def num_samples(self):
        return len(self.ticks)

    def bind(self, machines, capacity, num_stages, budget):
        """Attach to a run's machines (``Recording.bind``)."""
        self.bound = list(machines)
        self._capacity = max(1, capacity)
        self.num_stages = num_stages
        self.budget = budget

    def on_tick(self, now):
        if not self.ticks or now - self.ticks[-1] >= self.interval:
            self._sample(now)

    def flush(self, now):
        """Record the final state of a finished (or aborted) run."""
        if not self.ticks or now != self.ticks[-1]:
            self._sample(now)

    # ------------------------------------------------------------------
    def _series_for(self, machine_id):
        series = self.machines.get(machine_id)
        if series is None:
            series = self.machines[machine_id] = {
                column: [] for column in MACHINE_COLUMNS
            }
        return series

    def _sample(self, now):
        machines = self.bound
        if not machines:
            return
        span = max(1, now - self.ticks[-1]) if self.ticks else 1
        self.ticks.append(now)
        self.spans.append(span)
        stage_done = [0] * self.num_stages
        for machine_id, machine in enumerate(machines):
            metrics = machine.metrics
            ops_delta = metrics.ops - self._last_ops.get(machine_id, 0)
            self._last_ops[machine_id] = metrics.ops
            buffered = metrics.cur_buffered_contexts
            peak = metrics.peak_buffered_contexts
            prev_peak = self._prev_peak.get(machine_id, 0)
            buffered_max = peak if peak > prev_peak else buffered
            self._prev_peak[machine_id] = peak
            flow = getattr(machine, "flow", None)
            inflight = flow.inflight_total() if flow is not None else 0
            occupancy = flow.occupancy_count() if flow is not None else 0
            depth = (
                machine.inbox_depth()
                if hasattr(machine, "inbox_depth") else 0
            )
            idle_frac = 1.0 - min(
                1.0, ops_delta / (self._capacity * span)
            )
            termination = getattr(machine, "termination", None)
            stages_done = 0
            if termination is not None:
                for stage in range(self.num_stages):
                    if termination.sent(stage):
                        stages_done += 1
                        stage_done[stage] += 1
            series = self._series_for(machine_id)
            series["ops"].append(ops_delta)
            series["buffered"].append(buffered)
            series["buffered_max"].append(buffered_max)
            series["frames"].append(metrics.cur_live_frames)
            series["inflight"].append(inflight)
            series["occupancy"].append(occupancy)
            series["inbox_depth"].append(depth)
            series["idle_frac"].append(round(idle_frac, 4))
            series["quota_granted"].append(metrics.quota_granted)
            series["retransmits"].append(metrics.retransmits)
            series["stages_done"].append(stages_done)
        self.wavefront.append(tuple(stage_done))

        if self.on_sample is not None:
            self._since_callback += 1
            if self._since_callback >= self.callback_every:
                self._since_callback = 0
                self.on_sample(self, now)

    # ------------------------------------------------------------------
    # Inspection & composition
    # ------------------------------------------------------------------
    def series(self, machine_id):
        """``{"ticks": [...], <column>: [...]}`` for one machine."""
        return dict(self._series_for(machine_id), ticks=list(self.ticks))

    def peak(self, column):
        """Max of *column* across all machines (0 on an empty series)."""
        peak = 0
        for series in self.machines.values():
            if series[column]:
                peak = max(peak, max(series[column]))
        return peak

    def extend(self, other, tick_offset=0):
        """Append a later run's samples, shifting ticks (union seams)."""
        self.ticks.extend(tick + tick_offset for tick in other.ticks)
        self.spans.extend(other.spans)
        for machine_id, series in other.machines.items():
            mine = self._series_for(machine_id)
            for column in MACHINE_COLUMNS:
                mine[column].extend(series[column])
        self.wavefront.extend(other.wavefront)
        self.num_stages = max(self.num_stages, other.num_stages)
        self.budget = max(self.budget, other.budget)
        return self
