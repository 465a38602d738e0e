"""Execution metrics collected by the simulator.

``MachineMetrics`` is everything one simulated machine counted in one
run: its scalar counters, its gauges and its per-stage counters.
``QueryMetrics`` aggregates them with the global clock into the record a
benchmark reports, and :meth:`QueryMetrics.merge` is the one fold of
such records (machines into a query, a union's expansions into the
union, a workload's queries into its record).  Peak trackers implement
the memory-bound claims of the paper: ``peak_buffered_contexts`` is the
quantity flow control is supposed to keep below the configured budget.
"""

from dataclasses import InitVar, dataclass, field, fields
from itertools import zip_longest

#: The per-stage counters, each a ``MachineMetrics.stage_<name>`` list.
STAGE_COUNTERS = ("visits", "passes", "remote_in", "scanned", "emitted")


@dataclass
class MachineMetrics:
    """Per-machine counters (all monotone except the ``cur_*`` gauges)."""

    ops: int = 0
    idle_ticks: int = 0
    work_messages_sent: int = 0
    contexts_sent: int = 0
    control_messages_sent: int = 0
    results_emitted: int = 0
    flow_control_blocks: int = 0
    quota_requests: int = 0
    quota_granted: int = 0
    ghost_prunes: int = 0

    # Reliability layer (runtime.reliability; zero when disabled).
    retransmits: int = 0
    dup_frames_dropped: int = 0
    reordered_frames: int = 0

    # run_bulk dispatches (runtime.kernels) of whichever kernel set the
    # machine holds, generated or reference.  Purely diagnostic:
    # kernel_ops is a subset of ops, and neither participates in any
    # deterministic gate — the kernel sets must not move the gated ones.
    kernel_batches: int = 0
    kernel_ops: int = 0

    # Gauges and their high-water marks.
    cur_buffered_contexts: int = 0
    peak_buffered_contexts: int = 0
    cur_live_frames: int = 0
    peak_live_frames: int = 0

    # Per-stage counters, indexed by compiled stage: contexts entering
    # the vertex function and passing its checks, contexts shipped to the
    # stage (charged at the sender), neighbor candidates / edge ids its
    # hop inspected, continuation weight it produced (output: rows).
    stage_visits: list = field(init=False)
    stage_passes: list = field(init=False)
    stage_remote_in: list = field(init=False)
    stage_scanned: list = field(init=False)
    stage_emitted: list = field(init=False)
    num_stages: InitVar[int] = 0

    def __post_init__(self, num_stages):
        for name in STAGE_COUNTERS:
            setattr(self, "stage_" + name, [0] * num_stages)

    def buffered_delta(self, delta):
        """Adjust the buffered-context gauge (inbox + parked + outgoing)."""
        self.cur_buffered_contexts += delta
        if self.cur_buffered_contexts > self.peak_buffered_contexts:
            self.peak_buffered_contexts = self.cur_buffered_contexts

    def frames_delta(self, delta):
        self.cur_live_frames += delta
        if self.cur_live_frames > self.peak_live_frames:
            self.peak_live_frames = self.cur_live_frames

    #: Gauge peaks combined by ``max`` in :meth:`merge`; the ``cur_*``
    #: gauges of a finished run are transient and not merged.
    _MERGE_BY_MAX = frozenset({"peak_buffered_contexts", "peak_live_frames"})
    _MERGE_SKIP = frozenset({"cur_buffered_contexts", "cur_live_frames"})

    def merge(self, other):
        """Accumulate *other* into this record (sequential composition).

        The per-stage lists add up by stage position, so runs of
        different lengths (a union's expansions) line up at the root.
        """
        for spec in fields(self):
            if spec.name in self._MERGE_SKIP:
                continue
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if spec.name in self._MERGE_BY_MAX:
                setattr(self, spec.name, max(mine, theirs))
            elif isinstance(mine, list):
                setattr(self, spec.name, [
                    a + b for a, b in zip_longest(mine, theirs, fillvalue=0)
                ])
            else:
                setattr(self, spec.name, mine + theirs)
        return self


@dataclass
class QueryMetrics:
    """Aggregated outcome of one simulated query execution."""

    ticks: int = 0
    num_machines: int = 0
    total_ops: int = 0
    total_idle_ticks: int = 0
    work_messages: int = 0
    contexts_shipped: int = 0
    control_messages: int = 0
    num_results: int = 0
    peak_buffered_contexts: int = 0
    peak_live_frames: int = 0
    flow_control_blocks: int = 0
    quota_requests: int = 0
    quota_granted: int = 0
    ghost_prunes: int = 0
    # Reliability layer (summed across machines; zero when disabled).
    retransmits: int = 0
    dup_frames_dropped: int = 0
    reordered_frames: int = 0
    # run_bulk kernel dispatches (summed across machines; either set).
    kernel_batches: int = 0
    kernel_ops: int = 0
    # Chaos fault injections, copied from the network by the simulator.
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    per_machine: list = field(default_factory=list)

    @classmethod
    def collect(cls, ticks, machine_metrics):
        """Fold per-machine counters into one record."""
        metrics = cls(ticks=ticks, num_machines=len(machine_metrics))
        for machine in machine_metrics:
            metrics.total_ops += machine.ops
            metrics.total_idle_ticks += machine.idle_ticks
            metrics.work_messages += machine.work_messages_sent
            metrics.contexts_shipped += machine.contexts_sent
            metrics.control_messages += machine.control_messages_sent
            metrics.num_results += machine.results_emitted
            metrics.flow_control_blocks += machine.flow_control_blocks
            metrics.quota_requests += machine.quota_requests
            metrics.quota_granted += machine.quota_granted
            metrics.ghost_prunes += machine.ghost_prunes
            metrics.retransmits += machine.retransmits
            metrics.dup_frames_dropped += machine.dup_frames_dropped
            metrics.reordered_frames += machine.reordered_frames
            metrics.kernel_batches += machine.kernel_batches
            metrics.kernel_ops += machine.kernel_ops
            metrics.peak_buffered_contexts = max(
                metrics.peak_buffered_contexts, machine.peak_buffered_contexts
            )
            metrics.peak_live_frames = max(
                metrics.peak_live_frames, machine.peak_live_frames
            )
        metrics.per_machine = list(machine_metrics)
        return metrics

    #: Fields combined by ``max`` in :meth:`merge`; every other numeric
    #: field is summed, so a newly added counter is merged correctly by
    #: default instead of silently dropping out of union aggregation.
    _MERGE_BY_MAX = frozenset(
        {"num_machines", "peak_buffered_contexts", "peak_live_frames"}
    )

    def merge(self, other):
        """Accumulate *other* into this record (sequential composition).

        Used when one logical query runs as several physical executions
        back to back — e.g. the expansions of a variable-length-path
        union.  Counters and times add up; high-water marks and the
        machine count take the maximum.  A blank record
        (``QueryMetrics()``) takes copies of the first run's
        ``per_machine`` records, so later merges never touch that run's
        own; after that they are merged positionally when both runs used
        the same cluster shape and dropped otherwise (a max of peaks
        across differently-shaped runs would be meaningless).
        """
        if not self.num_machines and not self.per_machine:
            self.per_machine = [
                MachineMetrics().merge(theirs) for theirs in other.per_machine
            ]
        elif len(self.per_machine) == len(other.per_machine):
            for mine, theirs in zip(self.per_machine, other.per_machine):
                mine.merge(theirs)
        else:
            self.per_machine = []
        for spec in fields(self):
            if spec.name == "per_machine":
                continue
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if spec.name in self._MERGE_BY_MAX:
                setattr(self, spec.name, max(mine, theirs))
            else:
                setattr(self, spec.name, mine + theirs)
        return self

    def stage_profile(self, counters=STAGE_COUNTERS):
        """Across-machine sums of the per-stage *counters*: one
        ``{counter: total}`` dict per stage position."""
        sums = [map(sum, zip(*[getattr(machine, "stage_" + name)
                               for machine in self.per_machine]))
                for name in counters]
        return [dict(zip(counters, row)) for row in zip(*sums)]

    def reliability_summary(self):
        """One-line chaos/reliability summary (all zero on clean runs)."""
        return (
            "faults: dropped=%d duplicated=%d delayed=%d | recovery: "
            "retransmits=%d dup_frames_dropped=%d reordered=%d"
            % (
                self.messages_dropped,
                self.messages_duplicated,
                self.messages_delayed,
                self.retransmits,
                self.dup_frames_dropped,
                self.reordered_frames,
            )
        )

    def summary(self):
        """One-line human summary, used by examples and benchmarks."""
        return (
            "ticks=%d results=%d msgs=%d ctxs=%d peak_buf=%d peak_frames=%d"
            % (
                self.ticks,
                self.num_results,
                self.work_messages,
                self.contexts_shipped,
                self.peak_buffered_contexts,
                self.peak_live_frames,
            )
        )
