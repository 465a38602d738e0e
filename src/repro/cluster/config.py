"""Configuration of the simulated cluster and its cost model.

The simulator is a discrete-time model: on every tick each worker may
perform up to ``ops_per_tick`` micro-operations (matching one vertex,
advancing one neighbor cursor, consuming one message context, ...), and
a message sent on tick *t* becomes visible to its destination on tick
``t + network_latency (+ payload size // NETWORK_BANDWIDTH)``.

Absolute tick counts are meaningless; *ratios* between configurations
(more machines, higher latency, smaller flow-control budgets) are the
quantities the benchmarks report, mirroring how the paper reports
relative query times.
"""

from dataclasses import dataclass

from repro.errors import ClusterConfigError

#: Contexts per tick of serialization delay: a bulk message with C
#: contexts adds ``C // NETWORK_BANDWIDTH`` ticks to its latency.
NETWORK_BANDWIDTH = 64

@dataclass
class ClusterConfig:
    """Shape and cost model of the simulated cluster."""

    #: Number of simulated machines (the paper uses 1-32).
    num_machines: int = 4
    #: Worker threads per machine (the paper: slightly fewer than hardware
    #: contexts; default kept small so simulations stay fast).
    workers_per_machine: int = 4
    #: Micro-operations one worker may execute per tick.
    ops_per_tick: int = 32
    #: Ticks between handing a message to the network and delivery.
    network_latency: int = 8
    #: Fixed per-message cost, in sender micro-ops.
    message_send_cost: int = 4
    #: Messages one machine's NIC can inject per tick (0 = unlimited).
    #: Makes all-to-all exchanges scale with the cluster size.
    sender_messages_per_tick: int = 8

    # ------------------------------------------------------------------
    # Reproducibility
    # ------------------------------------------------------------------
    #: Master seed for everything stochastic that hangs off this
    #: cluster: chaos fault plans default to it, and the seeded workload
    #: helpers (``repro.workloads.random_graphs.seeded_workload``)
    #: derive graphs and query suites from it — one knob replays a run.
    seed: int = 0

    # ------------------------------------------------------------------
    # Chaos & reliability (repro.chaos / runtime.reliability)
    # ------------------------------------------------------------------
    #: Fault model applied to this cluster's network and machines — a
    #: :class:`repro.chaos.ChaosConfig`, or None for the default
    #: perfectly-reliable interconnect.
    chaos: object = None
    #: Run every machine's traffic through the reliable-channel layer
    #: (sequence numbers, dedup/reorder buffering, ack + retransmit).
    #: Required whenever ``chaos`` can drop, duplicate, or reorder
    #: messages — the termination protocol is unsound without it.
    reliability: bool = False
    #: Retransmission timeout in ticks (0 = auto: one round trip + slack).
    retransmit_timeout: int = 0

    # ------------------------------------------------------------------
    # Flow control (paper §3.3)
    # ------------------------------------------------------------------
    #: Contexts per bulk message (the message manager packs this many
    #: intermediate results into one network message).
    bulk_message_size: int = 32
    #: Per-(stage, destination) window: max unacknowledged bulk messages a
    #: sender may have in flight. This is the paper's ``b[n][m]``.
    flow_control_window: int = 4
    #: Enable the paper's dynamic memory management: redistribute the
    #: windows of completed stages and allow machines to borrow unused
    #: window capacity from peers.
    dynamic_flow_control: bool = True
    #: Blocking mode for the ABL4 ablation: workers synchronously wait for
    #: the acknowledgment of every remote message instead of switching to
    #: other work (this is what asynchrony saves us from).
    blocking_remote: bool = False
    #: The kernel set ``run_bulk`` dispatches to (repro.runtime.kernels):
    #: True, per-stage kernels generated at plan-finalize time that
    #: process whole CSR adjacency runs per dispatch; False, the
    #: reference cursor kernels.  Both charge identical op counts, so every
    #: deterministic metric is bit-identical either way.  Ignored
    #: (reference) under blocking_remote.
    bulk_kernels: bool = True
    #: Intra-machine work sharing (paper §1/§3.3: computations "submitted
    #: internally to facilitate work-sharing").  Disable to reproduce the
    #: paper's own unbalanced configuration ("we have not yet implemented
    #: the intra-machine workload balancing capabilities").
    work_sharing: bool = True

    #: Hard cap on ticks before the simulator declares a hang (guards
    #: against runtime bugs during development; never hit by the tests).
    max_ticks: int = 50_000_000

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.num_machines < 1:
            raise ClusterConfigError("num_machines must be >= 1")
        if self.workers_per_machine < 1:
            raise ClusterConfigError("workers_per_machine must be >= 1")
        if self.ops_per_tick < 1:
            raise ClusterConfigError("ops_per_tick must be >= 1")
        if self.network_latency < 0:
            raise ClusterConfigError("network_latency must be >= 0")
        if self.bulk_message_size < 1:
            raise ClusterConfigError("bulk_message_size must be >= 1")
        if self.flow_control_window < 1:
            raise ClusterConfigError("flow_control_window must be >= 1")
        if self.retransmit_timeout < 0:
            raise ClusterConfigError("retransmit_timeout must be >= 0")
        if self.chaos is not None and self.chaos.has_message_faults \
                and not self.reliability:
            raise ClusterConfigError(
                "chaos with message faults (drop/duplicate/reorder) "
                "requires reliability=True: the termination protocol "
                "assumes ordered reliable delivery"
            )
        return self

    def replace(self, **changes):
        """Return a copy with *changes* applied (validated)."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)
