"""Chaos engineering for the simulated cluster.

The paper's flow control and incremental termination protocol are sound
because the transport is ordered and reliable (InfiniBand RC).  This
package makes that assumption *testable* instead of baked in: a
seed-driven :class:`FaultPlan` injects message drops, duplications,
reordering delays, machine stalls, and hard crashes into the simulated
network, and the reliability layer (``repro.runtime.reliability``)
restores the FIFO-reliable abstraction on top — so every query must
prove it returns exact results under imperfect delivery.

Typical use::

    from repro import ClusterConfig, run_query
    from repro.chaos import ChaosConfig

    config = ClusterConfig(
        num_machines=4, seed=7, reliability=True,
        chaos=ChaosConfig(drop_rate=0.05, duplicate_rate=0.02,
                          reorder_rate=0.1),
    )
    result = run_query(graph, pgql, config)   # exact results, or
                                              # QueryAborted — never a hang

From the shell: ``python -m repro query --chaos soak --verify ...``.
"""

from repro.chaos.controller import ChaosController
from repro.chaos.network import ChaosNetwork
from repro.chaos.plan import PROFILES, ChaosConfig, FaultPlan, profile

__all__ = [
    "ChaosConfig",
    "ChaosController",
    "ChaosNetwork",
    "FaultPlan",
    "PROFILES",
    "profile",
]
