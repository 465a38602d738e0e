"""Simulated PGX.D-style cluster: machines, workers, network, clock."""

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import MachineMetrics, QueryMetrics
from repro.cluster.network import Envelope, Network
from repro.cluster.simulator import MachineAPI, MachineInterface, Simulator

__all__ = [
    "ClusterConfig",
    "MachineMetrics",
    "QueryMetrics",
    "Network",
    "Envelope",
    "Simulator",
    "MachineAPI",
    "MachineInterface",
]
