"""Graph statistics subsystem.

Collects per-label counts, degree histograms, edge fan-out, and exact
per-property value counts at graph-build time (or on demand for loaded
graphs), serializes them alongside the graph, and feeds the cost-based
distributed planner (``repro.plan.cost``).
"""

from repro.stats.collect import (
    TOP_VALUES,
    DegreeStats,
    GraphStatistics,
    PropertyStats,
    collect_statistics,
)

__all__ = [
    "GraphStatistics",
    "DegreeStats",
    "PropertyStats",
    "collect_statistics",
    "TOP_VALUES",
]
