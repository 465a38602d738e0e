"""Per-execution context threaded uniformly through the engine.

Three settings objects, three jobs: :class:`~repro.cluster.config.
ClusterConfig` describes the cluster, :class:`~repro.plan.options.
PlannerOptions` the plan, and an :class:`ExecutionContext` the *run* —
how one execution is observed and bounded.  The three share no field
name, and the context is the only place a run's recording and deadline
can be said:

* ``recording`` — a :class:`repro.obs.Recording`, or None (the run is
  not recorded);
* ``deadline`` — per-query deadline in simulated ticks (the run aborts
  with :class:`~repro.errors.QueryAborted` once the clock reaches it),
  or None;
* ``priority`` — fair-share weight when the query runs through the
  :class:`~repro.service.QueryService` scheduler (higher = more worker
  time per global tick); ignored by direct single-query execution;
* ``query_id`` — the tenant identity stamped on flow-state snapshots,
  abort diagnostics, and per-tenant metric labels; None for plain
  single-query runs.

The caller builds the recording and keeps it, so it survives an abort:
``ExecutionContext(recording=Recording(), deadline=500)``.  A context
holds a recorder — build one per run, never share a default.
"""

from dataclasses import dataclass, replace


@dataclass
class ExecutionContext:
    """Everything cross-cutting about one query execution."""

    #: Optional repro.obs.Recording of this execution (events,
    #: per-tick series, metrics).
    recording: object = None
    #: Abort the run at this many simulated ticks (None = no deadline).
    deadline: int = None
    #: Fair-share weight under the multi-query service scheduler.
    priority: int = 1
    #: Tenant identity for scoped diagnostics and metric labels.
    query_id: str = None

    def replace(self, **changes):
        """Return a copy with *changes* applied."""
        return replace(self, **changes)

    def given(self, **settings):
        """A copy with every setting that is not None applied — how the
        plain ``submit(priority=, deadline=)`` spelling lands on a
        caller's context without erasing what it already says."""
        return self.replace(**{
            name: value for name, value in settings.items()
            if value is not None
        })
