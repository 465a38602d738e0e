"""Per-execution context threaded uniformly through the engine.

Three settings objects, three jobs: :class:`~repro.cluster.config.
ClusterConfig` describes the cluster, :class:`~repro.plan.options.
PlannerOptions` the plan, and an :class:`ExecutionContext` the *run* —
how one execution is observed and bounded.  The three share no field
name, and the context is the only place a run's recorders and deadline
can be said:

* ``tracer`` — a :class:`repro.obs.Tracer`, or None (tracing off);
* ``telemetry`` — a :class:`repro.obs.Telemetry`, or None (off);
* ``deadline`` — per-query deadline in simulated ticks (the run aborts
  with :class:`~repro.errors.QueryAborted` once the clock reaches it),
  or None;
* ``priority`` — fair-share weight when the query runs through the
  :class:`~repro.service.QueryService` scheduler (higher = more worker
  time per global tick); ignored by direct single-query execution;
* ``query_id`` — the tenant identity stamped on flow-state snapshots,
  abort diagnostics, and per-tenant telemetry labels; None for plain
  single-query runs.

The caller builds the recorders and keeps them, so a recording survives
an abort: ``ExecutionContext(tracer=Tracer(), deadline=500)``.  A
context holds recorders — build one per run, never share a default.
"""

from dataclasses import dataclass, replace


@dataclass
class ExecutionContext:
    """Everything cross-cutting about one query execution."""

    #: Optional repro.obs.Tracer recording this execution.
    tracer: object = None
    #: Optional repro.obs.Telemetry (registry + per-tick series).
    telemetry: object = None
    #: Abort the run at this many simulated ticks (None = no deadline).
    deadline: int = None
    #: Fair-share weight under the multi-query service scheduler.
    priority: int = 1
    #: Tenant identity for scoped diagnostics and telemetry labels.
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

    def with_fresh_recorders(self):
        """A copy recording into new, empty recorders shaped like this
        context's (one run per recorder: each starts at tick 0)."""
        changes = {}
        if self.tracer is not None:
            from repro.obs import Tracer

            changes["tracer"] = Tracer(max_events=self.tracer.max_events)
        if self.telemetry is not None:
            from repro.obs import Telemetry

            changes["telemetry"] = Telemetry(
                interval=self.telemetry.sampler.interval
            )
        return self.replace(**changes)
