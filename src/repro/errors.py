"""Exception hierarchy for the PGX.D/Async reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single except clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Base class for graph construction and access errors."""


class UnknownPropertyError(GraphError):
    """A vertex or edge property name does not exist in the schema."""

    def __init__(self, kind, name):
        self.kind = kind
        self.name = name
        super().__init__("unknown %s property: %r" % (kind, name))


class PropertyTypeError(GraphError):
    """A property value does not match the declared property type."""


class InvalidVertexError(GraphError):
    """A vertex id is out of range or not valid in the current graph."""


class InvalidEdgeError(GraphError):
    """An edge id is out of range or not valid in the current graph."""


class RemoteAccessError(GraphError):
    """A machine attempted to read data owned by a different machine.

    The distributed runtime must never touch remote vertex properties or
    adjacency directly; it has to ship the computation context instead.
    This error surfaces planner or runtime bugs that violate that rule.
    """


class PgqlError(ReproError):
    """Base class for PGQL front-end errors."""


class PgqlSyntaxError(PgqlError):
    """The query text could not be tokenized or parsed."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = "%s (at offset %d)" % (message, position)
        super().__init__(message)


class PgqlValidationError(PgqlError):
    """The query parsed but is semantically invalid (unknown variable,
    type mismatch, aggregate misuse, ...)."""


class PlanError(ReproError):
    """Query planning failed (disconnected pattern, unsupported shape, ...)."""


class RuntimeFault(ReproError):
    """The distributed runtime reached an inconsistent state."""


class QueryAborted(ReproError):
    """A query was cancelled before completion instead of hanging.

    Raised for unrecoverable faults (a crashed machine) and exceeded
    query deadlines.  Carries everything the runtime knew at abort time:

    * ``reason`` — human-readable cause;
    * ``tick`` — the simulated tick the abort happened on;
    * ``metrics`` — partial :class:`~repro.cluster.metrics.QueryMetrics`
      collected from the machines at abort time (may be ``None``);
    * ``recording`` — the :class:`~repro.obs.Recording` of the run's
      context, when the caller brought one (the caller's own object,
      sealed with the run up to the abort);
    * ``detail`` — optional termination/flow-control progress snapshot;
    * ``flow_state`` — per-machine flow-control/memory snapshot at abort
      time (deadline aborts included): a list of dicts with ``machine``,
      ``occupancy`` (the nonzero ``(stage, dest) -> in-flight`` windows
      from :meth:`FlowControl.occupancy`), and the ``cur_*`` gauges
      (``buffered_contexts``, ``live_frames``), for stuck-window
      debugging.  ``None`` when the simulator had no machines attached.
    """

    def __init__(self, reason, tick=None, metrics=None, recording=None,
                 detail=None, flow_state=None):
        self.reason = reason
        self.tick = tick
        self.metrics = metrics
        self.recording = recording
        self.detail = detail
        self.flow_state = flow_state
        super().__init__(reason)

    def __str__(self):
        # Rendered on demand: the union executor and the service amend
        # ``tick`` / ``detail`` after the simulator raised.
        message = "query aborted"
        if self.tick is not None:
            message += " at tick %d" % self.tick
        message += ": %s" % self.reason
        if self.detail:
            message += " (%s)" % self.detail
        return message


class QueryStalled(RuntimeFault):
    """Nothing can make progress any more, yet the query is not done.

    The simulator raises it the moment every machine is idle with no
    message in flight and no timer, chaos event or deadline pending —
    a lost wake-up, a flow-control or a termination bug — instead of
    spinning until ``max_ticks``.  A :class:`RuntimeFault` (an engine
    defect, not a cancelled query), with the state a diagnosis needs:

    * ``reason``, ``tick`` — what stalled and the simulated tick;
    * ``detail`` — the termination progress summary and a one-line
      rendering of the stuck windows, as on :class:`QueryAborted`;
    * ``flow_state`` — the per-machine snapshot of
      :class:`QueryAborted` ``.flow_state``;
    * ``sleep_state`` — per machine, ``QueryMachine.sleep_state()``:
      which workers are awake, whether housekeeping is armed, and which
      sleeping workers are registered under which ``(stage, dest)``
      window — so the message names *which* worker slept through
      *which* window.
    """

    def __init__(self, reason, tick=None, detail=None, flow_state=None,
                 sleep_state=None):
        self.reason = reason
        self.tick = tick
        self.detail = detail
        self.flow_state = flow_state
        self.sleep_state = sleep_state
        super().__init__(reason)

    def describe_sleep(self):
        """One line per machine with anything asleep, or ``[]``."""
        lines = []
        for entry in self.sleep_state or ():
            if not entry["parked"] and len(entry["awake"]) == entry["workers"]:
                continue
            windows = ", ".join(
                "s%d->m%d:%s" % (
                    stage, dest, "+".join("w%d" % w for w in workers)
                )
                for (stage, dest), workers in sorted(entry["parked"].items())
            )
            lines.append(
                "m%d awake=[%s] housekeeping=%s parked=[%s]" % (
                    entry["machine"],
                    ",".join("w%d" % w for w in entry["awake"]),
                    "on" if entry["housekeeping"] else "off",
                    windows,
                )
            )
        return lines

    def __str__(self):
        message = "query stalled"
        if self.tick is not None:
            message += " at tick %d" % self.tick
        message += ": %s" % self.reason
        parts = [self.detail] if self.detail else []
        sleep = self.describe_sleep()
        if sleep:
            parts.append("sleep: " + " | ".join(sleep))
        if parts:
            message += " (%s)" % "; ".join(parts)
        return message


class FlowControlError(RuntimeFault):
    """Flow-control invariants were violated (negative counter, ...)."""


class ClusterConfigError(ReproError):
    """Invalid cluster simulator configuration."""


class TelemetryError(ReproError):
    """Invalid use of the live-telemetry metrics registry."""


class AnalysisError(ReproError):
    """The static analyzer (``repro lint``) was misused or hit an
    unparseable input: bad severity, malformed baseline file, missing
    path, or a source file with a syntax error."""
