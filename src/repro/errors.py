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
    * ``detail`` — optional progress line: termination progress, unacked
      frames and, under the service, the co-tenants holding budget;
    * ``flow_state`` — per-machine flow-control/memory snapshot at abort
      time (deadline aborts included): a list of dicts with ``machine``,
      ``query_id``, ``occupancy`` (the nonzero ``(stage, dest) ->
      in-flight`` windows from :meth:`FlowControl.occupancy`),
      ``inflight_total`` and the ``cur_*`` gauges (``buffered_contexts``,
      ``live_frames``), for stuck-window debugging.  ``None`` when the
      simulator had no machines attached.

    :func:`stop_report` renders all of it.
    """

    #: The words the report of this stop starts with.
    title = "query aborted"

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
        # ``tick`` / ``detail`` / ``flow_state`` after the simulator raised.
        return stop_message(self)


class QueryStalled(RuntimeFault):
    """Nothing can make progress any more, yet the query is not done.

    The simulator raises it the moment every machine is idle with no
    message in flight and no timer, chaos event or deadline pending —
    a lost wake-up, a flow-control or a termination bug — instead of
    spinning until ``max_ticks``.  A :class:`RuntimeFault` (an engine
    defect, not a cancelled query), with the state a diagnosis needs:

    * ``reason``, ``tick`` — what stalled and the simulated tick;
    * ``detail`` — the termination progress summary, as on
      :class:`QueryAborted`;
    * ``flow_state`` — the per-machine snapshot of
      :class:`QueryAborted` ``.flow_state``;
    * ``sleep_state`` — per machine, ``QueryMachine.sleep_state()``:
      which workers are awake, whether housekeeping is armed, which
      sleeping workers are registered under which ``(stage, dest)``
      window, and which buffers are *stranded* (non-empty, their window
      open, but not marked flushable) — so the report names *which*
      worker slept through *which* window, or which buffer no flush
      will visit.
    """

    title = "query stalled"

    def __init__(self, reason, tick=None, detail=None, flow_state=None,
                 sleep_state=None):
        self.reason = reason
        self.tick = tick
        self.detail = detail
        self.flow_state = flow_state
        self.sleep_state = sleep_state
        super().__init__(reason)

    def __str__(self):
        return stop_message(self)


def _workers(workers, separator):
    return separator.join("w%d" % worker for worker in workers)


def _windows(by_window, render):
    """``s1->m2:<value>,...`` over a ``{(stage, dest): value}`` map."""
    return ",".join(
        "s%d->m%d:%s" % (stage, dest, render(value))
        for (stage, dest), value in sorted(by_window.items())
    )


def stop_report(stopped):
    """The report of a run that stopped short — a :class:`QueryAborted`
    or a :class:`QueryStalled` — as ``(label, text)`` lines.

    In order: the partial metrics (aborts), the detail, one ``flow``
    line per ``flow_state`` entry (tagged ``[qN]`` when the entries
    carry query ids, as under the service) and one ``sleep`` line per
    machine with a worker asleep (stalls).  The exceptions' ``str`` and
    the command line both render this list, each placing the tick in
    its own header.
    """
    lines = []
    metrics = getattr(stopped, "metrics", None)
    if metrics is not None:
        lines.append(("partial", metrics.summary()))
    if stopped.detail:
        lines.append(("detail", stopped.detail))
    flow_state = stopped.flow_state or ()
    scoped = any(entry.get("query_id") is not None for entry in flow_state)
    for entry in flow_state:
        text = "machine %d: buffered=%d frames=%d inflight=%d" % (
            entry["machine"], entry["buffered_contexts"],
            entry["live_frames"], entry["inflight_total"],
        )
        if scoped:
            text = "[%s] %s" % (entry.get("query_id") or "-", text)
        if entry["occupancy"]:
            text += " windows [%s]" % _windows(entry["occupancy"], str)
        lines.append(("flow", text))
    for entry in getattr(stopped, "sleep_state", None) or ():
        if (entry["parked"] or entry["stranded"]
                or len(entry["awake"]) < entry["workers"]):
            parked = _windows(entry["parked"],
                              lambda workers: _workers(workers, "+"))
            lines.append(("sleep", "m%d awake=[%s] housekeeping=%s "
                          "parked=[%s] stranded=[%s]" % (
                              entry["machine"],
                              _workers(entry["awake"], ","),
                              "on" if entry["housekeeping"] else "off",
                              parked,
                              _windows(entry["stranded"], str),
                          )))
    return lines


def stop_message(stopped):
    """:func:`stop_report` on one line: the exceptions' ``str``."""
    message = stopped.title
    if stopped.tick is not None:
        message += " at tick %d" % stopped.tick
    message += ": %s" % stopped.reason
    rest = ["%s: %s" % line for line in stop_report(stopped)]
    if rest:
        message += " (%s)" % "; ".join(rest)
    return message


class FlowControlError(RuntimeFault):
    """Flow-control invariants were violated (negative counter, ...)."""


class ClusterConfigError(ReproError):
    """Invalid cluster simulator configuration."""


class AnalysisError(ReproError):
    """The static analyzer (``repro lint``) was misused or hit an
    unparseable input: an unknown severity, a missing path, or a source
    file with a syntax error."""
