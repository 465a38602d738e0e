"""Concurrent multi-query service with scoped isolation (tentpole of PR 6).

One :class:`QueryService` admits, schedules, and runs many queries on a
single shared simulated deployment.  The design follows Banyan's scoped
dataflow: every admitted query becomes a :class:`QueryScope` — a
resource partition with

* a **scoped flow-control budget**: each tenant runs under its own
  per-(stage, dest) window, ``ServiceConfig.scope_window`` or by
  default ``max(1, window // max_concurrent)`` of the machine-wide
  ``ClusterConfig.flow_control_window``.  The default shares sum to at
  most the window only while ``max_concurrent <= window``; past that
  each share is still 1 (under the default window 4, ``max_concurrent=8``
  gives eight scopes 8 slots), and a pinned ``scope_window`` is checked
  only as >= 1.  Nothing enforces the sum yet: admitting by budget is
  ROADMAP item 8a;
* **query-id-scoped inboxes and buffers**: each scope's machines own
  their per-stage inboxes, outgoing bulk buffers, and termination
  wavefront, keyed under the scope's ``query_id`` on the shared hosts;
* a **private virtual clock**: a scope advances one *virtual* tick per
  scheduling grant.  The service's *global* clock counts grants, so
  co-tenancy shows up as time dilation — a query sharing the cluster
  with K others takes ~K× longer in global (wall) ticks while its
  virtual execution stays bit-identical to a solo run.  This is what
  makes the serial-vs-concurrent parity gate possible: rows, tick
  counts, and every deterministic metric of a scope are a pure function
  of (graph, query, scoped config, seed), independent of co-tenants;
* **fair-share worker time-slicing**: scheduling grants are issued by
  deterministic stride scheduling — each scope consumes grants at a
  rate proportional to its priority, with ties broken by submission
  order;
* **deadlines and cancellation** via the existing structured
  :class:`~repro.errors.QueryAborted`: a deadline is enforced by the
  scope's own simulator in virtual ticks, and ``cancel()`` aborts one
  scope mid-run without perturbing co-tenants (their virtual execution
  never observes the abort).

Abort diagnostics are tenant-aware: when a scope dies (deadline, chaos
crash, cancellation), the raised ``QueryAborted.flow_state`` carries
the flow/memory snapshot of *every* co-tenant scope, each entry tagged
with its ``query_id`` — answering "who held the budget when my query
timed out", not just the global occupancy gauges.
"""

from collections import deque
from dataclasses import dataclass

from repro.context import ExecutionContext
from repro.engine_api import QueryHandle, QueryStatus
from repro.errors import ClusterConfigError, PlanError, QueryAborted, \
    QueryStalled, RuntimeFault
from repro.plan.paths import has_quantified_paths

#: Stride numerator: divisible by every priority 1..8, so integer
#: strides stay exact for the practical priority range.
_STRIDE_SCALE = 840


@dataclass
class ServiceConfig:
    """Admission and isolation policy of one :class:`QueryService`."""

    #: Admission slots: how many scopes run concurrently; further
    #: submissions queue (FIFO) until a slot frees up.
    max_concurrent: int = 4
    #: Per-scope flow-control window carved out of the machine-wide
    #: ``flow_control_window``.  None: carve evenly across the slots,
    #: ``max(1, window // max_concurrent)``.  Pin it explicitly when
    #: comparing runs across different ``max_concurrent`` settings (the
    #: serial-vs-concurrent parity gate does).
    scope_window: int = None

    def __post_init__(self):
        if self.max_concurrent < 1:
            raise ClusterConfigError("max_concurrent must be >= 1")
        if self.scope_window is not None and self.scope_window < 1:
            raise ClusterConfigError("scope_window must be >= 1")


class QueryScope:
    """One admitted query: its runtime partition and lifecycle state."""

    def __init__(self, service, seq, plan, context, submitted_at):
        self.service = service
        self.seq = seq
        self.query_id = context.query_id
        self.plan = plan
        self.context = context
        self.priority = max(1, int(context.priority or 1))
        self.stride = _STRIDE_SCALE // min(self.priority, _STRIDE_SCALE)
        self.status = QueryStatus.QUEUED
        self.submitted_at = submitted_at
        self.started_at = None
        self.finished_at = None
        self.pass_value = 0
        self.simulator = None
        self.machines = None
        self._final_ticks = 0
        self.result = None
        self.aborted = None
        self._cancel_requested = False

    # -- lifecycle ------------------------------------------------------
    def start(self, engine, config, pass_floor, now):
        """Admit: instantiate the scope's machines on the shared hosts."""
        self.simulator, self.machines = engine.prepare_execution(
            self.plan, self.context, config=config
        )
        self.simulator.start()
        self.status = QueryStatus.RUNNING
        self.started_at = now
        self.pass_value = pass_floor

    def step(self):
        """Advance one virtual tick; True when the scope is terminal."""
        try:
            if self._cancel_requested:
                self.simulator.abort("cancelled by service caller")
            done = self.simulator.step()
        except QueryAborted as aborted:
            self.service._enrich_abort(self, aborted)
            self.aborted = aborted
            self.status = (
                QueryStatus.CANCELLED if self._cancel_requested
                else QueryStatus.ABORTED
            )
            return True
        if not done:
            return False
        metrics = self.simulator.finish()
        self.result = self.service.engine.finalize_execution(
            self.plan, self.machines, metrics, self.context
        )
        self.status = QueryStatus.DONE
        return True

    def release(self):
        """Drop a terminal scope's runtime partition — its simulator and
        machines are the bulk of a deployment's per-query memory — and
        keep the virtual tick it stopped at."""
        self._final_ticks = self.simulator.now
        self.simulator = self.machines = None

    @property
    def virtual_ticks(self):
        if self.simulator is not None:
            return self.simulator.now
        return self._final_ticks

    @property
    def latency(self):
        """Submit-to-terminal latency in global ticks (None while live)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def admission_wait(self):
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


class ServiceHandle(QueryHandle):
    """Handle for a query scheduled on a :class:`QueryService`."""

    def __init__(self, service, scope):
        self._service = service
        self._scope = scope
        self.query_id = scope.query_id

    @property
    def status(self):
        return self._scope.status

    def result(self):
        """Drive the service until this query is terminal; then yield."""
        scope = self._scope
        if not scope.status.terminal:
            self._service.run_until(scope.query_id)
        if scope.aborted is not None:
            raise scope.aborted
        return scope.result

    def cancel(self):
        return self._service.cancel(self.query_id)

    @property
    def metrics(self):
        if self._scope.result is not None:
            return self._scope.result.metrics
        if self._scope.aborted is not None:
            return self._scope.aborted.metrics
        return None


class QueryService:
    """Admission + fair-share scheduling of scopes on one deployment."""

    def __init__(self, engine, service_config=None):
        self.engine = engine
        self.config = service_config or ServiceConfig()
        base_window = engine.config.flow_control_window
        window = self.config.scope_window
        if window is None:
            window = max(1, base_window // self.config.max_concurrent)
        #: The scoped cluster config every admitted scope executes
        #: under: identical deployment shape, flow-control budget carved
        #: from the machine-wide window.
        self.scope_config = engine.config.replace(
            flow_control_window=window
        )
        #: Global service clock: one tick per scheduling grant.
        self.now = 0
        self.ever_submitted = False
        self.peak_active = 0
        self._seq = 0
        self._scopes = {}
        self._queue = deque()
        self._active = []
        self._pass_clock = 0

    # -- introspection --------------------------------------------------
    @property
    def active_scopes(self):
        return tuple(self._active)

    def scope(self, query_id):
        return self._scopes[query_id]

    @property
    def idle(self):
        """No scope is running or awaiting admission."""
        return not self._active and not self._queue

    # -- submission -----------------------------------------------------
    def submit(self, query, options=None, priority=None, deadline=None,
               query_id=None, context=None):
        """Admit *query*; returns a :class:`ServiceHandle` immediately.

        *context* is the caller's :class:`~repro.context.
        ExecutionContext` (its recorders end up on the result or, being
        the caller's, survive an abort); *priority* and *deadline* are
        the plain spelling of two of its fields and win over it when
        given.  *priority* weights the fair-share scheduler (a
        priority-2 scope receives twice the scheduling grants of a
        priority-1 one); *deadline* is a per-query budget in virtual
        ticks, enforced by the scope's own simulator through the
        existing :class:`~repro.errors.QueryAborted` machinery.
        """
        parsed = self.engine.parsed(query)
        if has_quantified_paths(parsed):
            raise PlanError(
                "quantified-path queries execute as a union of "
                "expansions, not a single service scope; use "
                "engine.query()/engine.submit() which handle the union"
            )
        plan = self.engine.plan(parsed, options)
        if query_id is None:
            query_id = "q%d" % self._seq
        if query_id in self._scopes:
            raise RuntimeFault("duplicate query_id %r" % query_id)
        context = (context or ExecutionContext()).given(
            priority=priority, deadline=deadline, query_id=query_id
        )
        scope = QueryScope(self, self._seq, plan, context,
                           submitted_at=self.now)
        self._seq += 1
        self.ever_submitted = True
        self._scopes[query_id] = scope
        self._queue.append(scope)
        self._admit()
        return ServiceHandle(self, scope)

    # -- scheduling -----------------------------------------------------
    def _admit(self):
        while self._queue and len(self._active) < self.config.max_concurrent:
            scope = self._queue.popleft()
            if scope.status.terminal:
                continue  # cancelled while queued
            scope.start(self.engine, self.scope_config, self._pass_clock,
                        self.now)
            self._active.append(scope)
        if len(self._active) > self.peak_active:
            self.peak_active = len(self._active)

    def step(self):
        """Issue one scheduling grant (one global tick).

        Picks the runnable scope with the lowest stride pass value
        (ties: earliest submission), advances it one virtual tick, and
        retires it if that made it terminal.  Returns False when the
        service is idle — nothing active and nothing queued.
        """
        if not self._active:
            if not self._queue:
                return False
            self._admit()
        scope = min(self._active, key=lambda s: (s.pass_value, s.seq))
        self.now += 1
        self._pass_clock = scope.pass_value
        scope.pass_value += scope.stride
        if scope.step():
            self._retire(scope)
        return True

    def _retire(self, scope):
        scope.finished_at = self.now
        scope.release()
        self._active.remove(scope)
        self._admit()

    def drain(self):
        """Run until every submitted scope is terminal."""
        while self.step():
            pass

    def run_until(self, query_id):
        """Run until *query_id* is terminal (co-tenants keep their fair
        share of grants along the way)."""
        scope = self._scopes[query_id]
        while not scope.status.terminal:
            if not self.step():
                reason = "service idle but query %r not terminal" % query_id
                if scope.simulator is not None:
                    raise scope.simulator.stalled(reason)
                raise QueryStalled(reason, tick=self.now)

    # -- cancellation ---------------------------------------------------
    def cancel(self, query_id):
        """Cancel one tenant; co-tenant scopes are untouched.

        A queued scope is cancelled immediately; a running scope aborts
        on its next scheduling grant through the structured
        ``QueryAborted`` path (partial metrics, scoped flow state).
        Returns False when the scope is already terminal.
        """
        scope = self._scopes[query_id]
        if scope.status.terminal:
            return False
        if scope.status is QueryStatus.QUEUED:
            scope.aborted = QueryAborted(
                "cancelled by service caller while queued"
            )
            scope.status = QueryStatus.CANCELLED
            scope.finished_at = self.now
            return True
        scope._cancel_requested = True
        return True

    # -- diagnostics ----------------------------------------------------
    def _enrich_abort(self, aborting_scope, aborted):
        """Attach every co-tenant's scoped flow state to an abort.

        The per-machine entries already carry the aborting scope's
        ``query_id``; this extends ``flow_state`` with the co-tenants'
        snapshots and names the budget holders in ``detail`` so a
        timeout can be attributed to the tenants that held window
        capacity at abort time.
        """
        flow_state = list(aborted.flow_state or ())
        holders = []
        for scope in self._active:
            if scope is aborting_scope or scope.simulator is None:
                continue
            entries = scope.simulator.flow_state()
            flow_state.extend(entries)
            inflight = sum(entry["inflight_total"] for entry in entries)
            buffered = sum(
                entry["buffered_contexts"] for entry in entries
            )
            if inflight or buffered:
                holders.append(
                    "%s inflight=%d buffered=%d"
                    % (scope.query_id, inflight, buffered)
                )
        aborted.flow_state = flow_state
        summary = (
            "co-tenants holding budget: " + ", ".join(holders)
            if holders
            else "no co-tenant held budget at abort time"
        )
        if self._active and len(self._active) > 1 or holders:
            aborted.detail = (
                "%s; %s" % (aborted.detail, summary)
                if aborted.detail else summary
            )

    def stats(self):
        """Per-tenant outcome table (terminal scopes only)."""
        rows = []
        for scope in sorted(self._scopes.values(), key=lambda s: s.seq):
            rows.append({
                "query_id": scope.query_id,
                "status": scope.status.value,
                "priority": scope.priority,
                "submitted_at": scope.submitted_at,
                "admission_wait": scope.admission_wait,
                "latency": scope.latency,
                "virtual_ticks": scope.virtual_ticks,
                "rows": (
                    len(scope.result.rows)
                    if scope.result is not None else None
                ),
            })
        return rows
