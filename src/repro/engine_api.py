"""The common engine contract shared by every query engine.

All four engines — the paper's :class:`~repro.runtime.engine.
PgxdAsyncEngine` and the three comparison baselines (:class:`~repro.
baselines.SharedMemoryEngine`, :class:`~repro.baselines.BftEngine`,
:class:`~repro.baselines.JoinEngine`) — implement one surface:

* construction takes ``(graph, config=None, **engine_specific)``, where
  *graph* is a :class:`~repro.graph.graph.PropertyGraph` (or, for the
  distributed engines, a pre-partitioned :class:`~repro.graph.
  distributed.DistributedGraph`) and *config* a :class:`~repro.cluster.
  config.ClusterConfig`;
* ``query(query, options=None, context=None)`` accepts PGQL text or a
  parsed :class:`~repro.pgql.ast.Query` plus optional :class:`~repro.
  plan.options.PlannerOptions` and :class:`~repro.context.
  ExecutionContext`, and returns a :class:`~repro.runtime.engine.
  QueryResult` with populated ``metrics``.  :meth:`Engine.query` is the
  one front door — parse, then either the engine's own ``_run`` or, for
  a quantified path, the union of its fixed-length expansions;
* ``submit(query, options=None, priority=None, deadline=None,
  context=None)`` is the non-blocking surface: it returns a
  :class:`QueryHandle` immediately, and the work happens no later than
  the first ``handle.result()`` call.  The base class ships
  a default :class:`SyncQueryHandle` that wraps the engine's own
  synchronous ``query()``, so every engine conforms for free;
  :class:`~repro.runtime.engine.PgxdAsyncEngine` overrides it to route
  through the concurrent multi-query service (``repro.service``).

An engine may reject *features* it does not implement (e.g. the join
baseline raises :class:`~repro.errors.PlanError` for aggregates), but
never the calling convention.  ``tests/test_engine_api.py`` holds the
conformance suite every engine must pass.
"""

import abc
import enum

from repro.context import ExecutionContext
from repro.pgql import as_query
from repro.plan.options import PlannerOptions
from repro.plan.paths import has_quantified_paths


class QueryStatus(enum.Enum):
    """Lifecycle of a submitted query (terminal: DONE/ABORTED/CANCELLED)."""

    #: Admitted but not yet scheduled (or, for synchronous engines, not
    #: yet forced by ``result()``).
    QUEUED = "queued"
    #: Actively executing on the cluster.
    RUNNING = "running"
    #: Finished; ``result()`` returns the QueryResult.
    DONE = "done"
    #: Terminated by deadline/crash; ``result()`` raises QueryAborted.
    ABORTED = "aborted"
    #: Terminated by ``cancel()``; ``result()`` raises QueryAborted.
    CANCELLED = "cancelled"

    @property
    def terminal(self):
        return self in (QueryStatus.DONE, QueryStatus.ABORTED,
                        QueryStatus.CANCELLED)


class QueryHandle:
    """A submitted query: poll its status, await or cancel its result.

    The contract every implementation honors:

    * ``status`` — a :class:`QueryStatus`;
    * ``result()`` — block (drive the execution) until terminal, then
      return the :class:`~repro.runtime.engine.QueryResult` or raise
      the run's :class:`~repro.errors.QueryAborted`;
    * ``cancel()`` — request termination; True when the request took
      effect (a terminal query can no longer be cancelled);
    * ``metrics`` — the result's metrics once DONE, the partial metrics
      of the abort once ABORTED/CANCELLED, None before;
    * ``query_id`` — stable identity within the submitting engine.
    """

    query_id = None

    @property
    def status(self):
        raise NotImplementedError

    @property
    def done(self):
        """True once the query reached a terminal status."""
        return self.status.terminal

    def result(self):
        raise NotImplementedError

    def cancel(self):
        raise NotImplementedError

    @property
    def metrics(self):
        raise NotImplementedError

    def __repr__(self):
        return "%s(query_id=%r, status=%s)" % (
            type(self).__name__, self.query_id, self.status.value,
        )


class SyncQueryHandle(QueryHandle):
    """Default handle wrapping a synchronous ``engine.query()`` call.

    Submission is lazy: the query runs on the first ``result()`` call,
    so ``submit()`` itself never blocks and ``cancel()`` before the
    first ``result()`` genuinely prevents execution.
    """

    def __init__(self, engine, query, options, context):
        self._engine = engine
        self._query = query
        self._options = options
        self._context = context
        self._result = None
        self._aborted = None
        self._status = QueryStatus.QUEUED
        self.query_id = context.query_id

    @property
    def status(self):
        return self._status

    def result(self):
        from repro.errors import QueryAborted

        if self._status is QueryStatus.CANCELLED:
            raise self._aborted
        if self._status is QueryStatus.ABORTED:
            raise self._aborted
        if self._status is QueryStatus.DONE:
            return self._result
        self._status = QueryStatus.RUNNING
        try:
            self._result = self._engine.query(self._query, self._options,
                                              self._context)
        except QueryAborted as aborted:
            self._status = QueryStatus.ABORTED
            self._aborted = aborted
            raise
        self._status = QueryStatus.DONE
        return self._result

    def cancel(self):
        from repro.errors import QueryAborted

        if self._status is not QueryStatus.QUEUED:
            return False
        self._status = QueryStatus.CANCELLED
        self._aborted = QueryAborted(
            "cancelled by caller before execution"
        )
        return True

    @property
    def metrics(self):
        if self._result is not None:
            return self._result.metrics
        if self._aborted is not None:
            return self._aborted.metrics
        return None


class Engine(abc.ABC):
    """Abstract base class for pattern-matching query engines."""

    #: The graph the engine answers queries over (a PropertyGraph).
    graph = None
    #: The ClusterConfig the engine executes under.
    config = None

    def query(self, query, options=None, context=None):
        """Execute *query* (PGQL text or parsed Query) end to end.

        Returns a :class:`~repro.runtime.engine.QueryResult`; *options*
        is a :class:`~repro.plan.options.PlannerOptions` or None.
        *context* is the :class:`~repro.context.ExecutionContext` the
        run is observed and bounded by (the caller's recorders and
        deadline); when omitted the run gets a fresh empty one.  A
        quantified path runs as the union of its fixed-length
        expansions, each under the same context.
        """
        query = self.parsed(query)
        options = options or PlannerOptions()
        if context is None:
            context = ExecutionContext()
        if has_quantified_paths(query):
            from repro.runtime.engine import execute_union

            return execute_union(
                query, context,
                lambda expansion, scoped: self._run(expansion, options,
                                                    scoped),
            )
        return self._run(query, options, context)

    def parsed(self, query):
        """*query* (PGQL text or a parsed Query) as a validated Query.

        The seam every entry point of an engine resolves its query
        argument through, so anything else is one ``TypeError``.
        """
        return as_query(query)

    @abc.abstractmethod
    def _run(self, query, options, context):
        """Plan and execute one fixed-length :class:`~repro.pgql.ast.
        Query` — the engine-specific part of :meth:`query`."""

    def submit(self, query, options=None, priority=None, deadline=None,
               context=None):
        """Submit *query* without blocking; returns a :class:`QueryHandle`.

        *context* brings caller-owned recorders; *priority* and
        *deadline* are the plain spelling of its two most used fields
        and win over it when given.  The default implementation wraps
        the engine's synchronous :meth:`query` in a lazy
        :class:`SyncQueryHandle` (priority is meaningless without a
        concurrent scheduler, and a deadline is honored only by engines
        whose ``query`` enforces one).
        """
        return SyncQueryHandle(self, query, options, (
            context or ExecutionContext()
        ).given(priority=priority, deadline=deadline,
                query_id=self._next_query_id()))

    def _next_query_id(self):
        seq = getattr(self, "_submit_seq", 0)
        self._submit_seq = seq + 1
        return "q%d" % seq

    def __repr__(self):
        machines = getattr(self.config, "num_machines", "?")
        return "%s(vertices=%s, machines=%s)" % (
            type(self).__name__,
            getattr(self.graph, "num_vertices", "?"),
            machines,
        )


def available_engines():
    """Name -> class map of every built-in engine (lazy imports)."""
    from repro.baselines import BftEngine, JoinEngine, SharedMemoryEngine
    from repro.runtime.engine import PgxdAsyncEngine

    return {
        "async": PgxdAsyncEngine,
        "shared-memory": SharedMemoryEngine,
        "bft": BftEngine,
        "join": JoinEngine,
    }
