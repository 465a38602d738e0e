"""The PGX.D/Async engine façade (paper step iv).

``PgxdAsyncEngine`` binds a distributed graph to a cluster configuration
and executes PGQL queries end to end: plan (steps i-iii, once per
distinct query — the engine keeps the compiled plan), instantiate one
:class:`QueryMachine` per simulated machine, run the simulator to
completion, and finalize the merged results.
"""

import copy
from collections import OrderedDict

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import QueryMetrics
from repro.cluster.simulator import Simulator
from repro.context import ExecutionContext
from repro.engine_api import Engine
from repro.errors import QueryAborted
from repro.graph.distributed import DistributedGraph
from repro.obs.feedback import build_execution_profile
from repro.pgql import as_query, parse_and_validate, to_pgql
from repro.pgql.ast import Query, SelectItem
from repro.plan import PlannerOptions, SchedulingPolicy, plan_query
from repro.plan.paths import expand_quantified_paths, has_quantified_paths
from repro.runtime.aggregation import finalize, finalize_grouped, finish
from repro.runtime.machine import QueryMachine

#: Entries an engine keeps in each of its prepared-query tables
#: (validated texts, compiled plans); least recently used goes first.
PREPARED_LIMIT = 64


def _recall(table, key, build):
    """``table[key]``, made by ``build()`` on a miss; *table* keeps its
    :data:`PREPARED_LIMIT` most recently used entries."""
    value = table.get(key)
    if value is None:
        value = table[key] = build()
        if len(table) > PREPARED_LIMIT:
            table.popitem(last=False)
    else:
        table.move_to_end(key)
    return value


class QueryResult:
    """The outcome of one query execution."""

    def __init__(self, result_set, metrics, plan, recording=None):
        self.result_set = result_set
        self.metrics = metrics
        self.plan = plan
        #: The run context's :class:`repro.obs.Recording` (events,
        #: per-tick series, metrics), or None when the caller
        #: brought none (the default).
        self.recording = recording
        self._execution_profile = None

    @property
    def stage_profile(self):
        """Per-stage counters (EXPLAIN ANALYZE), read off ``metrics``:
        list of dicts with ``visits`` (contexts entering the vertex
        function), ``passes`` (contexts surviving its checks), and
        ``remote_in`` (contexts shipped to the stage over the network).
        None for results without per-machine records (baselines)."""
        if self.plan is None or not self.metrics.per_machine:
            return None
        return self.metrics.stage_profile(("visits", "passes", "remote_in"))

    def execution_profile(self):
        """The plan-vs-actual :class:`~repro.obs.feedback.
        ExecutionProfile` (built once, on first use), or None for results
        without per-machine records."""
        if self._execution_profile is None and self.plan is not None \
                and self.metrics.per_machine:
            self._execution_profile = build_execution_profile(
                self.plan, self.metrics
            )
        return self._execution_profile

    def explain_analyze(self):
        """Stage plan annotated with runtime counters, as text.

        With a recorded run the report folds in the event stream:
        time to first result, distinct ticks each stage spent refused by
        flow control, quota-borrowing traffic, and the tick each stage
        became globally complete.
        """
        exec_profile = self.execution_profile()
        if exec_profile is None:
            return "no stage profile available"
        recording = self.recording
        profile = recording.profile() if recording is not None else None
        lines = []
        if profile is not None:
            if profile.truncation:
                lines.append(profile.truncation)
            ticks = profile.meta.get("ticks")
            if ticks is not None:
                lines.append("total: %d ticks" % ticks)
            if profile.first_result_tick is not None:
                lines.append(
                    "time to first result: tick %d"
                    % profile.first_result_tick
                )
        for stage, counters in zip(self.plan.stages, exec_profile.stages):
            line = (
                "Stage %d (%s, %s)  visits=%d  passes=%d  remote_in=%d  "
                "hop=%s  scanned=%d  emitted=%d"
                % (
                    stage.index,
                    stage.var,
                    stage.kind.value,
                    counters["visits"],
                    counters["passes"],
                    counters["remote_in"],
                    stage.hop.kind.value,
                    counters["scanned"],
                    counters["emitted"],
                )
            )
            if profile is not None:
                stats = profile.stage_stats(stage.index)
                completed = stats["completed_at"]
                line += (
                    "  blocked_ticks=%d  quota_req=%d  quota_granted=%d  "
                    "completed_at=%s"
                    % (
                        stats["blocked_ticks"],
                        stats["quota_requests"],
                        stats["quota_granted"],
                        "-" if completed is None else completed,
                    )
                )
            lines.append(line)
        extra = exec_profile.summary_lines()
        if extra:
            lines.append("")
            lines.extend(extra)
        return "\n".join(lines)

    @property
    def rows(self):
        return self.result_set.rows

    @property
    def columns(self):
        return self.result_set.columns

    def __len__(self):
        return len(self.result_set)

    def __repr__(self):
        return "QueryResult(rows=%d, ticks=%d)" % (
            len(self.result_set),
            self.metrics.ticks,
        )


class PgxdAsyncEngine(Engine):
    """A distributed pattern-matching engine over a simulated cluster.

    Typical use::

        engine = PgxdAsyncEngine(graph, ClusterConfig(num_machines=8))
        result = engine.query("SELECT a, b WHERE (a)-[:friend]->(b)")
        for row in result.rows:
            ...
    """

    def __init__(self, graph, config=None, partitioner=None,
                 debug_checks=False):
        self.config = config or ClusterConfig()
        self.dist_graph = DistributedGraph.for_cluster(
            graph, self.config.num_machines, partitioner=partitioner
        )
        self.graph = self.dist_graph.graph
        self.debug_checks = debug_checks
        #: Prepared queries (paper Figure 2: steps i-iii happen once per
        #: distinct query, only step iv per run): validated ASTs by
        #: text, compiled plans by everything ``plan_query`` reads.
        self._queries = OrderedDict()
        self._plans = OrderedDict()
        #: The statistics object the cached COST plans were priced under.
        self._priced_under = None

    def parsed(self, query):
        """As :meth:`Engine.parsed`, parsing each distinct text once
        (the Query of a text is shared — treat it as read-only)."""
        if isinstance(query, str):
            return _recall(self._queries, query,
                           lambda: parse_and_validate(query))
        return as_query(query)

    def plan(self, query, options=None):
        """The compiled plan of *query* (steps i-iii), without executing
        it — compiled once per distinct query while that stays among the
        :data:`PREPARED_LIMIT` most recently used.

        The key is everything :func:`~repro.plan.plan_query` reads and
        nothing else: the canonical text of the AST (never its identity
        — ASTs are mutable and caller-owned, so the plan compiles a
        private copy) and every field of *options* — ``feedback`` by the
        content of this query's corrections, and only where it is read,
        which is where the COST policy prices candidates.  There the
        graph's statistics object is one more input: plans priced under
        one the graph no longer holds are dropped.  The returned plan is
        shared — treat it as read-only; ``plan_query`` compiles a
        private one.
        """
        query = self.parsed(query)
        options = options or PlannerOptions()
        order = options.vertex_order
        corrections = ()
        if order is None and options.scheduling is SchedulingPolicy.COST:
            stats = self.graph.statistics()
            if stats is not self._priced_under:
                self._plans.clear()
                self._priced_under = stats
            if options.feedback is not None:
                corrections = tuple(sorted(
                    options.feedback.corrections(query, self.graph).items()
                ))
        key = (
            to_pgql(query), options.semantics, options.scheduling,
            options.use_common_neighbors,
            None if order is None else tuple(order), corrections,
        )
        return _recall(self._plans, key, lambda: plan_query(
            copy.deepcopy(query), self.graph, options
        ))

    def _run(self, query, options, context):
        return self.execute_plan(self.plan(query, options), context)

    def submit(self, query, options=None, priority=None, deadline=None,
               context=None):
        """Non-blocking submission through the multi-query service.

        Returns a :class:`~repro.engine_api.QueryHandle` scheduled on
        this engine's default :class:`~repro.service.QueryService`
        (created on first use).  Queries executed as a union of
        quantified-path expansions fall back to the synchronous default
        handle — they run as several plans and are not (yet) a single
        service scope.
        """
        parsed = self.parsed(query)
        submit = (super().submit if has_quantified_paths(parsed)
                  else self.service().submit)
        return submit(parsed, options, priority=priority,
                      deadline=deadline, context=context)

    def service(self, service_config=None):
        """This engine's lazily created default query service.

        Pass *service_config* on first call to shape admission and
        scoped budgets; later calls with a config replace the service
        only if no queries were ever submitted to the old one.
        """
        from repro.service import QueryService

        existing = getattr(self, "_service", None)
        if existing is None or (
            service_config is not None and not existing.ever_submitted
        ):
            self._service = QueryService(self, service_config)
        return self._service

    def execute_plan(self, plan, context=None):
        """Step iv: run a compiled plan on the simulated cluster.

        *context* carries the cross-cutting execution state (recording,
        deadline, query_id); see :class:`~repro.context.
        ExecutionContext`.
        """
        if context is None:
            context = ExecutionContext()
        elif not isinstance(context, ExecutionContext):
            raise TypeError(
                "execute_plan expects an ExecutionContext, got %r"
                % (context,)
            )
        simulator, machines = self.prepare_execution(plan, context)
        metrics = simulator.run()
        return self.finalize_execution(plan, machines, metrics, context)

    def prepare_execution(self, plan, context, config=None):
        """Instantiate the simulator and per-machine runtimes for *plan*.

        Returns ``(simulator, machines)`` ready to run — either via
        ``simulator.run()`` (the synchronous path) or stepped one tick
        at a time by the multi-query service.  *config* overrides the
        engine's cluster config (the service passes a scoped copy whose
        flow-control window is carved from the machine-wide limit).
        """
        if config is None:
            config = self.config
        simulator = Simulator(config, context)
        machines = []
        for machine_id in range(config.num_machines):
            machines.append(QueryMachine(
                plan,
                self.dist_graph,
                machine_id,
                simulator.api_for(machine_id),
                config,
                context,
                debug_checks=self.debug_checks,
            ))
        simulator.attach(machines)
        return simulator, machines

    def finalize_execution(self, plan, machines, metrics, context):
        """Merge per-machine state into the :class:`QueryResult`."""
        if plan.output.group is not None:
            # Merge the machines' partial aggregation states.
            merged = machines[0].collector
            for machine in machines[1:]:
                merged.merge(machine.collector)
            result_set = finalize_grouped(plan.output, merged)
        else:
            result_set = finalize(plan.output, [
                ctx for machine in machines for ctx in machine.collector.rows
            ])
        result = QueryResult(result_set, metrics, plan,
                             recording=context.recording)
        if context.recording is not None:
            context.recording.drift = result.execution_profile()
        return result


def execute_union(query, context, run_one):
    """Execute a variable-length-path query as a union of expansions.

    *run_one(query, context)* executes a single fixed-length Query (an
    engine's ``_run`` under fixed options).  Each expansion runs with
    ORDER BY / LIMIT / DISTINCT stripped and the ORDER BY expressions
    appended as hidden projection columns, so the union goes through
    the same DISTINCT / ORDER BY / LIMIT tail as any other result
    (:func:`~repro.runtime.aggregation.finish`).

    Every expansion runs under the caller's *context* — its full
    deadline and query id — recording from tick 0 into a recording of
    its own, which are laid out end to end in ``context.recording`` (an
    aborting expansion's included).
    """
    expansions = expand_quantified_paths(query)
    visible = len(query.select_items)

    all_rows = []
    columns = None
    combined = QueryMetrics()
    plan = None
    recording = context.recording

    def lay_out(scoped):
        # Expansions run back to back: offset each one's recording by
        # the ticks accumulated so far.
        if recording is not None:
            recording.extend(scoped.recording, tick_offset=combined.ticks)

    for expansion in expansions:
        stripped = Query(
            list(expansion.select_items)
            + [SelectItem(item.expr) for item in query.order_by],
            expansion.paths,
            expansion.constraints,
        )
        scoped = context if recording is None else context.replace(
            recording=recording.fresh()
        )
        try:
            result = run_one(stripped, scoped)
        except QueryAborted as aborted:
            # The caller sees the whole union's partial progress: the
            # finished expansions' metrics and recordings plus this
            # one's, on the union's timeline.
            lay_out(scoped)
            aborted.recording = recording
            if aborted.tick is not None:
                aborted.tick += combined.ticks
            if aborted.metrics is not None:
                combined.merge(aborted.metrics)
            aborted.metrics = combined
            raise
        if columns is None:
            columns = result.columns[:visible]
        # Expansions have different lengths; their per-stage counters
        # merge by stage position and report against the longest
        # expansion's plan, so EXPLAIN ANALYZE covers every stage.
        if plan is None or (result.metrics.per_machine
                            and result.plan.num_stages > plan.num_stages):
            plan = result.plan
        all_rows.extend(result.rows)
        lay_out(scoped)
        combined.merge(result.metrics)

    result_set = finish(query, columns, [
        (row[visible:], row[:visible]) for row in all_rows
    ])
    union = QueryResult(result_set, combined, plan, recording=recording)
    if combined.per_machine:
        # The expansions were planned separately, so no one estimate
        # covers the union's actuals: stage totals, per-machine rows and
        # skew only, without operator rows.
        union._execution_profile = build_execution_profile(
            plan, combined, estimates=False
        )
    if recording is not None:
        recording.drift = union._execution_profile
    return union


def run_query(graph, query, config=None, options=None, debug_checks=False,
              context=None):
    """One-shot convenience wrapper around :class:`PgxdAsyncEngine`.

    *context* is an optional :class:`~repro.context.ExecutionContext`
    passed through to :meth:`PgxdAsyncEngine.query`.
    """
    engine = PgxdAsyncEngine(graph, config=config, debug_checks=debug_checks)
    return engine.query(query, options=options, context=context)
