"""Relational join baseline (the GraphFrames-style comparison of §2).

GraphFrames "implements distributed graph pattern matching on top of
Apache Spark's dataframes: one dataframe for vertices and another for
edges; a stage for matching an edge is naturally mapped into a join
operation."  This baseline reproduces that strategy over in-memory
tables: the pattern is evaluated operator by operator on a *binding
table* (one row per partial match), each NeighborMatch being a hash
join between the binding table and the edge table.

It shares the logical plan with the other engines but none of the
distributed machinery — the point of the comparison is the volume of
materialized intermediate rows (``peak_rows``), which the ablation
benches contrast with the DFT engine's bounded live state.
"""

from collections import defaultdict

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import QueryMetrics
from repro.engine_api import Engine
from repro.errors import PlanError
from repro.graph.types import Direction
from repro.pgql.expressions import EvalEnv, evaluate
from repro.plan.logical import (
    CartesianRootMatch,
    CommonNeighborMatch,
    EdgeCheck,
    NeighborMatch,
    RootVertexMatch,
    build_logical_plan,
)
from repro.plan.options import MatchSemantics
from repro.runtime.results import ResultSet


class _BindingEnv(EvalEnv):
    """Expression environment over one binding row (var -> entity id)."""

    def __init__(self, graph, vertex_vars):
        self._graph = graph
        self._vertex_vars = vertex_vars
        self._binding = None

    def bind(self, binding):
        self._binding = binding
        return self

    def entity_id(self, var):
        return self._binding[var]

    def prop(self, var, prop):
        if var in self._vertex_vars:
            return self._graph.vertex_prop(prop, self._binding[var])
        return self._graph.edge_prop(prop, self._binding[var])

    def label(self, var):
        if var in self._vertex_vars:
            return self._graph.vertex_label_name(self._binding[var])
        return self._graph.edge_label_name(self._binding[var])

    def has_prop(self, var, prop):
        if var in self._vertex_vars:
            return self._graph.has_vertex_prop(prop)
        return self._graph.has_edge_prop(prop)


class JoinEngine(Engine):
    """Evaluates patterns with eager hash joins over binding tables."""

    def __init__(self, graph, config=None):
        self.graph = graph
        # The join baseline is single-machine; the config only supplies
        # the unified Engine constructor shape (and the machine count
        # reported in metrics).
        self.config = config or ClusterConfig(num_machines=1)
        # Hash indexes of the edge table, built once per engine.
        self._by_src = defaultdict(list)
        self._by_dst = defaultdict(list)
        for eid in range(graph.num_edges):
            src, dst = graph.edge_endpoints(eid)
            self._by_src[src].append((eid, dst))
            self._by_dst[dst].append((eid, src))

    def _run(self, query, options, context):
        if options.semantics is not MatchSemantics.HOMOMORPHISM:
            raise PlanError("the join baseline implements homomorphism only")
        from repro.pgql.expressions import contains_aggregate

        if query.group_by or any(
            contains_aggregate(item.expr) for item in query.select_items
        ):
            raise PlanError("the join baseline does not aggregate")
        plan = build_logical_plan(query, vertex_order=options.vertex_order)
        return self._execute(query, plan)

    def _execute(self, query, plan):
        graph = self.graph
        vertex_vars = set(query.vertex_vars())
        env = _BindingEnv(graph, vertex_vars)
        label_lookup = graph.labels.lookup

        bindings = [{}]
        ops = 0
        peak_rows = 1
        for op in plan.ops:
            produced = []
            if isinstance(op, (RootVertexMatch, CartesianRootMatch)):
                wanted = None
                if op.label is not None:
                    wanted = label_lookup(op.label)
                for binding in bindings:
                    for vertex in graph.vertices():
                        ops += 1
                        if wanted is not None and \
                                graph.vertex_label(vertex) != wanted:
                            continue
                        if wanted is None and op.label is not None:
                            continue  # label absent from the graph
                        row = dict(binding)
                        row[op.var] = vertex
                        produced.append(row)
            elif isinstance(op, NeighborMatch):
                index = (
                    self._by_src
                    if op.direction is Direction.OUT
                    else self._by_dst
                )
                wanted = None
                if op.edge_label is not None:
                    wanted = label_lookup(op.edge_label)
                dst_label = None
                if op.dst_label is not None:
                    dst_label = label_lookup(op.dst_label)
                for binding in bindings:
                    src = binding[op.src_var]
                    for eid, target in index.get(src, ()):
                        ops += 1
                        if wanted is not None and \
                                graph.edge_label(eid) != wanted:
                            continue
                        if op.edge_label is not None and wanted is None:
                            continue
                        if op.dst_label is not None and (
                            dst_label is None
                            or graph.vertex_label(target) != dst_label
                        ):
                            continue
                        row = dict(binding)
                        row[op.dst_var] = target
                        row[op.edge_var] = eid
                        produced.append(row)
            elif isinstance(op, EdgeCheck):
                wanted = None
                if op.edge_label is not None:
                    wanted = label_lookup(op.edge_label)
                for binding in bindings:
                    src = binding[op.src_var]
                    dst = binding[op.dst_var]
                    for eid in graph.edges_between(src, dst):
                        ops += 1
                        if wanted is not None and \
                                graph.edge_label(eid) != wanted:
                            continue
                        if op.edge_label is not None and wanted is None:
                            continue
                        row = dict(binding)
                        row[op.edge_var] = eid
                        produced.append(row)
            elif isinstance(op, CommonNeighborMatch):
                raise PlanError(
                    "the join baseline needs plans without the "
                    "common-neighbor operator"
                )
            else:
                raise PlanError("unknown operator: %r" % (op,))

            if op.filters:
                kept = []
                for row in produced:
                    ops += 1
                    env.bind(row)
                    if all(
                        _predicate(conjunct, env) for conjunct in op.filters
                    ):
                        kept.append(row)
                produced = kept
            bindings = produced
            peak_rows = max(peak_rows, len(bindings))

        rows = []
        for binding in bindings:
            env.bind(binding)
            rows.append(
                tuple(
                    evaluate(item.expr, env)
                    for item in query.select_items
                )
            )
        columns = [
            item.alias if item.alias else repr(item.expr)
            for item in query.select_items
        ]
        metrics = QueryMetrics(
            ticks=ops,
            num_machines=1,
            total_ops=ops,
            num_results=len(rows),
            peak_buffered_contexts=peak_rows,
        )
        from repro.runtime.engine import QueryResult

        return QueryResult(ResultSet(columns, rows), metrics, plan)


def _predicate(expr, env):
    try:
        return bool(evaluate(expr, env))
    except (TypeError, ZeroDivisionError):
        return False
