"""Step iii — distributed plan to a compiled execution plan.

This stage "chooses the memory layout of the context object for each
stage and binds variables used by hop engines and filters to offsets in
the context or directly-accessible graph properties" and "performs
dependency analysis so that earlier stages keep enough context for later
stages to be able to complete without remote communication" (paper §3.1).

Concretely:

* A **context** is a plain Python tuple that grows as stages advance.
  :class:`ContextLayout` maps symbols — ``('v', var)`` vertex ids,
  ``('e', var)`` edge ids, ``('vp', var, prop)`` captured vertex
  properties, ``('vl', var)`` / ``('el', var)`` captured labels,
  ``('ep', var, prop)`` captured edge properties — to tuple offsets.
* **Dependency analysis** walks every expression together with its
  evaluation point (which variables are *directly* accessible there) and
  schedules a capture for each value that some later point needs.
* Filters are **generated as flat source** — one ``fn(ctx, vertex, eid)``
  per stage or hop over the graph's property columns (``fn.__source__``
  shows it) — so the hot path pays one call per filter and performs no
  name resolution.
"""

from repro.errors import PgqlValidationError, PlanError, UnknownPropertyError
from repro.graph.types import Direction
from repro.pgql.ast import (
    Aggregate,
    Binary,
    HasPropCall,
    IdCall,
    LabelCall,
    Literal,
    PropRef,
    Unary,
    VarRef,
)
from repro.pgql.expressions import EvalEnv
from repro.plan.distributed import Hop, HopKind, Visit, VisitKind
from repro.plan.options import MatchSemantics, PlannerOptions

#: Label requirement that can never be satisfied (the queried label does
#: not occur in the graph).  Distinct from NO_LABEL (-1).
IMPOSSIBLE_LABEL = -2

#: How generated predicates spell each PGQL binary operator whose meaning
#: ``pgql.expressions._BINARY_OPS`` defines (tested against it operator
#: by operator; AND/OR are emitted as ``bool(..) and/or bool(..)``).
PYTHON_OPERATORS = {
    "=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
}


class ContextLayout:
    """Symbol-to-offset mapping for the growing context tuple."""

    def __init__(self):
        self._slots = {}
        self.width = 0

    def alloc(self, symbol):
        if symbol in self._slots:
            raise PlanError("internal: symbol allocated twice: %r" % (symbol,))
        index = self.width
        self._slots[symbol] = index
        self.width += 1
        return index

    def slot(self, symbol):
        index = self._slots.get(symbol)
        if index is None:
            raise PlanError("internal: symbol not captured: %r" % (symbol,))
        return index

    def has(self, symbol):
        return symbol in self._slots

    def symbols(self):
        return dict(self._slots)


class CompiledHop:
    """Runtime-ready hop descriptor (one per stage)."""

    __slots__ = (
        "kind",
        "direction",
        "edge_label_id",
        "edge_filter",
        "edge_captures",
        "appends_target_id",
        "target_slot",
        "edge_req_orientation",
        "iso_edge_slots",
        "work_cost",
    )

    def __init__(self, kind):
        self.kind = kind
        self.direction = None
        self.edge_label_id = None
        self.edge_filter = None
        self.edge_captures = []
        self.appends_target_id = False
        self.target_slot = None
        self.edge_req_orientation = None
        self.iso_edge_slots = []
        #: Simulated micro-ops one hop step costs (grows with the number
        #: of edge filter conjuncts and captures it evaluates).
        self.work_cost = 1


class CompiledStage:
    """Runtime-ready stage descriptor."""

    __slots__ = (
        "index",
        "kind",
        "var",
        "label_id",
        "filter",
        "captures",
        "iso_vertex_slots",
        "forbidden_slots",
        "hop",
        "in_width",
        "out_width",
        "vertex_slot",
        "single_vertex_id",
        "work_cost",
        "op_index",
    )

    def __init__(self, index, kind, var):
        self.index = index
        self.kind = kind
        self.var = var
        #: Logical-operator index this stage lowers (None for inserted
        #: stages); joins actual pass counts against the cost model's
        #: per-operator row estimates (repro.obs.feedback).
        self.op_index = None
        self.label_id = None
        self.filter = None
        self.captures = []
        self.iso_vertex_slots = []
        self.forbidden_slots = []
        self.hop = None
        self.in_width = 0
        self.out_width = 0
        self.vertex_slot = None
        self.single_vertex_id = None
        #: Simulated micro-ops the vertex function costs (grows with the
        #: number of filter conjuncts and captures it evaluates).
        self.work_cost = 1

    def __repr__(self):
        return "CompiledStage(%d, %s, %s, hop=%s)" % (
            self.index,
            self.kind.value,
            self.var,
            self.hop.kind.value if self.hop else None,
        )


class OutputSpec:
    """Everything result post-processing needs (see runtime.results)."""

    def __init__(self, query, layout):
        self.select_items = query.select_items
        self.group_by = query.group_by
        self.having = query.having
        self.order_by = query.order_by
        self.limit = query.limit
        self.distinct = query.distinct
        self.layout = layout
        self.column_names = [
            item.alias if item.alias else _default_name(item.expr)
            for item in query.select_items
        ]

    @property
    def has_aggregates(self):
        from repro.pgql.expressions import contains_aggregate

        return bool(self.group_by) or any(
            contains_aggregate(item.expr) for item in self.select_items
        )


class ExecutionPlan:
    """The fully compiled plan the runtime executes."""

    def __init__(self, stages, layout, graph, query, options, output):
        self.stages = stages
        self.layout = layout
        self.graph = graph
        self.query = query
        self.options = options
        self.output = output
        #: The planner's :class:`~repro.plan.cost.PlanChoice` when a
        #: scheduling policy made an order/operator decision (None for
        #: appearance order or an explicit vertex_order).
        self.choice = None
        self._bulk_kernels = None

    @property
    def num_stages(self):
        return len(self.stages)

    @property
    def root(self):
        return self.stages[0]

    def bulk_kernels(self):
        """The plan's compiled bulk kernels (built once).

        Plan finalization is where per-stage specialization belongs —
        every check a kernel compiles in (label ids, iso slots, filters,
        captures) is fixed here.  The import is deferred so the plan
        layer stays import-independent of the runtime package until a
        machine actually asks for the fast path.
        """
        if self._bulk_kernels is None:
            from repro.runtime.kernels import compile_plan_kernels

            self._bulk_kernels = compile_plan_kernels(self)
        return self._bulk_kernels

    def describe(self):
        """Human-readable stage listing (mirrors paper Figure 2).

        When a scheduling policy produced a :class:`PlanChoice`, its
        summary — chosen order, estimated cost, the best rejected
        alternatives, per-variable selectivity scores — precedes the
        stage listing (the EXPLAIN surface).
        """
        lines = []
        if self.choice is not None:
            lines.append(self.choice.describe())
        for stage in self.stages:
            parts = ["Stage %d: (%s) %s" % (stage.index, stage.var,
                                            stage.kind.value)]
            if stage.filter is not None:
                parts.append("filter")
            if stage.captures:
                parts.append("captures=%d" % len(stage.captures))
            parts.append("hop=%s" % stage.hop.kind.value)
            lines.append("  ".join(parts))
        return "\n".join(lines)


def build_execution_plan(dplan, graph, options=None):
    """Compile *dplan* against *graph* into an :class:`ExecutionPlan`."""
    options = options or PlannerOptions()
    query = dplan.query
    visits = list(dplan.visits)
    if options.semantics is MatchSemantics.INDUCED:
        visits = _with_induced_checks(visits, query)

    vertex_vars = set(query.vertex_vars())
    edge_vars = set(query.edge_vars())
    needed = _needed_symbols(visits, query, vertex_vars, edge_vars, options)

    layout = ContextLayout()
    stages = []
    matched_vertex_slots = []  # slots of vertices matched so far (for iso)
    matched_edge_slots = []    # slots of edges matched so far (for iso)
    iso = options.semantics is not MatchSemantics.HOMOMORPHISM

    compiler = _Compiler(graph, layout, vertex_vars, edge_vars)

    for index, visit in enumerate(visits):
        stage = CompiledStage(index, visit.kind, visit.var)
        stage.op_index = getattr(visit, "op_index", None)

        if index == 0:
            stage.single_vertex_id = visit.single_vertex_id
            layout.alloc(("v", visit.var))

        # Width of the context as it arrives at this stage's vertex
        # function (i.e. after the incoming hop's appends).
        stage.in_width = layout.width
        stage.vertex_slot = layout.slot(("v", visit.var))

        if visit.kind is VisitKind.MATCH:
            if iso and matched_vertex_slots:
                stage.iso_vertex_slots = list(matched_vertex_slots)
            matched_vertex_slots.append(stage.vertex_slot)
            if visit.label is not None:
                label_id = graph.labels.lookup(visit.label)
                stage.label_id = (
                    IMPOSSIBLE_LABEL if label_id is None else label_id
                )
            # Schedule this vertex's captures (sorted for determinism).
            for prop in sorted(
                sym[2] for sym in needed
                if sym[0] == "vp" and sym[1] == visit.var
            ):
                layout.alloc(("vp", visit.var, prop))
                stage.captures.append(compiler.vertex_prop_capture(prop))
            if ("vl", visit.var) in needed:
                layout.alloc(("vl", visit.var))
                stage.captures.append(compiler.vertex_label_capture())

        if visit.filters:
            stage.filter = compiler.predicate(
                visit.filters, direct_vertex=visit.var
            )

        if getattr(visit, "forbidden_vars", None):
            stage.forbidden_slots = [
                layout.slot(("v", var)) for var in visit.forbidden_vars
            ]

        stage.work_cost = (
            1 + len(visit.filters) + len(stage.captures)
            + len(stage.forbidden_slots)
        )
        stage.hop = _compile_hop(
            visit, visits, index, compiler, layout, needed, graph,
            matched_edge_slots, iso,
        )
        stage.hop.work_cost = (
            1 + len(visit.hop.edge_filters) + len(stage.hop.edge_captures)
        )
        stage.out_width = layout.width
        stages.append(stage)

    output = OutputSpec(query, layout)
    return ExecutionPlan(stages, layout, graph, query, options, output)


def _compile_hop(visit, visits, index, compiler, layout, needed, graph,
                 matched_edge_slots, iso):
    hop = visit.hop
    compiled = CompiledHop(hop.kind)
    if hop.kind is HopKind.OUTPUT:
        return compiled

    edge_var = hop.edge_var
    if hop.edge_req is not None:
        edge_var = hop.edge_req.edge_var
        compiled.edge_req_orientation = hop.edge_req.orientation
        compiled.edge_label_id = _label_id(graph, hop.edge_req.edge_label)
    else:
        compiled.edge_label_id = _label_id(graph, hop.edge_label)
    compiled.direction = hop.direction

    if hop.edge_filters:
        compiled.edge_filter = compiler.predicate(
            hop.edge_filters, direct_vertex=visit.var, direct_edge=edge_var
        )

    if edge_var is not None:
        if iso:
            compiled.iso_edge_slots = list(matched_edge_slots)
        # Edge captures, in deterministic order: id, label, props.
        # (Isomorphism adds every ('e', var) to `needed` up front.)
        if ("e", edge_var) in needed:
            slot = layout.alloc(("e", edge_var))
            compiled.edge_captures.append(lambda eid: eid)
            matched_edge_slots.append(slot)
        if ("el", edge_var) in needed:
            layout.alloc(("el", edge_var))
            compiled.edge_captures.append(compiler.edge_label_capture())
        for prop in sorted(
            sym[2] for sym in needed
            if sym[0] == "ep" and sym[1] == edge_var
        ):
            layout.alloc(("ep", edge_var, prop))
            compiled.edge_captures.append(compiler.edge_prop_capture(prop))

    if hop.kind is HopKind.VERTEX:
        compiled.target_slot = layout.slot(("v", hop.target_var))
    elif hop.kind is HopKind.CN_COLLECT:
        compiled.target_slot = layout.slot(("v", hop.other_var))

    next_visit = visits[index + 1]
    if next_visit.kind is VisitKind.MATCH:
        compiled.appends_target_id = True
        layout.alloc(("v", next_visit.var))
    return compiled


def _label_id(graph, label_name):
    if label_name is None:
        return None
    label_id = graph.labels.lookup(label_name)
    return IMPOSSIBLE_LABEL if label_id is None else label_id


def _needed_symbols(visits, query, vertex_vars, edge_vars, options):
    """Dependency analysis: which values must be captured into contexts."""
    needed = set()
    points = []
    for visit in visits:
        for conjunct in visit.filters:
            points.append((conjunct, visit.var, None))
        hop = visit.hop
        if hop is None:
            continue
        hop_edge = hop.edge_var
        if hop.edge_req is not None:
            hop_edge = hop.edge_req.edge_var
        for conjunct in hop.edge_filters:
            points.append((conjunct, visit.var, hop_edge))
    for expr in _output_expressions(query):
        points.append((expr, None, None))

    for expr, direct_vertex, direct_edge in points:
        for node in expr.walk():
            _classify(node, direct_vertex, direct_edge, vertex_vars,
                      edge_vars, needed)

    # Vertex ids are always carried (routing, output, distinctness).
    for var in vertex_vars:
        needed.add(("v", var))
    if options.semantics is not MatchSemantics.HOMOMORPHISM:
        for var in edge_vars:
            needed.add(("e", var))
    return needed


def _classify(node, direct_vertex, direct_edge, vertex_vars, edge_vars,
              needed):
    if isinstance(node, PropRef):
        if node.var == direct_vertex or node.var == direct_edge:
            return
        if node.var in vertex_vars:
            needed.add(("vp", node.var, node.prop))
        elif node.var in edge_vars:
            needed.add(("ep", node.var, node.prop))
    elif isinstance(node, (VarRef, IdCall)):
        var = node.name if isinstance(node, VarRef) else node.var
        if var == direct_vertex or var == direct_edge:
            return
        if var in vertex_vars:
            needed.add(("v", var))
        elif var in edge_vars:
            needed.add(("e", var))
    elif isinstance(node, LabelCall):
        if node.var == direct_vertex or node.var == direct_edge:
            return
        if node.var in vertex_vars:
            needed.add(("vl", node.var))
        elif node.var in edge_vars:
            needed.add(("el", node.var))


def _output_expressions(query):
    for item in query.select_items:
        yield item.expr
    yield from query.group_by
    if query.having is not None:
        yield query.having
    for item in query.order_by:
        yield item.expr


def _with_induced_checks(visits, query):
    """Append verification inspections enforcing induced semantics.

    For every ordered pair of distinct pattern vertices with no pattern
    edge between them, the matched graph vertices must not be connected
    either.  Each source vertex with at least one pair to verify gets one
    extra inspection visit whose ``forbidden_vars`` the runtime checks
    against its local out-adjacency.
    """
    pattern_pairs = set()
    for path in query.paths:
        for index, edge in enumerate(path.edges):
            left = path.vertices[index].var
            right = path.vertices[index + 1].var
            if edge.direction is Direction.OUT:
                pattern_pairs.add((left, right))
            else:
                pattern_pairs.add((right, left))

    vars_ = query.vertex_vars()
    forbidden = {}
    for src in vars_:
        absent = [
            dst
            for dst in vars_
            if dst != src and (src, dst) not in pattern_pairs
        ]
        if absent:
            forbidden[src] = absent
    if not forbidden:
        return visits

    visits = list(visits)
    last = visits[-1]
    assert last.hop.kind is HopKind.OUTPUT
    for src, absent in forbidden.items():
        visits[-1].hop = Hop(HopKind.VERTEX, target_var=src)
        check = Visit(VisitKind.INSPECT, src)
        check.forbidden_vars = absent
        check.hop = Hop(HopKind.OUTPUT)
        visits.append(check)
    return visits


def _default_name(expr):
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, PropRef):
        return "%s.%s" % (expr.var, expr.prop)
    if isinstance(expr, IdCall):
        return "%s.id()" % expr.var
    if isinstance(expr, LabelCall):
        return "%s.label()" % expr.var
    if isinstance(expr, Aggregate):
        inner = "*" if expr.arg is None else _default_name(expr.arg)
        return "%s(%s)" % (expr.func.value, inner)
    return repr(expr)


# ----------------------------------------------------------------------
# Expression compilation
# ----------------------------------------------------------------------
def _bound(ns, value):
    """The fresh name *value* is bound to in the exec namespace *ns*."""
    name = "V%d" % len(ns)
    ns[name] = value
    return name


class _Compiler:
    """Compiles captures and filters to ``fn(ctx, vertex, eid)`` form."""

    def __init__(self, graph, layout, vertex_vars, edge_vars):
        self._graph = graph
        self._layout = layout
        self._vertex_vars = vertex_vars
        self._edge_vars = edge_vars

    # -- captures ------------------------------------------------------
    def vertex_prop_capture(self, prop):
        column = self._vertex_column(prop)
        return column.get

    def vertex_label_capture(self):
        return self._graph.vertex_label_name

    def edge_prop_capture(self, prop):
        column = self._edge_column(prop)
        return column.get

    def edge_label_capture(self):
        return self._graph.edge_label_name

    # -- predicates ----------------------------------------------------
    def predicate(self, conjuncts, direct_vertex=None, direct_edge=None):
        """Compile a conjunction into one generated boolean function.

        ``evaluate_predicate``'s semantics, emitted as flat source:
        every conjunct's truth value, short-circuiting left to right,
        with a type mismatch or a division by zero anywhere counting as
        a non-match.  Values (literals, column getters, label lookups)
        are bound by name in the function's namespace, never inlined.
        """
        ns = {}
        source = (
            "def predicate(ctx, vertex, eid):\n"
            "    try:\n"
            "        return %s\n"
            "    except (TypeError, ZeroDivisionError):\n"
            "        return False\n"
        ) % " and ".join(
            "bool(%s)" % self._emit(conjunct, direct_vertex, direct_edge, ns)
            for conjunct in conjuncts
        )
        exec(compile(source, "<repro-predicate>", "exec"), ns)
        predicate = ns["predicate"]
        predicate.__source__ = source  # introspection / debugging aid
        return predicate

    # -- expression nodes ----------------------------------------------
    def _emit(self, expr, direct_vertex, direct_edge, ns):
        """The Python source of *expr*, parenthesized; the values it
        needs are bound in *ns* under fresh names."""
        if isinstance(expr, Literal):
            return _bound(ns, expr.value)
        if isinstance(expr, (VarRef, IdCall)):
            var = expr.name if isinstance(expr, VarRef) else expr.var
            if var == direct_vertex:
                return "vertex"
            if var == direct_edge:
                return "eid"
            symbol = ("v", var) if var in self._vertex_vars else ("e", var)
            return "ctx[%d]" % self._layout.slot(symbol)
        if isinstance(expr, PropRef):
            if expr.var == direct_vertex:
                column = self._vertex_column(expr.prop)
                return "%s(vertex)" % _bound(ns, column.get)
            if expr.var == direct_edge:
                column = self._edge_column(expr.prop)
                return "%s(eid)" % _bound(ns, column.get)
            tag = "vp" if expr.var in self._vertex_vars else "ep"
            return "ctx[%d]" % self._layout.slot((tag, expr.var, expr.prop))
        if isinstance(expr, LabelCall):
            if expr.var == direct_vertex:
                return "%s(vertex)" % _bound(ns, self._graph.vertex_label_name)
            if expr.var == direct_edge:
                return "%s(eid)" % _bound(ns, self._graph.edge_label_name)
            tag = "vl" if expr.var in self._vertex_vars else "el"
            return "ctx[%d]" % self._layout.slot((tag, expr.var))
        if isinstance(expr, HasPropCall):
            if expr.var in self._vertex_vars:
                return _bound(ns, self._graph.has_vertex_prop(expr.prop))
            return _bound(ns, self._graph.has_edge_prop(expr.prop))
        if isinstance(expr, Unary):
            inner = self._emit(expr.operand, direct_vertex, direct_edge, ns)
            return "(%s %s)" % ("not" if expr.op == "NOT" else "-", inner)
        if isinstance(expr, Binary):
            lhs = self._emit(expr.lhs, direct_vertex, direct_edge, ns)
            rhs = self._emit(expr.rhs, direct_vertex, direct_edge, ns)
            if expr.op in ("AND", "OR"):
                return "(bool(%s) %s bool(%s))" % (lhs, expr.op.lower(), rhs)
            symbol = PYTHON_OPERATORS.get(expr.op)
            if symbol is None:
                raise PgqlValidationError(
                    "unknown binary operator %r" % expr.op
                )
            return "(%s %s %s)" % (lhs, symbol, rhs)
        if isinstance(expr, Aggregate):
            raise PlanError("aggregates cannot appear in compiled filters")
        raise PlanError("cannot compile expression: %r" % (expr,))

    # -- helpers ---------------------------------------------------------
    def _vertex_column(self, prop):
        try:
            return self._graph.vertex_properties.column(prop)
        except UnknownPropertyError:
            raise PlanError(
                "query references vertex property %r which no vertex in "
                "the graph defines" % prop
            )

    def _edge_column(self, prop):
        try:
            return self._graph.edge_properties.column(prop)
        except UnknownPropertyError:
            raise PlanError(
                "query references edge property %r which no edge in the "
                "graph defines" % prop
            )


class ContextRowEnv(EvalEnv):
    """Evaluate expressions against a completed output context tuple.

    Used by result post-processing (projection, grouping, ordering).
    """

    def __init__(self, layout, vertex_vars, edge_vars):
        self._layout = layout
        self._vertex_vars = vertex_vars
        self._edge_vars = edge_vars
        self._ctx = None

    def bind(self, ctx):
        self._ctx = ctx
        return self

    def entity_id(self, var):
        tag = "v" if var in self._vertex_vars else "e"
        return self._ctx[self._layout.slot((tag, var))]

    def prop(self, var, prop):
        tag = "vp" if var in self._vertex_vars else "ep"
        return self._ctx[self._layout.slot((tag, var, prop))]

    def label(self, var):
        tag = "vl" if var in self._vertex_vars else "el"
        return self._ctx[self._layout.slot((tag, var))]

    def has_prop(self, var, prop):
        tag = "vp" if var in self._vertex_vars else "ep"
        return self._layout.has((tag, var, prop))

    def row_projector(self, exprs):
        """Compile *exprs* into one ``project(ctx) -> tuple`` function.

        Handles the slot-lookup expression forms (variables, ids,
        captured properties and labels) plus literals — i.e. everything
        whose per-row evaluation is a plain tuple index.  Returns None
        when any expression needs the interpreted evaluator, in which
        case the caller keeps the per-row ``evaluate`` path.
        """
        parts = []
        ns = {}
        try:
            for n, expr in enumerate(exprs):
                if isinstance(expr, Literal):
                    ns["C%d" % n] = expr.value
                    parts.append("C%d" % n)
                    continue
                if isinstance(expr, (VarRef, IdCall)):
                    var = expr.name if isinstance(expr, VarRef) else expr.var
                    tag = "v" if var in self._vertex_vars else "e"
                    parts.append("ctx[%d]" % self._layout.slot((tag, var)))
                    continue
                if isinstance(expr, PropRef):
                    tag = "vp" if expr.var in self._vertex_vars else "ep"
                    parts.append("ctx[%d]" % self._layout.slot(
                        (tag, expr.var, expr.prop)
                    ))
                    continue
                if isinstance(expr, LabelCall):
                    tag = "vl" if expr.var in self._vertex_vars else "el"
                    parts.append("ctx[%d]" % self._layout.slot((tag, expr.var)))
                    continue
                return None
        except (KeyError, PlanError):
            return None  # missing slot: let the evaluator raise per-row
        source = "def project(ctx):\n    return (%s)\n" % (
            ", ".join(parts) + ("," if parts else "")
        )
        exec(compile(source, "<repro-projector>", "exec"), ns)
        return ns["project"]
