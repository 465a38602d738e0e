"""Unit tests for step iii: context layout, captures, compiled filters."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PgqlValidationError, PlanError
from repro.graph import GraphBuilder
from repro.pgql.ast import (
    Aggregate,
    AggregateFunc,
    Binary,
    HasPropCall,
    IdCall,
    LabelCall,
    Literal,
    PropRef,
    Unary,
    VarRef,
)
from repro.pgql.expressions import _BINARY_OPS, MappingEnv, \
    evaluate_predicate
from repro.plan import (
    IMPOSSIBLE_LABEL,
    ContextLayout,
    HopKind,
    MatchSemantics,
    PlannerOptions,
    plan_query,
)
from repro.plan.execution import PYTHON_OPERATORS, _Compiler
from repro.workloads.bsbm import generate_bsbm, query5_parts


class TestContextLayout:
    def test_vertex_ids_always_captured(self, social_graph):
        plan = plan_query("SELECT a WHERE (a)-[]->(b)", social_graph)
        layout = plan.layout
        assert layout.has(("v", "a"))
        assert layout.has(("v", "b"))

    def test_paper_figure2_captures(self, random_graph):
        """Stage 0 captures a.type; stage 1 captures b.name/b.type."""
        plan = plan_query(
            "SELECT a, b.value WHERE (a)-[]->(b), (a)-[]->(c), "
            "a.id() < 17, a.type = b.type, b.type != c.type",
            random_graph,
        )
        layout = plan.layout
        # a.type captured at stage 0 for stage 1's filter.
        assert layout.has(("vp", "a", "type"))
        # b.value captured at stage 1 for output; b.type for stage 3.
        assert layout.has(("vp", "b", "value"))
        assert layout.has(("vp", "b", "type"))
        # c needs no captures beyond its id.
        assert not layout.has(("vp", "c", "type"))
        stage_a, stage_b = plan.stages[0], plan.stages[1]
        assert len(stage_a.captures) == 1
        assert len(stage_b.captures) == 2

    def test_no_capture_when_direct(self, random_graph):
        plan = plan_query(
            "SELECT a WHERE (a WITH type = 1)-[]->(b WITH type = 2)",
            random_graph,
        )
        # Each filter reads its own stage's vertex directly.
        assert not plan.layout.has(("vp", "a", "type"))
        assert not plan.layout.has(("vp", "b", "type"))

    def test_edge_prop_capture(self, social_graph):
        plan = plan_query(
            "SELECT e.since WHERE (a)-[e:friend]->(b)", social_graph
        )
        assert plan.layout.has(("ep", "e", "since"))
        assert plan.stages[0].hop.edge_captures

    def test_edge_id_capture_only_when_needed(self, social_graph):
        plan = plan_query("SELECT a WHERE (a)-[e]->(b)", social_graph)
        assert not plan.layout.has(("e", "e"))
        plan = plan_query("SELECT e WHERE (a)-[e]->(b)", social_graph)
        assert plan.layout.has(("e", "e"))

    def test_label_capture(self, social_graph):
        plan = plan_query(
            "SELECT a.label() WHERE (a)-[]->(b)", social_graph
        )
        assert plan.layout.has(("vl", "a"))

    def test_widths_are_monotone(self, random_graph):
        plan = plan_query(
            "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), a.type = c.type",
            random_graph,
        )
        widths = [(s.in_width, s.out_width) for s in plan.stages]
        for in_width, out_width in widths:
            assert in_width <= out_width
        for earlier, later in zip(widths, widths[1:]):
            assert earlier[1] <= later[0]


class TestLabelCompilation:
    def test_known_label(self, social_graph):
        plan = plan_query("SELECT a WHERE (a:person)-[]->(b)", social_graph)
        assert plan.stages[0].label_id == social_graph.labels.lookup("person")

    def test_unknown_label_is_impossible(self, social_graph):
        plan = plan_query("SELECT a WHERE (a:ghost)-[]->(b)", social_graph)
        assert plan.stages[0].label_id == IMPOSSIBLE_LABEL

    def test_unknown_edge_label_is_impossible(self, social_graph):
        plan = plan_query("SELECT a WHERE (a)-[:ghost]->(b)", social_graph)
        assert plan.stages[0].hop.edge_label_id == IMPOSSIBLE_LABEL


class TestCompiledFilters:
    def test_missing_property_rejected_at_plan_time(self, social_graph):
        with pytest.raises(PlanError):
            plan_query("SELECT a WHERE (a WITH nonexistent > 3)",
                       social_graph)

    def test_missing_edge_property_rejected(self, social_graph):
        with pytest.raises(PlanError):
            plan_query("SELECT a WHERE (a)-[e]->(b), e.ghost = 1",
                       social_graph)

    def test_filter_closure_runs(self, social_graph):
        plan = plan_query("SELECT a WHERE (a WITH age > 18)", social_graph)
        stage = plan.stages[0]
        assert stage.filter((0,), 0, -1) is True    # age 31
        assert stage.filter((1,), 1, -1) is False   # age 17


# ----------------------------------------------------------------------
# Generated predicates == evaluate_predicate
# ----------------------------------------------------------------------
#: One property of each type, on vertices and on edges alike; the rows
#: hold zeros (division), negatives, nan/inf, the empty string.
PROPS = ("n", "x", "s", "flag")
ROWS = [
    (0, 0.0, "", False),
    (3, -1.5, "text", True),
    (-2, float("inf"), "a", False),
    (2, float("nan"), "Zed", True),
]


def _typed_graph():
    builder = GraphBuilder()
    for index, row in enumerate(ROWS):
        builder.add_vertex(label="odd" if index % 2 else None,
                           **dict(zip(PROPS, row)))
    for index, row in enumerate(ROWS + ROWS[::-1]):
        builder.add_edge(index % 4, (3 * index + 1) % 4,
                         label=None if index % 3 else "tie",
                         **dict(zip(PROPS, row)))
    return builder.build()


class PredicateHarness:
    """A filter position with every kind of binding in reach: ``a`` the
    direct vertex, ``e`` the direct edge, ``b``/``f`` a vertex and an
    edge matched earlier, whose id, label and properties sit in context
    slots."""

    def __init__(self):
        self.graph = graph = _typed_graph()
        layout = ContextLayout()
        for symbol in [("v", "b"), ("e", "f"), ("vl", "b"), ("el", "f")]:
            layout.alloc(symbol)
        for prop in PROPS:
            layout.alloc(("vp", "b", prop))
            layout.alloc(("ep", "f", prop))
        self.compiler = _Compiler(graph, layout, {"a", "b"}, {"e", "f"})
        self.vertex_read = (graph.vertex_label_name,
                            graph.vertex_properties)
        self.edge_read = (graph.edge_label_name, graph.edge_properties)

    def predicate(self, conjuncts):
        return self.compiler.predicate(conjuncts, direct_vertex="a",
                                       direct_edge="e")

    def bindings(self, a, e, b, f):
        """``(ctx, env)``: the context tuple the generated predicate
        reads and the equivalent interpreter environment."""
        ids, labels, props = {}, {}, {}
        for var, entity, (label_of, table) in [
                ("a", a, self.vertex_read), ("b", b, self.vertex_read),
                ("e", e, self.edge_read), ("f", f, self.edge_read)]:
            ids[var] = entity
            labels[var] = label_of(entity)
            for prop in PROPS:
                props[(var, prop)] = table.column(prop).get(entity)
        ctx = [b, f, labels["b"], labels["f"]]
        for prop in PROPS:
            ctx += [props[("b", prop)], props[("f", prop)]]
        return tuple(ctx), MappingEnv(ids, props, labels)


HARNESS = PredicateHarness()

_vars = st.sampled_from("abef")
_leaves = st.one_of(
    st.integers(min_value=-3, max_value=3).map(Literal),
    st.sampled_from([0.0, -1.5, 2.5, float("nan"), float("inf")])
    .map(Literal),
    st.sampled_from(["", "a", "text"]).map(Literal),
    st.booleans().map(Literal),
    st.builds(VarRef, _vars),
    st.builds(IdCall, _vars),
    st.builds(LabelCall, _vars),
    st.builds(PropRef, _vars, st.sampled_from(PROPS)),
    st.builds(HasPropCall, _vars, st.sampled_from(["n", "ghost"])),
)
_expressions = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Binary,
                  st.sampled_from(sorted(_BINARY_OPS) + ["AND", "OR"]),
                  children, children),
        st.builds(Unary, st.sampled_from(["NOT", "-"]), children),
    ),
    max_leaves=8,
)
_vertex_ids = st.integers(min_value=0, max_value=len(ROWS) - 1)
_edge_ids = st.integers(min_value=0, max_value=2 * len(ROWS) - 1)


def _outcome(func, *args):
    try:
        return func(*args)
    except (TypeError, ZeroDivisionError) as exc:
        return type(exc)


class TestGeneratedPredicates:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_expressions, min_size=1, max_size=3),
           _vertex_ids, _edge_ids, _vertex_ids, _edge_ids)
    def test_equals_evaluate_predicate(self, conjuncts, a, e, b, f):
        """Mixed-type comparisons, ``x / 0``, ``-'text'``, nested
        comparisons such as ``(a < b) = c``: whatever the interpreter
        answers, the generated function answers, and neither raises."""
        ctx, env = HARNESS.bindings(a, e, b, f)
        conjunction = conjuncts[0]
        for conjunct in conjuncts[1:]:
            conjunction = Binary("AND", conjunction, conjunct)
        answer = HARNESS.predicate(conjuncts)(ctx, a, e)
        assert answer is evaluate_predicate(conjunction, env)

    def test_emitted_operators_mean_what_binary_ops_define(self):
        assert sorted(PYTHON_OPERATORS) == sorted(_BINARY_OPS)
        operands = [0, 3, -2, 2.5, float("inf"), "", "text", True]
        for op, symbol in PYTHON_OPERATORS.items():
            emitted = eval("lambda lhs, rhs: lhs %s rhs" % symbol)
            for lhs, rhs in itertools.product(operands, repeat=2):
                # repr: nan equals itself, and 1 is not 1.0 is not True
                assert repr(_outcome(emitted, lhs, rhs)) == repr(
                    _outcome(_BINARY_OPS[op], lhs, rhs)
                ), (op, lhs, rhs)

    def test_comparisons_do_not_chain(self):
        # PGQL's (1 < 2) < 3 compares True with 3; Python's 1 < 2 < 3
        # would compare 2 with 3.
        nested = Binary("=", Binary("<", Literal(1), Literal(2)),
                        Literal(True))
        assert HARNESS.predicate([nested])((), 0, 0) is True
        chained = Binary("<", Binary("<", Literal(3), Literal(4)),
                         Literal(2))
        assert HARNESS.predicate([chained])((), 0, 0) is True

    def test_values_are_bound_by_name_not_inlined(self):
        for value in ("it's", float("nan"), float("inf"), True):
            source = HARNESS.predicate(
                [Binary("=", Literal(value), Literal(value))]
            ).__source__
            assert "bool((V0 == V1))" in source

    def test_rejections_happen_at_plan_time(self):
        with pytest.raises(PgqlValidationError, match="unknown binary"):
            HARNESS.predicate([Binary("^", Literal(1), Literal(2))])
        with pytest.raises(PlanError, match="aggregates"):
            HARNESS.predicate([Aggregate(AggregateFunc.COUNT, None)])
        for var in "abef":
            with pytest.raises(PlanError, match="ghost"):
                HARNESS.predicate([PropRef(var, "ghost")])

    def test_golden_source_of_a_bsbm_query5_part(self):
        """What the compiler emits for the last stage of BSBM Query 5
        (``p2 != p`` and the four similarity windows around ``p``'s
        captured ``num1``/``num2``)."""
        bsbm = generate_bsbm(num_products=100, seed=0)
        plan = plan_query(query5_parts(bsbm, 1, seed=0)[0], bsbm.graph)
        assert plan.stages[2].filter.__source__ == (
            "def predicate(ctx, vertex, eid):\n"
            "    try:\n"
            "        return bool((vertex != ctx[0]))"
            " and bool((V0(vertex) < (ctx[1] + V1)))"
            " and bool((V2(vertex) > (ctx[1] - V3)))"
            " and bool((V4(vertex) < (ctx[2] + V5)))"
            " and bool((V6(vertex) > (ctx[2] - V7)))\n"
            "    except (TypeError, ZeroDivisionError):\n"
            "        return False\n"
        )


class TestSemantics:
    def test_homomorphism_has_no_distinctness(self, random_graph):
        plan = plan_query("SELECT a WHERE (a)-[]->(b)", random_graph)
        assert not plan.stages[1].iso_vertex_slots

    def test_isomorphism_vertex_slots(self, random_graph):
        plan = plan_query(
            "SELECT a WHERE (a)-[]->(b)-[]->(c)", random_graph,
            PlannerOptions(semantics=MatchSemantics.ISOMORPHISM),
        )
        assert plan.stages[1].iso_vertex_slots == [0]
        assert len(plan.stages[2].iso_vertex_slots) == 2

    def test_isomorphism_captures_all_edge_ids(self, random_graph):
        plan = plan_query(
            "SELECT a WHERE (a)-[]->(b)-[]->(c)", random_graph,
            PlannerOptions(semantics=MatchSemantics.ISOMORPHISM),
        )
        # Two anonymous edges, both captured for distinctness checks.
        edge_vars = plan.query.edge_vars()
        for edge_var in edge_vars:
            assert plan.layout.has(("e", edge_var))
        assert plan.stages[1].hop.iso_edge_slots

    def test_induced_appends_verification_stages(self, random_graph):
        plain = plan_query("SELECT a WHERE (a)-[]->(b)", random_graph)
        induced = plan_query(
            "SELECT a WHERE (a)-[]->(b)", random_graph,
            PlannerOptions(semantics=MatchSemantics.INDUCED),
        )
        assert induced.num_stages > plain.num_stages
        checker = induced.stages[-1]
        assert checker.forbidden_slots


class TestDescribe:
    def test_describe_lists_all_stages(self, random_graph):
        plan = plan_query(
            "SELECT a WHERE (a)-[]->(b)-[]->(c)", random_graph
        )
        text = plan.describe()
        assert text.count("Stage") == plan.num_stages
        assert "output" in text
