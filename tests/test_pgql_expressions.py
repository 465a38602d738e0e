"""Unit tests for expression evaluation and analysis helpers."""

import pytest

from repro.errors import PgqlValidationError
from repro.pgql import (
    Binary,
    Literal,
    MappingEnv,
    PropRef,
    VarRef,
    evaluate,
    evaluate_predicate,
    parse,
    referenced_props,
    referenced_vars,
    split_conjuncts,
)


def constraint(text):
    return parse("SELECT a WHERE (a), %s" % text).constraints[0]


class TestEvaluate:
    def env(self):
        return MappingEnv(
            ids={"a": 3, "b": 5},
            props={("a", "age"): 20, ("a", "name"): "x", ("b", "age"): 10},
            labels={"a": "person"},
        )

    def test_literals_and_arith(self):
        env = self.env()
        assert evaluate(constraint("a.age + 5 = 25"), env) is True
        assert evaluate(constraint("a.age * 2 - 10 = 30"), env) is True
        assert evaluate(constraint("a.age / 8 = 2.5"), env) is True
        assert evaluate(constraint("a.age % 3 = 2"), env) is True

    def test_comparisons(self):
        env = self.env()
        assert evaluate(constraint("a.age > b.age"), env) is True
        assert evaluate(constraint("a.age <= 19"), env) is False
        assert evaluate(constraint("a.age != b.age"), env) is True

    def test_boolean_logic(self):
        env = self.env()
        assert evaluate(
            constraint("a.age > 5 AND a.age < 25 OR a.age = 99"), env
        ) is True
        assert evaluate(constraint("NOT a.age = 20"), env) is False

    def test_var_refs_are_ids(self):
        env = self.env()
        assert evaluate(constraint("a != b"), env) is True
        assert evaluate(constraint("a.id() = 3"), env) is True

    def test_label_call(self):
        env = self.env()
        assert evaluate(constraint('a.label() = "person"'), env) is True

    def test_string_equality(self):
        env = self.env()
        assert evaluate(constraint('a.name = "x"'), env) is True

    def test_cross_type_equality_is_false_not_error(self):
        env = self.env()
        assert evaluate(constraint('a.age = "x"'), env) is False

    def test_unbound_var_raises(self):
        with pytest.raises(PgqlValidationError):
            evaluate(VarRef("zz"), MappingEnv())

    def test_missing_prop_raises(self):
        with pytest.raises(PgqlValidationError):
            evaluate(PropRef("a", "missing"), self.env())

    @pytest.mark.parametrize("text, names", [
        ("a.name < 1", "'<' not supported"),
        ("a.age / 0", "division by zero"),
        ("a.name + 1", "concatenate"),
        ("-a.name", "unary -"),
    ])
    def test_value_mismatch_raises_typed(self, text, names):
        with pytest.raises(PgqlValidationError, match=names):
            evaluate(constraint(text), self.env())
        assert evaluate_predicate(constraint(text), self.env()) is False

    def test_aggregate_cannot_evaluate_per_row(self):
        expr = parse(
            "SELECT COUNT(*) WHERE (a) GROUP BY a.x"
        ).select_items[0].expr
        with pytest.raises(PgqlValidationError):
            evaluate(expr, self.env())


class TestEvaluatePredicate:
    def test_type_error_is_false(self):
        env = MappingEnv(props={("a", "age"): "not a number"})
        assert evaluate_predicate(constraint("a.age > 5"), env) is False

    def test_division_by_zero_is_false(self):
        env = MappingEnv(props={("a", "age"): 10})
        assert evaluate_predicate(constraint("a.age / 0 > 1"), env) is False

    def test_truthiness(self):
        env = MappingEnv(props={("a", "age"): 10})
        assert evaluate_predicate(constraint("a.age"), env) is True


class TestAnalysis:
    def test_referenced_vars(self):
        expr = constraint("a.x = b.y AND c != a")
        assert referenced_vars(expr) == {"a", "b", "c"}

    def test_referenced_props(self):
        expr = constraint("a.x = b.y AND a.z > 1")
        assert referenced_props(expr) == {("a", "x"), ("b", "y"), ("a", "z")}

    def test_split_conjuncts(self):
        expr = constraint("a.x = 1 AND a.y = 2 AND (a.z = 3 OR a.w = 4)")
        parts = split_conjuncts(expr)
        assert len(parts) == 3
        # The OR stays intact.
        assert parts[2].op == "OR"

    def test_split_single(self):
        expr = constraint("a.x = 1 OR a.y = 2")
        assert split_conjuncts(expr) == [expr]

    def test_walk_covers_all_nodes(self):
        expr = Binary("+", Literal(1), Binary("*", Literal(2), Literal(3)))
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds.count("Binary") == 2
        assert kinds.count("Literal") == 3
