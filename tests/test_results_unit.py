"""Unit tests for ResultSet and the aggregation state machinery."""

import pytest

from repro.errors import PgqlValidationError
from repro.pgql.ast import AggregateFunc
from repro.runtime.aggregation import AggregateState
from repro.runtime.results import ResultSet


class TestResultSet:
    def make(self):
        return ResultSet(["a", "b"], [(1, "x"), (2, "y"), (3, "x")])

    def test_len_iter_getitem(self):
        rs = self.make()
        assert len(rs) == 3
        assert list(rs)[0] == (1, "x")
        assert rs[1] == (2, "y")

    def test_column(self):
        rs = self.make()
        assert rs.column("b") == ["x", "y", "x"]
        with pytest.raises(ValueError):
            rs.column("missing")

    def test_to_dicts(self):
        rs = self.make()
        assert rs.to_dicts()[0] == {"a": 1, "b": "x"}

    def test_sorted_rows(self):
        rs = ResultSet(["a"], [(3,), (1,), (2,)])
        assert rs.sorted_rows() == [(1,), (2,), (3,)]

    def test_pretty_truncates(self):
        rs = ResultSet(["a"], [(i,) for i in range(30)])
        text = rs.pretty(limit=5)
        assert "more rows" in text
        assert text.count("\n") < 10


class TestAggregateState:
    def test_count(self):
        state = AggregateState(AggregateFunc.COUNT, False)
        for value in (5, 5, 7):
            state.update(value)
        assert state.result() == 3

    def test_count_distinct(self):
        state = AggregateState(AggregateFunc.COUNT, True)
        for value in (5, 5, 7):
            state.update(value)
        assert state.result() == 2

    def test_sum_avg(self):
        sum_state = AggregateState(AggregateFunc.SUM, False)
        avg_state = AggregateState(AggregateFunc.AVG, False)
        for value in (1, 2, 3):
            sum_state.update(value)
            avg_state.update(value)
        assert sum_state.result() == 6
        assert avg_state.result() == 2.0

    def test_sum_distinct(self):
        state = AggregateState(AggregateFunc.SUM, True)
        for value in (4, 4, 2):
            state.update(value)
        assert state.result() == 6

    def test_min_max(self):
        min_state = AggregateState(AggregateFunc.MIN, False)
        max_state = AggregateState(AggregateFunc.MAX, False)
        for value in (5, -1, 3):
            min_state.update(value)
            max_state.update(value)
        assert min_state.result() == -1
        assert max_state.result() == 5

    def test_empty_min_is_none(self):
        assert AggregateState(AggregateFunc.MIN, False).result() is None

    def test_empty_avg_is_none(self):
        assert AggregateState(AggregateFunc.AVG, False).result() is None

    def test_empty_sum_is_zero(self):
        assert AggregateState(AggregateFunc.SUM, False).result() == 0

    def test_strings(self):
        state = AggregateState(AggregateFunc.MAX, False)
        for value in ("apple", "pear", "fig"):
            state.update(value)
        assert state.result() == "pear"

    @pytest.mark.parametrize("func, values", [
        (AggregateFunc.SUM, (1, "x")),
        (AggregateFunc.AVG, ("p", "q")),
        (AggregateFunc.MIN, ("p", None)),
        (AggregateFunc.MIN, (None, "p")),
        (AggregateFunc.MAX, (2, "two")),
    ])
    def test_mismatch_is_typed_in_any_order(self, func, values):
        state = AggregateState(func, False)
        with pytest.raises(PgqlValidationError, match=func.value):
            for value in values:
                state.update(value)

    def test_merge_mismatch_is_typed(self):
        left = AggregateState(AggregateFunc.MIN, False)
        right = AggregateState(AggregateFunc.MIN, False)
        left.update(None)
        right.update("p")
        with pytest.raises(PgqlValidationError):
            left.merge(right)
