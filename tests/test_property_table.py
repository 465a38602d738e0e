"""Unit tests for columnar property storage."""

import numpy as np
import pytest

from repro.errors import PropertyTypeError, UnknownPropertyError
from repro.graph.property_table import PropertyColumn, PropertyTable
from repro.graph.types import PropertyType
from repro.stats import PropertyStats


class TestPropertyColumn:
    def test_defaults_on_creation(self):
        column = PropertyColumn("age", PropertyType.LONG, 4)
        assert [column.get(i) for i in range(4)] == [0, 0, 0, 0]

    def test_set_get_numeric(self):
        column = PropertyColumn("w", PropertyType.DOUBLE, 3)
        column.set(1, 2.5)
        assert column.get(1) == 2.5
        assert column.get(0) == 0.0

    def test_get_returns_python_scalars(self):
        column = PropertyColumn("n", PropertyType.LONG, 2)
        column.set(0, 7)
        assert type(column.get(0)) is int

    def test_string_interning(self):
        column = PropertyColumn("name", PropertyType.STRING, 5)
        for i in range(5):
            column.set(i, "shared")
        assert column.get(3) == "shared"
        # All five rows share one interned payload.
        assert len(column._strings) == 2  # "" and "shared"

    def test_type_checked_set(self):
        column = PropertyColumn("age", PropertyType.LONG, 2)
        with pytest.raises(PropertyTypeError):
            column.set(0, "not a number")

    def test_fill(self):
        column = PropertyColumn("v", PropertyType.LONG, 3)
        column.fill([5, 6, 7])
        assert [column.get(i) for i in range(3)] == [5, 6, 7]

    def test_reordered_numeric(self):
        column = PropertyColumn("v", PropertyType.LONG, 3)
        column.fill([10, 20, 30])
        order = np.array([2, 0, 1])
        clone = column.reordered(order)
        assert [clone.get(i) for i in range(3)] == [30, 10, 20]

    def test_reordered_string(self):
        column = PropertyColumn("s", PropertyType.STRING, 3)
        column.fill(["a", "b", "c"])
        clone = column.reordered(np.array([1, 2, 0]))
        assert [clone.get(i) for i in range(3)] == ["b", "c", "a"]

    def test_selectivity(self):
        column = PropertyColumn("t", PropertyType.LONG, 4)
        column.fill([1, 1, 2, 3])
        stats = PropertyStats.from_column(column)
        assert stats.eq_selectivity(1) == 0.5
        assert stats.eq_selectivity(9) == 0.0

    def test_selectivity_wrong_type_is_unknown(self):
        # Not an error: priced like any value the column never held.
        column = PropertyColumn("t", PropertyType.LONG, 4)
        stats = PropertyStats.from_column(column)
        assert stats.eq_selectivity("nope") == stats.eq_selectivity(9) == 0.0

    def test_selectivity_string(self):
        column = PropertyColumn("s", PropertyType.STRING, 4)
        column.fill(["x", "x", "y", "x"])
        stats = PropertyStats.from_column(column)
        assert stats.eq_selectivity("x") == 0.75
        assert stats.eq_selectivity("absent") == 0.0


class TestPropertyTable:
    def test_add_column_idempotent(self):
        table = PropertyTable("vertex", 3)
        first = table.add_column("age", PropertyType.LONG)
        second = table.add_column("age", PropertyType.LONG)
        assert first is second

    def test_add_column_type_conflict(self):
        table = PropertyTable("vertex", 3)
        table.add_column("age", PropertyType.LONG)
        with pytest.raises(PropertyTypeError):
            table.add_column("age", PropertyType.STRING)

    def test_unknown_column(self):
        table = PropertyTable("edge", 3)
        with pytest.raises(UnknownPropertyError):
            table.column("missing")

    def test_contains_and_names(self):
        table = PropertyTable("vertex", 2)
        table.add_column("a", PropertyType.LONG)
        table.add_column("b", PropertyType.STRING)
        assert "a" in table and "b" in table and "c" not in table
        assert table.names() == ["a", "b"]

    def test_get_set(self):
        table = PropertyTable("vertex", 2)
        table.add_column("a", PropertyType.LONG)
        table.set("a", 1, 42)
        assert table.get("a", 1) == 42

    def test_reordered_table(self):
        table = PropertyTable("edge", 3)
        table.add_column("w", PropertyType.DOUBLE)
        table.set("w", 0, 0.1)
        table.set("w", 2, 0.3)
        clone = table.reordered(np.array([2, 1, 0]))
        assert clone.get("w", 0) == 0.3
        assert clone.get("w", 2) == 0.1
