"""Unit tests for table-formatting helpers."""

from __future__ import annotations

import pytest

from repro.utils.tables import format_row, format_table


class TestFormatRow:
    def test_alignment_and_precision(self):
        row = format_row(["a", 1.23456, 7], [3, 8, 4], precision=3)
        assert row == "  a    1.235    7"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            format_row([1, 2], [4])

    def test_bool_rendering(self):
        assert "True" in format_row([True], [6])


class TestFormatTable:
    def test_structure(self):
        table = format_table(["x", "y"], [(1, 2.0), (3, 4.5)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}

    def test_wide_values_extend_columns(self):
        table = format_table(["name"], [["a-very-long-identifier"]])
        assert "a-very-long-identifier" in table

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_empty_rows(self):
        table = format_table(["a"], [])
        assert len(table.splitlines()) == 2
