"""Result tables and formatting."""

import pytest

from repro.experiments.reporting import ResultTable, format_float, improvement_pct


class TestFormatFloat:
    def test_four_digits_default(self):
        assert format_float(0.05134) == "0.0513"


class TestImprovementPct:
    def test_positive(self):
        assert improvement_pct(1.1, 1.0) == pytest.approx(10.0)

    def test_negative(self):
        assert improvement_pct(0.9, 1.0) == pytest.approx(-10.0)

    def test_zero_baseline(self):
        assert improvement_pct(1.0, 0.0) == float("inf")
        assert improvement_pct(0.0, 0.0) == 0.0


class TestResultTable:
    def test_add_row_formats_floats(self):
        table = ResultTable(headers=["a", "b"])
        table.add_row("x", 0.12345)
        assert table.rows[0] == ["x", "0.1235"]

    def test_row_width_checked(self):
        table = ResultTable(headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_markdown_structure(self):
        table = ResultTable(headers=["Model", "HR@10"], title="demo")
        table.add_row("SASRec", 0.5)
        md = table.to_markdown()
        assert "### demo" in md
        assert "| Model" in md
        assert "| SASRec" in md
        assert md.count("|---") >= 1 or "-|-" in md

    def test_empty_table_renders(self):
        table = ResultTable(headers=["x"])
        assert "| x" in table.to_markdown()

    def test_str_is_markdown(self):
        table = ResultTable(headers=["x"])
        assert str(table) == table.to_markdown()
