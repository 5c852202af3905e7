"""Tests for statistics helpers, tables, and experiment reports."""

import pytest

from repro.analysis.experiments import ExperimentReport
from repro.analysis.stats import jain_fairness, mean
from repro.analysis.tables import Table


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_jain_fairness(self):
        assert jain_fairness([10.0, 10.0, 10.0]) == pytest.approx(1.0)
        assert jain_fairness([30.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert jain_fairness([0.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            jain_fairness([])


class TestTable:
    def test_render_alignment(self):
        table = Table(["name", "value"], title="demo")
        table.add_row("alpha", 1.2345)
        table.add_row("b", 12345.0)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha" in lines[3]  # title, header, separator, first row
        assert "1.234" in text
        assert "12,345" in text

    def test_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_float_formatting(self):
        table = Table(["v"])
        table.add_row(0.0)
        table.add_row(42.0)
        text = table.render()
        assert "0" in text and "42.0" in text


class TestExperimentReport:
    def test_checks_and_verdicts(self):
        report = ExperimentReport("E1", "head-of-line blocking")
        report.check("fifo throughput", "~0.58", "0.60", holds=True)
        report.check("pim throughput", ">0.9", "0.97", holds=True)
        report.check("note", "-", "informational")
        assert report.all_hold
        text = report.render()
        assert "E1" in text and "yes" in text and "NO" not in text

    def test_failed_check_renders_no(self):
        report = ExperimentReport("EX", "x")
        report.check("claim", "1", "2", holds=False)
        assert not report.all_hold
        assert "NO" in report.render()

    def test_tables_attached(self):
        report = ExperimentReport("EX", "x")
        table = Table(["a"])
        table.add_row(1)
        report.add_table(table)
        assert "a" in report.render()
