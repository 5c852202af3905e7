"""Benchmark harness plumbing.

Each benchmark builds an :class:`repro.analysis.experiments.
ExperimentReport` (paper claim vs measured value) and registers it here;
the reports are printed in the terminal summary so that
``pytest benchmarks/ | tee bench_output.txt`` captures the full
paper-vs-measured tables.  No bench here times anything: wall-clock
cost is measured end to end by ``benchmarks/e2e``.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.analysis.experiments import ExperimentReport

_reports: List[ExperimentReport] = []


@pytest.fixture
def report_sink():
    """Benchmarks call ``report_sink(report)`` with their finished report."""

    def sink(report: ExperimentReport) -> ExperimentReport:
        _reports.append(report)
        return report

    return sink


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _reports:
        return
    terminalreporter.write_sep("=", "AN2 reproduction: paper vs measured")
    for report in sorted(_reports, key=lambda r: r.experiment_id):
        terminalreporter.write_line("")
        for line in report.render().splitlines():
            terminalreporter.write_line(line)
