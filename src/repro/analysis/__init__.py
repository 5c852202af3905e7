"""Statistics helpers and benchmark-output formatting."""

from repro.analysis.stats import jain_fairness, mean
from repro.analysis.tables import Table
from repro.analysis.experiments import ExperimentReport

__all__ = [
    "ExperimentReport",
    "Table",
    "jain_fairness",
    "mean",
]
