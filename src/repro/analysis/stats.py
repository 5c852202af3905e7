"""Small statistics helpers used by benchmarks and tests."""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of no values")
    return math.fsum(values) / len(values)


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one flow hogs.

    Used by the starvation benchmark (E11) to summarize per-circuit
    service counts.
    """
    if not values:
        raise ValueError("fairness of no values")
    total = math.fsum(values)
    squares = math.fsum(v * v for v in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)
