"""Measurement probes: tallies and gauges.

The benchmark harness reports latency percentiles, throughput, buffer
occupancy peaks, message counts, and reconfiguration durations.  Every
one of them is either a :class:`Tally` of samples or a :class:`Gauge`
over a count its component already keeps, so the switch and network
models collect them without coupling to any particular experiment.

A :class:`ProbeSet` groups the probes of one component instance; the
hierarchical :class:`~repro.obs.registry.MetricsRegistry` owns one probe
set per component node and snapshots the whole tree to plain dicts.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence


class Gauge:
    """A named read-through probe over live component state.

    Lets plain-int hot-path counters (``stats.cells_forwarded`` and
    friends) appear in registry snapshots without adding any per-cell
    bookkeeping: the callable is only invoked at snapshot time.
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    @property
    def value(self) -> float:
        return self.fn()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({self.name!r}, {self.value})"


class Tally:
    """Sample accumulator with mean / variance / exact percentiles.

    Stores every sample.  ``record`` is a bare append so hot paths (one
    call per delivered cell) pay nothing extra, and code may even append
    to ``_samples`` directly.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        # The sorted cache is invalidated by length comparison at read time.
        self._samples.append(value)

    def extend(self, values: Sequence[float]) -> None:
        self._samples.extend(values)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return math.fsum(self._samples)

    @property
    def mean(self) -> float:
        if not self.count:
            raise ValueError(f"tally {self.name!r} has no samples")
        return self.total / self.count

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        n = self.count
        if n < 2:
            return 0.0
        mean = self.mean
        return math.fsum((x - mean) ** 2 for x in self._samples) / (n - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if not self.count:
            raise ValueError(f"tally {self.name!r} has no samples")
        return min(self._samples)

    @property
    def maximum(self) -> float:
        if not self.count:
            raise ValueError(f"tally {self.name!r} has no samples")
        return max(self._samples)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 <= p <= 100), nearest-rank method."""
        if not self._samples:
            raise ValueError(f"tally {self.name!r} has no samples")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} out of range")
        if self._sorted is None or len(self._sorted) != len(self._samples):
            # Samples grow append-only, so a length match means the
            # cache is still valid.
            self._sorted = sorted(self._samples)
        if p == 0:
            return self._sorted[0]
        rank = math.ceil(p / 100 * len(self._sorted))
        return self._sorted[rank - 1]

    def samples(self) -> List[float]:
        """A copy of the stored samples."""
        return list(self._samples)

    def snapshot(self) -> Dict[str, float]:
        """Summary statistics as a plain dict (empty-safe)."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "stdev": self.stdev,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover
        if not self.count:
            return f"Tally({self.name!r}, empty)"
        return f"Tally({self.name!r}, n={self.count}, mean={self.mean:.4g})"


class ProbeSet:
    """A named registry of probes, one per component instance."""

    def __init__(self) -> None:
        self.tallies: Dict[str, Tally] = {}
        self.gauges: Dict[str, Gauge] = {}

    def tally(self, name: str) -> Tally:
        probe = self.tallies.get(name)
        if probe is None:
            probe = self.tallies[name] = Tally(name)
        return probe

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        """Register (or re-point) a read-through gauge."""
        probe = Gauge(name, fn)
        self.gauges[name] = probe
        return probe

    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict state of every probe in this set."""
        return {
            "tallies": {n: t.snapshot() for n, t in sorted(self.tallies.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
        }
