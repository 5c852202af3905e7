"""Observability: tracing, flight recording, and metrics.

The cooperating pieces:

- :class:`~repro.obs.trace.Tracer` -- timestamped structured events
  (category, component, name, payload), serialized to JSON Lines and
  rendered by ``tools/trace_report.py``;
- :class:`~repro.obs.journey.JourneyContext` -- causal per-hop records
  for every traced cell, segmentation to reassembly, feeding the
  critical-path analyzer (``trace_report.py --section journey``);
- :class:`~repro.obs.flight.FlightRecorder` -- always-on bounded rings
  of recent protocol events per switch/link/host, dumped to JSONL when
  an invariant fails, an exception escapes the kernel, or a digest
  mismatch is detected.  ``Simulator.note`` hands every protocol
  transition to it and to the tracer alike;
- :class:`~repro.obs.registry.MetricsRegistry` -- hierarchical
  ownership of the :class:`~repro.sim.monitor.ProbeSet` tallies and
  gauges that the switch, host, and fault models feed, snapshot-able to
  JSON.

Per-event profiling is not here: ``Simulator.profiler`` takes any object
with ``dispatch(callback, args)``, and ``benchmarks/e2e/spans.py`` owns
the one that builds the per-layer table.

A process-wide *capture* ties the two together for the benchmark escape
hatch: ``pytest benchmarks/ --trace-out=DIR`` opens a capture around each
experiment, every :class:`~repro.net.network.Network` (and
:class:`~repro.switch.an1.An1Network`) built inside it attaches the
capture's tracer to its simulator and contributes its registry, and the
trace + metrics snapshot land in ``DIR`` afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.flight import FlightRecorder, next_dump_path
from repro.obs.journey import JourneyContext, attach_journey
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecord, Tracer, read_jsonl

__all__ = [
    "Capture",
    "FlightRecorder",
    "JourneyContext",
    "MetricsRegistry",
    "TraceRecord",
    "Tracer",
    "active_capture",
    "attach_journey",
    "begin_capture",
    "capture",
    "end_capture",
    "next_dump_path",
    "read_jsonl",
]


class Capture:
    """One tracer plus every registry that reported in while it was active."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.registries: List[MetricsRegistry] = []

    def adopt(self, registry: MetricsRegistry) -> None:
        if registry not in self.registries:
            self.registries.append(registry)

    def snapshot(self) -> Dict[str, Any]:
        """Merged metrics snapshot.  With several registries (several
        networks in one experiment) node paths are prefixed ``netK.`` to
        keep them distinct."""
        if len(self.registries) == 1:
            return self.registries[0].snapshot()
        merged: Dict[str, Any] = {}
        for index, registry in enumerate(self.registries):
            for path, node in registry.snapshot().items():
                merged[f"net{index}.{path}"] = node
        return merged


_stack: List[Capture] = []


def active_capture() -> Optional[Capture]:
    """The capture networks should report to, or ``None``."""
    return _stack[-1] if _stack else None


def begin_capture(tracer: Optional[Tracer] = None) -> Capture:
    """Open a process-wide capture.

    Captures nest as a stack: a new capture shadows the enclosing one
    until its matching :func:`end_capture` (networks built meanwhile
    report only to the innermost capture).  This lets an explicit
    ``obs.capture()`` in a test coexist with the ambient capture that
    ``pytest --trace-out=DIR`` opens around every test.
    """
    cap = Capture(tracer)
    _stack.append(cap)
    return cap


def end_capture() -> Optional[Capture]:
    """Close the innermost capture and return it (``None`` if none open)."""
    return _stack.pop() if _stack else None


@contextmanager
def capture(tracer: Optional[Tracer] = None) -> Iterator[Capture]:
    cap = begin_capture(tracer)
    try:
        yield cap
    finally:
        end_capture()
