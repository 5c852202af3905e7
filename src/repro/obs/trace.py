"""Structured event tracing for the simulator and its protocols.

A :class:`Tracer` accumulates timestamped :class:`TraceRecord`\\ s --
(time, category, component, name, payload) tuples -- and serializes them
to JSON Lines for post-hoc analysis by ``tools/trace_report.py``.

Design constraints, in order of importance:

1. **Disabled means free.**  Nothing in this module is on any hot path.
   Protocol transitions reach a tracer through ``Simulator.note``, which
   also feeds the always-on flight recorder; the high-rate records the
   recorder's bounded rings must not take (journey hops, credit grants,
   port-monitor timeouts) are emitted directly behind a single
   ``tracer is not None`` check.  ``Simulator.tracer`` is a plain
   attribute read at call time, so a tracer may be attached mid-run.
2. **Explicit time.**  Records carry the timestamp the *caller* supplies
   (simulated microseconds).  The tracer itself is clockless, so one
   tracer can serve several simulators without ambiguity.
3. **Plain data out.**  Payload values that are not JSON-native are
   stringified on export, so protocol code can attach ``NodeId``\\ s,
   ``EpochTag``\\ s, and enums without ceremony.

Categories used by the built-in instrumentation:

- ``reconfig``     epoch lifecycle, skeptic transitions, port-monitor timeouts
- ``flowcontrol``  credit grants, stall/unstall transitions, resync rounds
- ``link``         link state changes
- ``host``         reassembly errors and aborts
- ``faults``       injected faults, ``fault.<kind>.begin`` / ``.end``
  (:mod:`repro.faults.runner`)
- ``journey``      per-hop causal records for every packet's cells
  (:mod:`repro.obs.journey`)
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Set, TextIO, Union

from repro._types import NodeId
from repro.core.reconfig.epoch import EpochTag


class TraceRecord:
    """One structured trace event."""

    __slots__ = ("time", "category", "component", "name", "payload")

    def __init__(
        self,
        time: float,
        category: str,
        component: str,
        name: str,
        payload: Dict[str, Any],
    ) -> None:
        self.time = time
        self.category = category
        self.component = component
        self.name = name
        self.payload = payload

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable dict (payload values coerced if needed)."""
        return {
            "t": self.time,
            "cat": self.category,
            "comp": self.component,
            "name": self.name,
            "data": {k: _jsonable(v) for k, v in self.payload.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceRecord t={self.time:.3f} {self.category}/"
            f"{self.component} {self.name} {self.payload}>"
        )


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Tuples, but atoms here: ``s3`` and ``e2@s3``, not their fields.
    if isinstance(value, (NodeId, EpochTag)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class Tracer:
    """An in-memory trace buffer with category filtering.

    Args:
        categories: if given, only these categories are recorded (e.g.
            a protocol-level trace without the per-cell ``journey``
            records, which hosts attach only while that category is
            enabled).
    """

    def __init__(self, categories: Optional[Iterable[str]] = None) -> None:
        self.records: List[TraceRecord] = []
        self.categories: Optional[Set[str]] = (
            set(categories) if categories is not None else None
        )

    # ------------------------------------------------------------------
    def enabled(self, category: str) -> bool:
        return self.categories is None or category in self.categories

    def emit(
        self, t: float, category: str, component: str, name: str,
        **payload: Any,
    ) -> None:
        """Record one event at time ``t``."""
        if self.categories is not None and category not in self.categories:
            return
        self.records.append(TraceRecord(t, category, component, name, payload))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def filter(
        self,
        category: Optional[str] = None,
        component: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[TraceRecord]:
        """Records matching every given field exactly."""
        return [
            r
            for r in self.records
            if (category is None or r.category == category)
            and (component is None or r.component == component)
            and (name is None or r.name == name)
        ]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def dump_jsonl(self, stream: TextIO) -> int:
        """Write one JSON object per line; returns the record count."""
        for record in self.records:
            stream.write(json.dumps(record.to_dict(), sort_keys=True))
            stream.write("\n")
        return len(self.records)

    def write_jsonl(self, path: Union[str, "os.PathLike[str]"]) -> int:
        with open(path, "w", encoding="utf-8") as stream:
            return self.dump_jsonl(stream)


def read_jsonl(path: Union[str, "os.PathLike[str]"]) -> List[Dict[str, Any]]:
    """Load a trace written by :meth:`Tracer.write_jsonl` as plain dicts."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
