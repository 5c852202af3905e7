"""Always-on flight recorder: bounded rings of recent protocol events.

A :class:`FlightRecorder` keeps one ``deque(maxlen=capacity)`` ring per
component (``switch.s3``, ``host.h0``, a link's label, ``faults``,
``kernel``) holding the most recent *protocol transitions*: everything
reported through ``Simulator.note`` -- epochs, skeptic verdicts, credit
stall episodes, resync rounds and recoveries, link state changes,
reassembly errors, injected faults -- which is also what an attached
:class:`~repro.obs.trace.Tracer` receives, record for record.  Unlike
the tracer it is wired into every installation unconditionally, which
is only tenable because it records transitions, never per-cell traffic:

- steady-state cost is near zero (a healthy converged network emits no
  protocol transitions, so the hot cell path never touches it);
- memory is bounded at ``capacity`` records per component, oldest
  evicted first -- a black box, not a log;
- the kernel never consults it per event: it lives on a plain
  ``Simulator.recorder`` attribute and is only read when a run dies or
  a dump is requested.

Dumps are JSON Lines in the tracer's ``{t, cat, comp, name, data}``
shape, each record keeping its category, prefixed with one
``flight.meta`` record carrying the dump reason -- an ordinary trace
that every ``tools/trace_report.py`` section renders.

Dump triggers wired up elsewhere:

- a :mod:`repro.faults` invariant fails
  (:class:`~repro.faults.runner.ScenarioRunner` with a ``flight_dir``);
- an exception escapes the kernel's run loop (``Simulator.run`` calls
  :meth:`on_kernel_exception`; set :attr:`auto_dump_dir` or the
  ``REPRO_FLIGHT_DIR`` environment variable to get a file);
- the conformance gate sees a digest mismatch
  (``tools/run_conformance.py``).
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.obs.trace import _jsonable

#: process-wide dump sequence numbers, so several dumps in one run (or
#: one test session) never collide on a filename.
_dump_ids = itertools.count(1)

PathLike = Union[str, "os.PathLike[str]"]


class FlightRecorder:
    """Bounded per-component rings of recent protocol events."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: per component: ``(t, category, name, fields)``, oldest first.
        self._rings: Dict[str, Deque[Tuple[float, str, str, Dict[str, Any]]]] = {}
        #: total records ever recorded (including ones since evicted).
        self.records_total = 0
        #: when set, :meth:`on_kernel_exception` dumps here; otherwise it
        #: falls back to the ``REPRO_FLIGHT_DIR`` environment variable.
        self.auto_dump_dir: Optional[str] = None

    # ------------------------------------------------------------------
    def record(
        self, t: float, category: str, component: str, name: str,
        **fields: Any,
    ) -> None:
        """Append one event to ``component``'s ring (evicting the oldest)."""
        ring = self._rings.get(component)
        if ring is None:
            ring = self._rings[component] = deque(maxlen=self.capacity)
        ring.append((t, category, name, fields))
        self.records_total += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """Every retained record as a plain dict, in time order.

        Ties on ``t`` keep per-component append order (rings are FIFO),
        then sort by component name for a stable, replayable output.
        """
        rows = [
            {
                "t": t,
                "cat": category,
                "comp": component,
                "name": name,
                "data": {k: _jsonable(v) for k, v in fields.items()},
            }
            for component, ring in sorted(self._rings.items())
            for t, category, name, fields in ring
        ]
        rows.sort(key=lambda row: (row["t"], row["comp"]))
        return rows

    def dump(self, path: PathLike, reason: str = "") -> Path:
        """Write the rings as JSON Lines; returns the resolved path.

        The first line is a ``flight.meta`` record carrying the dump
        reason and totals; the rest are the retained events in time
        order, in the tracer's record shape.
        """
        rows = self.snapshot()
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as stream:
            meta = {
                "t": rows[-1]["t"] if rows else 0.0,
                "cat": "flight.meta",
                "comp": "recorder",
                "name": "dump",
                "data": {
                    "reason": reason,
                    "retained": len(rows),
                    "recorded_total": self.records_total,
                    "capacity": self.capacity,
                    "components": len(self._rings),
                },
            }
            stream.write(json.dumps(meta, sort_keys=True) + "\n")
            for row in rows:
                stream.write(json.dumps(row, sort_keys=True) + "\n")
        return target

    # ------------------------------------------------------------------
    def on_kernel_exception(self, sim: Any, exc: BaseException) -> Optional[Path]:
        """Record an exception that escaped the kernel; maybe auto-dump.

        Called by ``Simulator.run`` on the way out of a dying run loop.
        Always folds the exception into the ``kernel`` ring (so a later
        explicit dump shows it); writes a file only when
        :attr:`auto_dump_dir` or ``REPRO_FLIGHT_DIR`` names a directory.
        """
        self.record(
            sim.now,
            "kernel",
            "kernel",
            "exception",
            type=type(exc).__name__,
            message=str(exc),
            events_executed=sim.events_executed,
        )
        directory = self.auto_dump_dir or os.environ.get("REPRO_FLIGHT_DIR")
        if not directory:
            return None
        path = Path(directory) / f"flight-kernel-exception-{next(_dump_ids)}.jsonl"
        try:
            return self.dump(
                path, reason=f"kernel exception: {type(exc).__name__}: {exc}"
            )
        except OSError:  # pragma: no cover - dump dir unwritable
            return None


def next_dump_path(directory: PathLike, label: str) -> Path:
    """A collision-free dump filename under ``directory``."""
    return Path(directory) / f"flight-{label}-{next(_dump_ids)}.jsonl"
