"""Deterministic subsystem profiler for the event kernel.

Attach a :class:`SubsystemProfiler` to ``Simulator.profiler`` and the
kernel (which swaps in its instrumented loop, exactly as for the tracer)
routes every dispatched event through :meth:`dispatch`, which classifies
the callback into a *subsystem* -- matcher, routing, flowcontrol, links,
aal, reconfig, monitor, traffic, fastpath (the ``FabricSlotDriver``
wave events that tick a ``Network``'s switches) -- and counts it.
Event counts are a pure function of the dispatch order, so for a fixed
seed they are as deterministic as the run digest: two runs of the same
scenario produce identical count tables, which makes profiles diffable
across commits.

With ``wall_time=True`` each event's callback is also wrapped in a
``perf_counter`` pair, attributing real elapsed time to subsystems.
Wall times are *not* deterministic (they measure this machine, now) and
are reported separately from the counts; leave the flag off when only
the reproducible shape of the workload matters.

Classification is by callback identity: the bound method's underlying
function (``__func__``) is looked up once and cached, so steady-state
dispatch cost is one dict hit.  Qualname rules distinguish subsystems
that share a module (the switch's ``_slot_tick`` is matcher work, its
``_resync_tick`` is flow control); module-prefix rules catch the rest.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: (qualname prefix, subsystem) -- checked first, in order.
QUALNAME_RULES: Tuple[Tuple[str, str], ...] = (
    ("FabricSlotDriver._fire", "fastpath"),
    ("AN2Switch._slot_tick", "matcher"),
    ("AN2Switch._resync_tick", "flowcontrol"),
    ("Host._resync_tick", "flowcontrol"),
    ("AN2Switch._handle_signaling", "routing"),
    ("AN2Switch._reroute_port", "routing"),
    ("AN2Switch._repair_broken_circuits", "routing"),
    ("AN2Switch._handle_reconfig", "reconfig"),
    ("AN2Switch._boot_trigger", "reconfig"),
    ("AN2Switch._reply_ping", "monitor"),
    ("Host._reply_ping", "monitor"),
)

#: (module prefix, subsystem) -- fallback when no qualname rule matches.
MODULE_RULES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.reconfig.monitor", "monitor"),
    ("repro.core.reconfig", "reconfig"),
    ("repro.core.routing", "routing"),
    ("repro.core.signaling", "routing"),
    ("repro.core.flowcontrol", "flowcontrol"),
    ("repro.core.matching", "matcher"),
    ("repro.fastpath", "fastpath"),
    ("repro.net.link", "links"),
    ("repro.net.host", "aal"),
    ("repro.net.aal", "aal"),
    ("repro.traffic", "traffic"),
    ("repro.switch", "switch"),
)


def classify_callback(func: Callable[..., Any]) -> str:
    """Subsystem label for one callback's underlying function."""
    qualname = getattr(func, "__qualname__", "") or ""
    for prefix, subsystem in QUALNAME_RULES:
        if qualname.startswith(prefix):
            return subsystem
    module = getattr(func, "__module__", "") or ""
    for prefix, subsystem in MODULE_RULES:
        if module.startswith(prefix):
            return subsystem
    return "other"


class SubsystemProfiler:
    """Deterministic event counts (and optional wall time) per subsystem."""

    def __init__(self, wall_time: bool = False) -> None:
        self.wall_time = wall_time
        self.events: Dict[str, int] = {}
        self.wall_seconds: Dict[str, float] = {}
        self._cache: Dict[Any, str] = {}

    # ------------------------------------------------------------------
    def classify(self, callback: Callable[..., Any]) -> str:
        func = getattr(callback, "__func__", callback)
        try:
            subsystem = self._cache.get(func)
        except TypeError:  # unhashable callable; classify every time
            return classify_callback(func)
        if subsystem is None:
            subsystem = self._cache[func] = classify_callback(func)
        return subsystem

    def dispatch(self, callback: Callable[..., Any], args: tuple) -> None:
        """Count (and optionally time) one event dispatch, then run it."""
        subsystem = self.classify(callback)
        self.events[subsystem] = self.events.get(subsystem, 0) + 1
        if self.wall_time:
            started = perf_counter()
            try:
                callback(*args)
            finally:
                self.wall_seconds[subsystem] = (
                    self.wall_seconds.get(subsystem, 0.0)
                    + (perf_counter() - started)
                )
        else:
            callback(*args)

    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        return sum(self.events.values())

    def clear(self) -> None:
        self.events.clear()
        self.wall_seconds.clear()

    def rows(self) -> List[Tuple[str, int, float]]:
        """(subsystem, events, wall seconds), most events first."""
        return sorted(
            (
                (name, count, self.wall_seconds.get(name, 0.0))
                for name, count in self.events.items()
            ),
            key=lambda row: (-row[1], row[0]),
        )

    def report(self) -> str:
        """A rendered table of the profile so far."""
        total = self.total_events
        total_wall = sum(self.wall_seconds.values())
        lines = ["subsystem    | events     | share  | wall s  | wall share"]
        lines.append("-" * len(lines[0]))
        for name, count, wall in self.rows():
            share = count / total if total else 0.0
            wall_share = wall / total_wall if total_wall else 0.0
            lines.append(
                f"{name:<12} | {count:>10} | {share:>5.1%} |"
                f" {wall:>7.3f} | {wall_share:>5.1%}"
            )
        lines.append(
            f"{'total':<12} | {total:>10} | {'':>6} | {total_wall:>7.3f} |"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SubsystemProfiler events={self.total_events} "
            f"subsystems={len(self.events)}>"
        )
