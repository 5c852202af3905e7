"""Span recording from outside the program.

The benchmark owns the tracing: a :class:`SpanRecorder` is attached to the
kernel's public ``Simulator.profiler`` hook (``dispatch(callback, args)``),
so every dispatched event becomes a *root span* named after the layer its
callback belongs to, and thin wrappers around layer boundaries
(``Port.send``, ``AN2Switch.on_cell``, ...) become *child spans* of
whichever span is open when they are called.  A layer's self time is its
spans' duration minus the part their child spans cover; it is aggregated
online.  Full span records (name, start, end, parent, root) are kept in
memory for a 1-in-``sample_every`` sample of roots and written out when
the run ends.

Both the callback->layer table and the boundary list name the program's
code by dotted path and are resolved when tracing starts.  A name that no
longer resolves is reported in ``missing`` and the metrics that need it
read ``None``; it never raises, so a refactor of the program degrades one
row of the per-layer table instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

# Layers (= modules of the program) the per-layer table reports.
LINK = "net.link"
TICK = "switch.tick"
INGRESS = "switch.ingress"
MATCHING = "core.matching"
FLOWCONTROL = "core.flowcontrol"
HOST = "net.host"
RECONFIG = "core.reconfig"
MONITOR = "core.reconfig.monitor"
ROUTING = "core.routing"
TRAFFIC = "traffic"
OTHER = "other"

#: Dispatched callbacks named exactly (seeded from repro.obs.profiler's
#: qualname rules): dotted path -> layer.  Checked before MODULE_LAYERS.
CALLBACK_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.switch.switch.AN2Switch._slot_tick", TICK),
    ("repro.switch.switch.AN2Switch._resync_tick", FLOWCONTROL),
    ("repro.switch.switch.AN2Switch._handle_signaling", ROUTING),
    ("repro.switch.switch.AN2Switch._reroute_port", ROUTING),
    ("repro.switch.switch.AN2Switch._repair_broken_circuits", ROUTING),
    ("repro.switch.switch.AN2Switch.install_circuit", ROUTING),
    ("repro.switch.switch.AN2Switch.add_reservation", ROUTING),
    ("repro.net.host.Host._accept_signaling", ROUTING),
    ("repro.switch.switch.AN2Switch._handle_reconfig", RECONFIG),
    ("repro.switch.switch.AN2Switch._boot_trigger", RECONFIG),
    ("repro.switch.switch.AN2Switch._reply_ping", MONITOR),
    ("repro.net.host.Host._reply_ping", MONITOR),
)

#: Fallback for every other dispatched callback: module prefix -> layer.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.reconfig.monitor", MONITOR),
    ("repro.core.reconfig.skeptic", MONITOR),
    ("repro.core.reconfig", RECONFIG),
    ("repro.core.routing", ROUTING),
    ("repro.core.flowcontrol", FLOWCONTROL),
    ("repro.core.matching", MATCHING),
    ("repro.fastpath", TICK),
    ("repro.net.link", LINK),
    ("repro.net.host", HOST),
    ("repro.net.aal", HOST),
    ("repro.traffic", TRAFFIC),
    ("workloads", TRAFFIC),  # the benchmark's own open-loop generator
    ("repro.switch", INGRESS),
)

#: A node's ``on_cell(port, cell)`` demultiplexes for every layer: the
#: span goes to the layer the cell is for, by the name of its kind.
CELL_KIND_LAYERS = {
    "PING": MONITOR,
    "PING_ACK": MONITOR,
    "RECONFIG": RECONFIG,
    "SIGNALING": ROUTING,
}


def by_cell_kind(data_layer: str) -> Callable[[tuple], str]:
    def layer_of(args: tuple) -> str:
        try:
            return CELL_KIND_LAYERS.get(args[2].kind.name, data_layer)
        except (AttributeError, IndexError):
            return data_layer

    return layer_of


#: Calls into a layer that get a child span: dotted path -> layer (or a
#: function of the call's arguments that picks it).  The public ones are
#: the layer boundaries proper; the underscored ones split work that one
#: class does for two layers (credits inside the switch, route
#: installation inside a reconfiguration event).
BOUNDARIES: Tuple[Tuple[str, Any], ...] = (
    ("repro.net.port.Port.send", LINK),
    ("repro.switch.switch.AN2Switch.on_cell", by_cell_kind(INGRESS)),
    ("repro.switch.crossbar.Crossbar.schedule", MATCHING),
    ("repro.net.host.Host.on_cell", by_cell_kind(HOST)),
    ("repro.net.host.Host.send_packet", HOST),
    ("repro.net.host.Host.send_raw_cells", HOST),
    ("repro.net.network.Network.setup_circuit", ROUTING),
    ("repro.net.network.Network.reserve_bandwidth", ROUTING),
    ("repro.switch.switch.AN2Switch._on_topology_ready", ROUTING),
    ("repro.switch.switch.AN2Switch._accept_credit", FLOWCONTROL),
    ("repro.switch.switch.AN2Switch._send_credit", FLOWCONTROL),
    ("repro.net.host.Host._accept_credit", FLOWCONTROL),
    ("repro.core.reconfig.monitor.PortMonitor.on_ack", MONITOR),
)


def resolve(dotted: str) -> Optional[Tuple[Any, str, Callable[..., Any]]]:
    """``(owner, attribute, function)`` for a dotted path, or ``None``."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class SpanRecorder:
    """Root spans from kernel dispatch, child spans from boundary wrappers."""

    def __init__(self, sample_every: int = 64) -> None:
        self.sample_every = sample_every
        self.missing: List[str] = []
        self._layer_of: Dict[Any, str] = {}
        for dotted, layer in CALLBACK_LAYERS:
            found = resolve(dotted)
            if found is None:
                self.missing.append(dotted)
            else:
                self._layer_of[found[2]] = layer
        self._installed: List[Tuple[Any, str, Callable[..., Any]]] = []
        self._sim: Any = None
        self.self_s: Dict[str, float] = {}
        self.spans: Dict[str, int] = {}
        self.boundary_calls: Dict[str, int] = {}
        self.root_events: Dict[str, int] = {}
        self.records: List[tuple] = []
        self._stack: List[list] = []
        self._id_stack: List[int] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything measured (between traced rounds)."""
        for table in (
            self.self_s, self.spans, self.boundary_calls, self.root_events
        ):
            table.clear()
        self.records.clear()
        self._tops = 0
        self._next_id = 0
        # While the open top-level span is sampled: its id, else None.
        self._sampled_root: Optional[int] = None

    # ------------------------------------------------------------------
    # boundary wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary that resolves; note the ones that do not."""
        for dotted, layer in BOUNDARIES:
            found = resolve(dotted)
            if found is None:
                self.missing.append(dotted)
                continue
            owner, attribute, original = found
            setattr(owner, attribute, self._wrap(original, dotted, layer))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def _wrap(
        self, original: Callable[..., Any], dotted: str, layer: Any
    ) -> Callable[..., Any]:
        span = self._span
        counts = self.boundary_calls
        choose = layer if callable(layer) else None

        @functools.wraps(original)
        def boundary(*args: Any, **kwargs: Any) -> Any:
            if self._sim is None:  # outside the timed region
                return original(*args, **kwargs)
            counts[dotted] = counts.get(dotted, 0) + 1
            return span(
                choose(args) if choose else layer,
                dotted, original, args, kwargs,
            )

        return boundary

    # ------------------------------------------------------------------
    # the timed region
    # ------------------------------------------------------------------
    def start(self, sim: Any) -> None:
        self._sim = sim
        sim.profiler = self

    def stop(self) -> None:
        self._sim.profiler = None
        self._sim = None

    def dispatch(self, callback: Callable[..., Any], args: tuple) -> None:
        """The kernel's profiler hook: one root span per event."""
        func = getattr(callback, "__func__", callback)
        try:
            layer = self._layer_of.get(func)
            if layer is None:
                layer = self._layer_of[func] = self._classify(func)
        except TypeError:  # unhashable callable
            layer = self._classify(func)
        self.root_events[layer] = self.root_events.get(layer, 0) + 1
        self._span(layer, layer, callback, args, {})

    @staticmethod
    def _classify(func: Any) -> str:
        module = getattr(func, "__module__", "") or ""
        for prefix, layer in MODULE_LAYERS:
            if module.startswith(prefix):
                return layer
        return OTHER

    def _span(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> Any:
        stack = self._stack
        # Top level: a dispatched event, or a call the benchmark itself
        # makes (Network.setup_circuit runs the simulator, so the events
        # it dispatches nest under it and share its sampling decision).
        top_level = not stack
        if top_level:
            self._tops += 1
            if self._tops % self.sample_every == 0:
                self._sampled_root = self._next_id
        frame = [0.0]
        stack.append(frame)
        sampled = self._sampled_root is not None
        if sampled:
            span_id = self._next_id
            self._next_id += 1
            parent = self._id_stack[-1] if self._id_stack else None
            self._id_stack.append(span_id)
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = perf_counter()
            stack.pop()
            duration = ended - started
            self.self_s[layer] = (
                self.self_s.get(layer, 0.0) + duration - frame[0]
            )
            self.spans[layer] = self.spans.get(layer, 0) + 1
            if stack:
                stack[-1][0] += duration
            if sampled:
                self._id_stack.pop()
                self.records.append(
                    (span_id, parent, self._sampled_root, name, started, ended)
                )
            if top_level:
                self._sampled_root = None

    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        """One sampled span per line; times are host seconds from the
        first sampled span's start."""
        origin = min((r[4] for r in self.records), default=0.0)
        with open(path, "w", encoding="utf-8") as stream:
            for span_id, parent, root, name, started, ended in sorted(
                self.records
            ):
                stream.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "parent": parent,
                            "root": root,
                            "name": name,
                            "start_s": started - origin,
                            "end_s": ended - origin,
                        }
                    )
                    + "\n"
                )
