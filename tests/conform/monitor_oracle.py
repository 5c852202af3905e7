"""The link monitors' differential: closed form vs the eager loop.

:func:`compare_monitors` runs one fault schedule on ``ring(4)`` or
``fat_tree(4)`` (the latter carrying a packet stream) twice: with every
monitor an :class:`~repro.conform.reference.EagerPortMonitor`, whose
pings, deliveries, acks and timeouts are all kernel events, and with
the monitors free to run in closed form.  The ``(time, port, verdict)``
sequence, the monitor, port and link counters, and every non-ping cell
handed to a node (time, port, kind) must be equal.  The tier-1 tests
draw schedules with :func:`monitor_schedules`; ``tools/run_conformance.py``
runs :func:`monitor_sweep` as the differential stage's fifth family.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conform.oracle import Divergence
from repro.conform.reference import EagerPortMonitor
from repro.net.cell import PING, PING_ACK
from repro.net.host import HostConfig
from repro.net.network import Network
from repro.net.topogen import fat_tree
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig
from repro.traffic.workload import PoissonPacketWorkload

#: a schedule step's action on its target link (switch, for a crash):
#: cut, restore, toggle an error rate or a drop filter that drops nothing.
MONITOR_ACTIONS = ("fail", "restore", "corrupt", "crash", "hook")
MONITOR_SPAN_US = 40_000.0


def eager_monitors(net) -> None:
    """Make every monitor of the just-started ``net`` an
    :class:`~repro.conform.reference.EagerPortMonitor` (before the first
    ack could let one rest)."""
    for node in (*net.switches.values(), *net.hosts.values()):
        for monitor in node.monitors.values():
            monitor.__class__ = EagerPortMonitor


def run_monitor_case(
    topology: str, schedule: Sequence[Tuple[float, str, int]], eager: bool
) -> Dict[str, Any]:
    """Boot ``ring4`` or ``fattree4`` (one host per edge switch and a
    packet stream between two of them) on monitors fast enough for
    skeptics to come back to rest, apply the ``(time, action, target)``
    steps over :data:`MONITOR_SPAN_US`, and return what the monitors
    decided and counted, and every non-ping cell a node was handed."""
    monitoring = dict(
        ping_interval_us=500.0, ack_timeout_us=200.0, miss_threshold=2,
        skeptic_base_wait_us=2_000.0, skeptic_decay_us=8_000.0,
    )
    net = Network(
        Topology.ring(4) if topology == "ring4"
        else fat_tree(4, hosts_per_edge=1).topology,
        switch_config=SwitchConfig(
            control_delay_us=10.0, boot_reconfig_delay_us=1_500.0,
            **monitoring,
        ),
        host_config=HostConfig(**monitoring),
    )
    cells: List[Any] = []
    nodes = sorted((*net.switches.items(), *net.hosts.items()))
    for _, node in nodes:
        def on_cell(port, cell, handle=node.on_cell) -> None:
            if cell.kind is not PING and cell.kind is not PING_ACK:
                cells.append([net.now, port.label, cell.kind.value])
            handle(port, cell)

        node.on_cell = on_cell
    net.start()
    if eager:
        eager_monitors(net)
    if net.hosts:
        net.run_until(net.converged, timeout_us=MONITOR_SPAN_US)
        hosts = sorted(net.hosts)
        circuit = net.setup_circuit(hosts[0], hosts[-1])
        PoissonPacketWorkload(
            net.sim, net.hosts[hosts[0]], circuit.vc, circuit.destination,
            mean_interval_us=1_000.0, packet_bytes=240,
            rng=net.streams.stream("conform.monitor"),
            duration_us=MONITOR_SPAN_US,
        ).start()
    links = sorted(net.links.values(), key=lambda link: link.label)
    for at, action, target in sorted(schedule):
        net.run(max(at - net.now, 0.0))
        link = links[target % len(links)]
        if action in ("fail", "restore"):
            getattr(link, action)()
        elif action == "corrupt":
            link.set_error_rate(0.0 if link.error_rate else 0.3)
        elif action == "crash":
            net.crash_switch(sorted(net.switches)[target % len(net.switches)])
        else:
            link.drop_filter = (
                None if link.drop_filter is not None
                else lambda cell: False
            )
    net.run(MONITOR_SPAN_US - net.now)
    monitors = [
        (f"{node_id}.p{index}", monitor)
        for node_id, node in nodes
        for index, monitor in sorted(node.monitors.items())
    ]
    return {
        "verdicts": sorted(
            [at, port, verdict.value] for port, monitor in monitors
            for at, verdict in monitor.skeptic.verdict_changes
        ),
        "monitors": [
            [port, monitor.pings_sent, monitor.acks_received, monitor._seq,
             monitor._misses] for port, monitor in monitors
        ],
        "links": [
            [link.label, link.state.value, link.cells_delivered,
             link.cells_dropped, link.cells_corrupted, link.port_a.cells_sent,
             link.port_a.cells_received, link.port_b.cells_sent,
             link.port_b.cells_received] for link in links
        ],
        "cells": cells,
    }


def compare_monitors(
    topology: str, schedule: Sequence[Tuple[float, str, int]]
) -> Optional[Divergence]:
    """:func:`run_monitor_case` under the eager reference and the closed
    form: the first section that differs, or ``None``."""
    reference, candidate = (
        run_monitor_case(topology, schedule, eager) for eager in (True, False)
    )
    for section in reference:
        if reference[section] != candidate[section]:
            return Divergence(
                kind="fastpath", pair="monitor", seed=0,
                size=len(candidate["links"]),
                case=f"{topology}:{section}:{list(schedule)!r}", round=-1,
                port=-1, reference=reference[section],
                candidate=candidate[section],
            )
    return None


def monitor_schedules():
    """A hypothesis strategy for :func:`compare_monitors`' arguments:
    a topology and up to six steps."""
    step = st.tuples(
        st.floats(2_000.0, MONITOR_SPAN_US * 0.75),
        st.sampled_from(MONITOR_ACTIONS),
        st.integers(0, 63),
    )
    return st.tuples(
        st.sampled_from(("ring4", "fattree4")), st.lists(step, max_size=6)
    )


def monitor_sweep(examples: int) -> List[Divergence]:
    """:func:`compare_monitors` over ``examples`` hypothesis-drawn cases,
    the same ones every run (derandomized)."""
    found: List[Divergence] = []

    @settings(max_examples=examples, derandomize=True, database=None,
              deadline=None)
    @given(monitor_schedules())
    def sweep(case) -> None:
        divergence = compare_monitors(*case)
        if divergence is not None:
            found.append(divergence)

    sweep()
    return found
