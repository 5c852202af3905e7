"""Run digests: replayability as a checkable artifact.

A :class:`RunDigest` is a streaming SHA-256 over the kernel's event
dispatch order -- attached via ``Simulator.digest``, it observes every
executed event's ``(time, seq, callback identity)`` -- plus any number of
end-of-run component state *fingerprints* absorbed with
:meth:`RunDigest.absorb`.  Two runs that report the same hex digest
dispatched the same events in the same order and ended in the same
component state (switch routing tables, VOQ occupancy, credit balances,
epoch tags).

Everything hashed here must be *stable across interpreter invocations*:
no ``id()``-derived values, no ``PYTHONHASHSEED``-dependent ``set``/
``dict`` iteration order.  :func:`canonical_bytes` therefore refuses any
object it does not know how to order canonically, rather than falling
back to ``repr`` (whose default form embeds memory addresses).

The fingerprint helpers reach into private attributes of the switch data
structures (``RoutingTable._entries``, ``VcQueues._queues``, ...).  That
is deliberate: a fingerprint must see the real state, not a summarizing
accessor that could mask divergence.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Callable, Dict, List, Optional

from repro._types import NodeId
from repro.core.reconfig.epoch import EpochTag
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.kernel import Simulator


# ======================================================================
# canonical serialization
# ======================================================================
def canonical_bytes(obj: Any) -> bytes:
    """A deterministic byte encoding of a plain-data structure.

    Supports ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
    ``list``/``tuple`` (order preserved), ``set``/``frozenset`` (elements
    sorted by their own canonical encoding), and ``dict`` (items sorted
    by the key's canonical encoding).  Anything else -- a ``NodeId`` or
    ``EpochTag`` too, though both are tuples -- raises ``TypeError``
    -- fingerprint builders must reduce component state to plain data
    first, which is what keeps memory addresses and hash-order artifacts
    out of the digest.
    """
    return _canon(obj).encode("utf-8")


def _canon(obj: Any) -> str:
    if obj is None:
        return "N"
    if isinstance(obj, bool):
        return "T" if obj else "F"
    if isinstance(obj, int):
        return f"i{obj}"
    if isinstance(obj, float):
        return f"f{obj!r}"
    if isinstance(obj, str):
        return f"s{len(obj)}:{obj}"
    if isinstance(obj, bytes):
        return f"b{len(obj)}:{obj.hex()}"
    # Tuples underneath, but values, not plain data: refused below with
    # every other component object.
    if isinstance(obj, (list, tuple)) and not isinstance(obj, (NodeId, EpochTag)):
        return "[" + ",".join(_canon(item) for item in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(item) for item in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted((_canon(k), _canon(v)) for k, v in obj.items())
        return "(" + ",".join(f"{k}={v}" for k, v in items) + ")"
    raise TypeError(
        f"canonical_bytes cannot encode {type(obj).__name__}; reduce it "
        f"to plain data (str/int/float/list/dict/...) first"
    )


# ======================================================================
# the digest itself
# ======================================================================
class RunDigest:
    """Streaming hash of dispatch order + absorbed state fingerprints."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events_observed = 0
        #: labels absorbed so far, in order (diagnostics; two digests can
        #: only be meaningfully compared if these match).
        self.sections: List[str] = []

    # -- kernel hook ---------------------------------------------------
    @staticmethod
    def callback_name(callback: Callable[..., Any]) -> str:
        """A run-stable identity for an event callback.

        Bound methods of components that carry a ``node_id`` include it
        (``s3:AN2Switch._slot_tick``), so the digest distinguishes *whose*
        timer fired, not just which method.  Never identity-based.
        """
        qualname = getattr(callback, "__qualname__", None)
        if qualname is None:
            qualname = type(callback).__name__
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            node = getattr(owner, "node_id", None)
            if node is not None:
                return f"{node}:{qualname}"
        return qualname

    def observe(
        self, time: float, seq: int, callback: Callable[..., Any]
    ) -> None:
        """Fold one executed event into the digest (called by the kernel)."""
        self._hash.update(struct.pack("<dq", time, seq))
        self._hash.update(self.callback_name(callback).encode("utf-8"))
        self._hash.update(b"\x00")
        self.events_observed += 1

    # -- state fingerprints --------------------------------------------
    def absorb(self, label: str, payload: Any) -> None:
        """Fold a labelled state fingerprint (plain data) into the digest."""
        self._hash.update(b"\x01")
        self._hash.update(label.encode("utf-8"))
        self._hash.update(b"\x02")
        self._hash.update(canonical_bytes(payload))
        self.sections.append(label)

    def hexdigest(self) -> str:
        """Current digest value (does not finalize; may keep observing)."""
        return self._hash.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RunDigest events={self.events_observed} "
            f"sections={len(self.sections)} {self.hexdigest()[:12]}>"
        )


# ======================================================================
# component state fingerprints
# ======================================================================
def _edge_str(edge) -> str:
    (na, pa), (nb, pb) = edge
    return f"{na}.{pa}-{nb}.{pb}"


def _windows(endpoint) -> List[List[int]]:
    return [
        [int(vc), u.balance, u.cells_sent, u.credits_received,
         u.excess_credits, u.stalls]
        for vc, u in sorted(endpoint.upstream.items())
    ]


def _pools(endpoint) -> List[List[int]]:
    return [
        [int(vc), d.occupied, d.cells_received, d.buffers_freed]
        for vc, d in sorted(endpoint.downstream.items())
    ]


def fingerprint_switch(switch) -> Dict[str, Any]:
    """Plain-data fingerprint of one AN2 switch's end-of-run state.

    Covers the determinism contract's switch-side state: routing tables,
    VOQ/guaranteed occupancy and rotation order, per-VC credit balances
    and cumulative counters, resync state, epoch tags, and the forwarding
    statistics.
    """
    agent = switch.reconfig
    view = agent.view
    cards = []
    for card in switch.cards:
        table = card.routing_table
        routing = [
            [
                int(vc),
                entry.out_port,
                entry.cells_forwarded,
            ]
            for vc, entry in sorted(table._entries.items())
        ]
        voq_groups = [
            [out_port, sorted([int(vc), len(q)] for vc, q in group.items())]
            for out_port, group in sorted(card.vc_queues._queues.items())
        ]
        rotations = [
            [out_port, [int(vc) for vc in rotation]]
            for out_port, rotation in sorted(card.vc_queues._rotation.items())
        ]
        cards.append(
            {
                "index": card.index,
                "routing": routing,
                "paged": sorted(
                    int(c.vc) for c in switch.circuits.values()
                    if c.state == "paged" and c.card is card
                ),
                "pending": sorted(
                    [int(vc), len(cells)]
                    for vc, cells in table._pending.items()
                ),
                "pending_drops": table.pending_drops,
                "voq_occupancy": card.vc_queues.occupancy,
                "voq_groups": voq_groups,
                "voq_rotation": rotations,
                "guaranteed": sorted(
                    [out_port, len(q)]
                    for out_port, q in card.guaranteed_queues._queues.items()
                ),
                "upstream": _windows(card.credits),
                "downstream": _pools(card.credits),
                # Always the keys of "upstream" (one record per window);
                # the entry stays so the frozen digests do.
                "resync_vcs": sorted(int(vc) for vc in card.upstream),
                "cells_forwarded": card.cells_forwarded,
                "cells_dropped": card.cells_dropped,
            }
        )
    stats = switch.stats
    return {
        "node": str(switch.node_id),
        "slot_index": switch.slot_index,
        "vc_in_port": sorted(
            [int(vc), c.in_port] for vc, c in switch.circuits.items()
            if c.state == "active"
        ),
        "epoch": {
            "stored_tag": str(agent.stored_tag),
            "view_tag": None if agent.view_tag is None else str(agent.view_tag),
            "tree_depth": agent.tree_depth,
            "active": agent.active,
            "view_edges": (
                None if view is None
                else sorted(_edge_str(e) for e in view.edges)
            ),
        },
        "stats": {
            "cells_forwarded": stats.cells_forwarded,
            "guaranteed_forwarded": stats.guaranteed_forwarded,
            "cells_dropped": stats.cells_dropped,
            "pending_buffered": stats.pending_buffered,
            "credits_sent": stats.credits_sent,
            "page_outs": stats.page_outs,
            "page_ins": stats.page_ins,
            "reroutes": stats.reroutes,
            "broken_circuits": stats.broken_circuits,
            "per_output": sorted(
                [port, n] for port, n in stats.per_output_forwarded.items()
            ),
        },
        "cards": cards,
    }


def fingerprint_network(net: Network) -> Dict[str, Any]:
    """Plain-data fingerprint of a whole network's end-of-run state."""
    return {
        "now": net.sim.now,
        "events_executed": net.sim.events_executed,
        "switches": [
            fingerprint_switch(s) for _, s in sorted(net.switches.items())
        ],
        "links": sorted(
            [
                _edge_str(edge),
                link.state.value,
                link.cells_delivered,
                link.cells_dropped,
                link.cells_corrupted,
            ]
            for edge, link in net.links.items()
        ),
        "hosts": [
            {
                "node": str(node),
                "open_vcs": sorted(int(vc) for vc in host.senders),
                "queued_cells": sorted(
                    [int(vc), len(sender.queue)]
                    for vc, sender in host.senders.items()
                ),
                "credits": [
                    [_windows(endpoint), _pools(endpoint)]
                    for endpoint in host.credits
                ],
            }
            for node, host in sorted(net.hosts.items())
        ],
    }


# ======================================================================
# the canonical digest scenario
# ======================================================================
def replay_network(seed: int = 0) -> Network:
    """The reference replay installation, built but not started: a 2x2
    redundant grid with two dual-homed hosts on fast-converging configs."""
    from repro.net.host import HostConfig
    from repro.switch.switch import SwitchConfig

    topo = Topology.grid(2, 2)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h0", "s2", port_a=1, bps=622_000_000)
    topo.connect("h1", "s3", port_a=0, bps=622_000_000)
    topo.connect("h1", "s1", port_a=1, bps=622_000_000)
    return Network(
        topo,
        seed=seed,
        switch_config=SwitchConfig(
            frame_slots=32,
            control_delay_us=10.0,
            ping_interval_us=500.0,
            ack_timeout_us=200.0,
            miss_threshold=2,
            boot_reconfig_delay_us=1_500.0,
            resync_interval_us=5_000.0,
        ),
        host_config=HostConfig(
            ping_interval_us=500.0,
            ack_timeout_us=200.0,
            miss_threshold=2,
        ),
    )


def run_replay_traffic(net: Network, duration_us: float) -> None:
    """Boot ``net`` (a :func:`replay_network`), converge, and carry
    Poisson traffic over one h0 -> h1 circuit for ``duration_us``."""
    from repro.traffic.workload import PoissonPacketWorkload

    net.start()
    net.run_until(net.converged, timeout_us=duration_us)
    circuit = net.setup_circuit("h0", "h1")
    workload = PoissonPacketWorkload(
        net.sim,
        net.host("h0"),
        circuit.vc,
        circuit.destination,
        mean_interval_us=400.0,
        packet_bytes=480,
        rng=net.streams.stream("conform.digest.workload"),
        duration_us=duration_us * 0.5,
    )
    workload.start()
    net.run(duration_us)


def digest_scenario(
    seed: int = 0,
    duration_us: float = 80_000.0,
    flight_dump: Optional[str] = None,
) -> str:
    """Build, run, and digest the reference replay scenario.

    :func:`replay_network` boots, converges, and carries Poisson traffic
    over one circuit for ``duration_us``.  The returned hex digest folds
    together the full event dispatch order and the end-of-run
    :func:`fingerprint_network`; it must be identical for the same
    ``seed`` across repeated runs, interpreter invocations, and
    ``PYTHONHASHSEED`` values.

    ``flight_dump``, if given, is a path to write the network's
    flight-recorder rings to after the run -- the conformance gate uses
    it to leave an autopsy artifact when digests diverge.
    """
    net = replay_network(seed)
    digest = RunDigest()
    net.sim.digest = digest
    run_replay_traffic(net, duration_us)
    net.sim.digest = None
    digest.absorb("network-state", fingerprint_network(net))
    if flight_dump is not None:
        net.recorder.dump(
            flight_dump,
            reason=f"conformance replay (seed={seed}) "
            f"digest={digest.hexdigest()[:16]}",
        )
    return digest.hexdigest()
