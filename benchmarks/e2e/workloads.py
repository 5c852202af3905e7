"""The four whole-``Network`` workloads.

Every workload is one :class:`Scenario`: build a topology and a
``Network`` (``topology, seed, switch_config, host_config`` only -- never
an opt-in fast path, so "fast by default" later shows as a gain), boot it,
crash and restore one switch, open circuits, and offer load.  What
differs is the fabric, the load, and which of those phases sit inside the
*timed region*: the three traffic workloads time the load only (boot, the
fault cycle and the circuits are set-up), while ``clos_control`` times
everything from ``start()`` and crashes its switch with the circuits open.

Simulated time (``*_us``) and host time (``*_s``) are kept apart
everywhere: a scenario only ever reports simulated quantities and counts;
the caller holds the stopwatch.

The circuit pattern of a traffic workload is part of its definition and is
drawn from ``PATTERN_SEED``; ``--seed`` drives what a re-run of the same
installation would vary: cable lengths (within one credit-allocation
step, so the flow-control regime is the same for every seed), arrival
times, crossbar arbitration, monitor phase jitter, which top-tier switch
crashes, and (``clos_control``) which host pairs open circuits.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.network import Network, NetworkError
from repro.net.packet import Packet
from repro.net.topogen import StructuredTopology, fat_tree, spine_leaf
from repro.switch.switch import SwitchConfig
from repro.traffic import CbrSource, RpcWorkload

PATTERN_SEED = 0xA2

#: Convergence is polled this often (simulated us) ...
POLL_US = 50.0
#: ... and must hold this long to count: a burst of skeptic verdicts
#: starts several overlapping epochs, and the view can be right between
#: two of them.  Two ping intervals outlast the burst.
SETTLE_US = 2_000.0
CONVERGE_TIMEOUT_US = 500_000.0


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample (the run that
    produced none has already counted its failures)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


def derangement(items: List, rng: random.Random) -> List:
    """A shuffle of ``items`` that leaves none in place."""
    shuffled = items[:]
    while any(a == b for a, b in zip(items, shuffled)):
        rng.shuffle(shuffled)
    return shuffled


class OpenLoopPackets:
    """``count`` packets on one circuit at seeded uniform-random times in
    ``[0, duration_us)``: a Poisson process conditioned on its count, so
    every seed offers exactly the same load and only its timing differs
    (``repro.traffic.PoissonPacketWorkload`` draws the count too, which
    makes the amount of work -- and the hot hosts' backlog -- a lottery)."""

    def __init__(
        self, sim, host, vc, destination, count, duration_us, packet_bytes, rng
    ) -> None:
        self.sim = sim
        self.host = host
        self.vc = vc
        self.destination = destination
        self.packet_bytes = packet_bytes
        self.due_us = sorted(rng.uniform(0.0, duration_us) for _ in range(count))
        self.packets_sent = 0

    def start(self) -> None:
        for due in self.due_us:
            self.sim.schedule(due, self._emit)

    def _emit(self) -> None:
        # send_packet stamps created_at with the simulated time the packet
        # was due, so latency includes any wait behind a stalled circuit.
        self.host.send_packet(
            self.vc,
            Packet(
                source=self.host.node_id,
                destination=self.destination,
                size=self.packet_bytes,
            ),
        )
        self.packets_sent += 1


class Scenario:
    """One workload run against one fresh ``Network``."""

    #: As ``BENCHMARK.json`` names the workload (its "why" is there too).
    name = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed)
        self.pattern = random.Random(PATTERN_SEED)
        #: Trunk cable length; host cables are half of it.  0.08-0.12 km
        #: keeps every link's round trip inside one credit count.
        self.trunk_km = self.rng.uniform(0.08, 0.12)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.sim_us: Dict[str, float] = {}
        self.latencies_us: List[float] = []
        self.offered_packets = 0
        #: (source, destination, simulated send time) of the set-up that
        #: ``open_best_effort`` is waiting on, if any.
        self._pending_setup: Optional[tuple] = None
        self._setup_latency_us: List[float] = []

    # -- to override ---------------------------------------------------
    def topology(self) -> StructuredTopology:
        raise NotImplementedError

    def switch_config(self) -> Optional[SwitchConfig]:
        return None

    def open_circuits(self) -> None:
        raise NotImplementedError

    def offer_load(self) -> None:
        """Start the load and run until it has drained."""
        raise NotImplementedError

    def collect(self) -> None:
        """After the load: fill ``latencies_us`` and count undelivered
        work into ``attempted`` / ``failed``."""
        raise NotImplementedError

    # -- phases --------------------------------------------------------
    def build(self) -> None:
        self.fabric = self.topology()
        self.net = Network(
            self.fabric.topology,
            seed=self.seed,
            switch_config=self.switch_config(),
            host_config=None,
        )
        for host in self.net.hosts.values():
            host.setup_received.subscribe(self._on_setup_received)

    def boot(self) -> None:
        self.net.start()
        self._converge("boot")

    def prepare(self) -> None:
        """Everything before the timed region."""
        self.build()
        self.boot()
        self.fault_cycle()
        self.open_circuits()

    def timed(self) -> None:
        self.start_clock()
        self.offer_load()

    def start_clock(self) -> None:
        """Mark where the timed region starts in simulated time."""
        self._timed_from_us = self.net.now
        self._cells_before = self._cells_received()

    def finish(self) -> None:
        """Everything after the timed region, then the correctness gate."""
        self.collect()
        # Cell payload (48 B) the modelled network delivered per simulated
        # second, from the start of the timed region to the last arrival.
        last_arrival_us = max(
            (
                arrivals[-1]
                for host in self.net.hosts.values()
                for arrivals in host.cell_arrivals.values()
                if arrivals
            ),
            default=self._timed_from_us,
        )
        span_us = last_arrival_us - self._timed_from_us
        cells = self._cells_received() - self._cells_before
        self.sim_us["goodput_mbps"] = cells * 384 / span_us if span_us else 0.0
        self.sim_us["circuit_setup_p50_us"] = percentile(
            self._setup_latency_us, 50
        )
        # The mean, not the median: on fattree_besteffort 11 of the 24
        # circuits are congested, so the median sits on the knee between
        # the two populations and swings 7-25 % from seed to seed.
        self.sim_us["pkt_latency_mean_us"] = (
            sum(self.latencies_us) / len(self.latencies_us)
            if self.latencies_us
            else 0.0
        )
        self.sim_us["pkt_latency_p99_us"] = percentile(self.latencies_us, 99)
        self._gate()

    def fault_cycle(self) -> None:
        """Crash one top-tier switch, reconverge, restore it, reconverge."""
        top = self.fabric.switches_in_tier(
            self.fabric.tier[self.fabric.default_root()]
        )
        victim = self.rng.choice(top)
        injected = self.net.now
        self.net.crash_switch(victim)
        self.sim_us["crash_reconverge_us"] = (
            self._converge("crash") - injected
        )
        injected = self.net.now
        self.net.restore_switch(victim)
        self.sim_us["restore_reconverge_us"] = (
            self._converge("restore") - injected
        )

    # -- helpers -------------------------------------------------------
    def _converge(self, what: str) -> float:
        """Run until ``fully_reconfigured()`` holds for ``SETTLE_US``;
        returns the simulated time it started to hold."""
        net = self.net
        self.attempted += 1
        deadline = net.now + CONVERGE_TIMEOUT_US
        held_since: Optional[float] = None
        while net.now < deadline:
            if net.fully_reconfigured():
                if held_since is None:
                    held_since = net.now
                elif net.now - held_since >= SETTLE_US:
                    return held_since
            else:
                held_since = None
            net.run(POLL_US)
        self._fail(f"{what}: not reconfigured within {CONVERGE_TIMEOUT_US} us")
        return net.now

    def _cells_received(self) -> int:
        return sum(h.cells_received for h in self.net.hosts.values())

    def _fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)

    def _on_setup_received(self, message) -> None:
        pending = self._pending_setup
        if pending is not None and pending[:2] == (
            getattr(message, "source", None),
            getattr(message, "destination", None),
        ):
            self._setup_latency_us.append(self.net.now - pending[2])
            self._pending_setup = None

    def open_best_effort(self, source, destination):
        """``Network.setup_circuit``, with the set-up latency taken at the
        destination's ``setup_received`` (the call itself only polls every
        100 us); ``None`` if it timed out."""
        self.attempted += 1
        self._pending_setup = (source, destination, self.net.now)
        try:
            return self.net.setup_circuit(source, destination)
        except NetworkError as error:
            self._fail(f"circuit {source}->{destination}: {error}")
            return None
        finally:
            self._pending_setup = None

    def drain(self, done: Callable[[], bool], timeout_us: float) -> None:
        """Run until ``done()`` (polled every ``POLL_US``) or the timeout;
        what is still undelivered then is counted by ``collect``."""
        net = self.net
        deadline = net.now + timeout_us
        while net.now < deadline and not done():
            net.run(POLL_US)

    def hosts(self) -> List:
        return sorted(self.net.hosts)

    def _gate(self) -> None:
        """Credits are lossless: nothing dropped, nothing mis-assembled,
        and the installation ends reconfigured."""
        net = self.net
        dropped = net.total_cells_dropped()
        if dropped:
            self._fail(f"{dropped} cells dropped", dropped)
        errors = sum(h.reassembly_errors for h in net.hosts.values())
        if errors:
            self._fail(f"{errors} reassembly errors", errors)
        if not net.fully_reconfigured():
            self._fail("not fully reconfigured at the end")

    # -- counts from the program's public statistics -------------------
    def counts(self) -> Dict[str, float]:
        net = self.net
        switches = list(net.switches.values())
        hosts = list(net.hosts.values())
        links = list(net.links.values())
        stats = [s.stats for s in switches]
        agents = [s.reconfig.stats for s in switches]
        return {
            "sim.events": net.sim.events_executed,
            "sim.now_us": net.now,
            "net.link.cells_carried": sum(l.cells_delivered for l in links),
            "net.link.data_cells_dropped": sum(
                l.data_cells_dropped for l in links
            ),
            "switch.cells_forwarded": sum(s.cells_forwarded for s in stats),
            "switch.guaranteed_forwarded": sum(
                s.guaranteed_forwarded for s in stats
            ),
            "switch.cells_dropped": sum(s.cells_dropped for s in stats),
            "core.flowcontrol.credits_sent": sum(
                s.credits_sent for s in stats
            ),
            "net.host.packets_delivered": sum(len(h.delivered) for h in hosts),
            "net.host.cells_delivered": self._cells_received(),
            "net.host.reassembly_errors": sum(
                h.reassembly_errors for h in hosts
            ),
            "core.reconfig.epochs": sum(a.initiated for a in agents),
            "core.reconfig.switch_epochs": sum(a.completions for a in agents),
            "core.routing.circuits_opened": len(net.circuits),
            "core.routing.route_installs_full": sum(
                s.route_installs_full for s in stats
            ),
            "core.routing.route_installs_incremental": sum(
                s.route_installs_incremental for s in stats
            ),
            "core.routing.reroutes": sum(s.reroutes for s in stats),
        }

    def route_cache_hit_ratio(self) -> float:
        """Hits / lookups over the route caches of the current epoch (the
        gauges are re-pointed at every reconfiguration)."""
        hits = misses = 0
        for name, probes in self.net.metrics_snapshot().items():
            if name.endswith(".routing"):
                hits += probes["gauges"].get("route_cache_hits", 0)
                misses += probes["gauges"].get("route_cache_misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
class _FatTreeTraffic(Scenario):
    """Shared by the two fat-tree workloads: the fabric and the open-loop
    960-byte packet sources."""

    def topology(self) -> StructuredTopology:
        return fat_tree(
            k=4,
            hosts_per_edge=2,
            length_km=self.trunk_km,
            host_length_km=self.trunk_km / 2,
        )

    def open_loop(self, circuit, mean_interval_us: float, duration_us: float):
        return OpenLoopPackets(
            self.net.sim,
            self.net.host(circuit.source),
            circuit.vc,
            circuit.destination,
            count=max(1, round(duration_us / mean_interval_us)),
            duration_us=duration_us,
            packet_bytes=960,
            rng=random.Random(self.rng.getrandbits(64)),
        )

    def delivered_on(self, circuits) -> List:
        """Delivered packets of the given circuits (raw CBR cells surface
        as one-byte packets on theirs)."""
        pairs = {(c.source, c.destination) for c in circuits}
        return [
            p
            for h in self.net.hosts.values()
            for p in h.delivered
            if (p.source, p.destination) in pairs
        ]


class FatTreeBestEffort(_FatTreeTraffic):
    """Open-loop packets with incast: crossbar ticks and credits under
    real output contention."""

    name = "fattree_besteffort"
    LOAD_US = 2_500.0

    def open_circuits(self) -> None:
        hosts = self.hosts()
        pairs = list(zip(hosts, derangement(hosts, self.pattern)))
        # Incast: 4 extra senders onto each of 2 hot hosts, so each hot
        # host is offered ~1.8x its 155 Mb/s link and VOQs/credits back up.
        for hot in self.pattern.sample(hosts, 2):
            others = [h for h in hosts if h != hot]
            pairs += [(s, hot) for s in self.pattern.sample(others, 4)]
        opened = [self.open_best_effort(s, d) for s, d in pairs]
        self.circuits = [c for c in opened if c is not None]

    def offer_load(self) -> None:
        load_us = self.LOAD_US * self.scale
        self.sources = [
            self.open_loop(c, 150.0, load_us) for c in self.circuits
        ]
        for source in self.sources:
            source.start()
        self.net.run(load_us)
        offered = sum(s.packets_sent for s in self.sources)
        self.drain(
            lambda: len(self.delivered_on(self.circuits)) >= offered,
            timeout_us=4 * load_us + 2_000.0,
        )

    def collect(self) -> None:
        offered = sum(s.packets_sent for s in self.sources)
        delivered = self.delivered_on(self.circuits)
        self.offered_packets = offered
        self.attempted += offered
        if len(delivered) != offered:
            self._fail(
                f"{offered - len(delivered)} of {offered} packets undelivered",
                abs(offered - len(delivered)),
            )
        # Open loop: a packet is timed from when it was due; in simulated
        # time the generator is never late.
        self.latencies_us = [p.latency for p in delivered]


class FatTreeGuaranteed(_FatTreeTraffic):
    """Paced CBR on reserved circuits: the frame-schedule path, every
    on-path switch ticking each slot with almost nothing to match."""

    name = "fattree_guaranteed"
    STREAM_US = 10_000.0
    FRAME_SLOTS = 32
    CELLS_PER_FRAME = 4

    def switch_config(self) -> SwitchConfig:
        return SwitchConfig(frame_slots=self.FRAME_SLOTS)

    def open_circuits(self) -> None:
        hosts = self.hosts()
        self.pattern.shuffle(hosts)
        # Guaranteed circuits among 12 hosts, best-effort ones in a ring
        # over the other 4.  A host that receives a guaranteed stream and
        # sends best-effort packets gets its credits on the stream's last
        # link; they keep that port busy in the stream's reserved slots
        # and its queue grows for as long as the run lasts, which would
        # make the latency tail a function of run length.
        reserved, ring = hosts[:12], hosts[12:]
        central = self.net.bandwidth_central()
        self.guaranteed = []
        for index in range(8):
            self.attempted += 1
            circuit, _ = self.net.reserve_bandwidth(
                reserved[index],
                reserved[(index + 6) % 12],
                self.CELLS_PER_FRAME,
                central=central,
            )
            self.guaranteed.append(circuit)
        opened = [
            self.open_best_effort(ring[index], ring[(index + 1) % 4])
            for index in range(4)
        ]
        self.best_effort = [c for c in opened if c is not None]
        # Reservations reach the on-path switches as control messages.
        self.net.run(1_000.0)

    def cells_received(self) -> int:
        return sum(
            self.net.host(c.destination).received_counts.get(c.vc, 0)
            for c in self.guaranteed
        )

    def offer_load(self) -> None:
        stream_us = self.STREAM_US * self.scale
        net = self.net
        # The host paces one cell every frame_slots/cells_per_frame cell
        # times of its own link; stream exactly what fits in stream_us.
        first = net.host(self.guaranteed[0].source)
        pace_us = (
            self.FRAME_SLOTS
            * first.active_port.link.cell_time_us
            / self.CELLS_PER_FRAME
        )
        self.cells_each = max(1, int(stream_us / pace_us))
        self.sources = [
            self.open_loop(c, 600.0, stream_us) for c in self.best_effort
        ]
        for circuit in self.guaranteed:
            CbrSource(net.host(circuit.source), circuit.vc).stream(
                self.cells_each
            )
        for source in self.sources:
            source.start()
        net.run(stream_us)
        cells = self.cells_each * len(self.guaranteed)
        packets = sum(s.packets_sent for s in self.sources)
        self.drain(
            lambda: self.cells_received() >= cells
            and len(self.delivered_on(self.best_effort)) >= packets,
            timeout_us=stream_us + 2_000.0,
        )

    def collect(self) -> None:
        cells = self.cells_each * len(self.guaranteed)
        packets = sum(s.packets_sent for s in self.sources)
        self.offered_packets = packets
        self.attempted += cells + packets
        got_cells = self.cells_received()
        got_packets = len(self.delivered_on(self.best_effort))
        if got_cells != cells:
            self._fail(
                f"{cells - got_cells} of {cells} guaranteed cells undelivered",
                abs(cells - got_cells),
            )
        if got_packets != packets:
            self._fail(
                f"{packets - got_packets} of {packets} packets undelivered",
                abs(packets - got_packets),
            )
        # Cell latency on the guaranteed circuits (network entry to exit).
        self.latencies_us = [
            sample
            for c in self.guaranteed
            for sample in self.net.host(c.destination)
            .cell_latency[c.vc]
            .samples()
        ]


class LeafSpineRpc(Scenario):
    """Closed-loop small packets, 16 clients: latency-bound sparse ticks
    and per-packet host cost."""

    name = "leafspine_rpc"
    CALLS = 100

    def topology(self) -> StructuredTopology:
        return spine_leaf(
            2,
            4,
            hosts_per_leaf=8,
            length_km=self.trunk_km,
            host_length_km=self.trunk_km / 2,
        )

    def open_circuits(self) -> None:
        hosts = self.hosts()
        self.pattern.shuffle(hosts)
        calls = max(1, int(self.CALLS * self.scale))
        self.clients = []
        for client, server in zip(hosts[:16], hosts[16:]):
            request = self.open_best_effort(client, server)
            response = self.open_best_effort(server, client)
            if request is None or response is None:
                continue
            self.clients.append(
                RpcWorkload(
                    self.net.sim,
                    self.net.host(client),
                    self.net.host(server),
                    request.vc,
                    response.vc,
                    n_calls=calls,
                    request_bytes=48,
                    response_bytes=480,
                    think_time_us=20.0,
                )
            )

    def offer_load(self) -> None:
        for client in self.clients:
            client.start()
        calls = sum(c.n_calls for c in self.clients)
        self.drain(
            lambda: all(c.done for c in self.clients),
            timeout_us=1_000.0 * calls,
        )

    def collect(self) -> None:
        calls = sum(c.n_calls for c in self.clients)
        completed = sum(c.calls_completed for c in self.clients)
        self.offered_packets = 2 * calls
        self.attempted += calls
        if completed != calls:
            self._fail(
                f"{calls - completed} of {calls} calls incomplete",
                calls - completed,
            )
        self.latencies_us = [rtt for c in self.clients for rtt in c.rtts]


class ClosControl(Scenario):
    """Control plane only; the one workload whose timed region starts at
    ``Network.start()`` and whose switch crashes with the circuits open."""

    name = "clos_control"
    CIRCUITS = 64
    #: One-cell probes per circuit: enough to prove the circuits carry
    #: data (and to give the latency metrics a value) without making the
    #: crossbar a visible share of the run.
    PROBES = 4

    def topology(self) -> StructuredTopology:
        return fat_tree(
            k=8,
            hosts_per_edge=1,
            length_km=self.trunk_km,
            host_length_km=self.trunk_km / 2,
        )

    def prepare(self) -> None:
        self.build()

    def timed(self) -> None:
        self.start_clock()
        self.boot()
        self.open_circuits()
        self.offer_load()
        self.fault_cycle()

    def open_circuits(self) -> None:
        # Seeded random permutations of the hosts, so that every host
        # sources and sinks the same number of circuits and the probes
        # queue equally everywhere.
        hosts = self.hosts()
        opened = []
        for _ in range(self.CIRCUITS // len(hosts)):
            opened += [
                self.open_best_effort(source, destination)
                for source, destination in zip(hosts, derangement(hosts, self.rng))
            ]
        self.circuits = [c for c in opened if c is not None]

    def offer_load(self) -> None:
        net = self.net
        for circuit in self.circuits:
            for _ in range(self.PROBES):
                net.host(circuit.source).send_packet(
                    circuit.vc,
                    Packet(
                        source=circuit.source,
                        destination=circuit.destination,
                        size=48,
                    ),
                )
        self.offered_packets = self.PROBES * len(self.circuits)
        self.drain(
            lambda: sum(len(h.delivered) for h in net.hosts.values())
            >= self.offered_packets,
            timeout_us=20_000.0,
        )

    def collect(self) -> None:
        delivered = [p for h in self.net.hosts.values() for p in h.delivered]
        self.attempted += self.offered_packets
        if len(delivered) != self.offered_packets:
            self._fail(
                f"{self.offered_packets - len(delivered)} probes undelivered",
                abs(self.offered_packets - len(delivered)),
            )
        self.latencies_us = [p.latency for p in delivered]


WORKLOADS = {
    cls.name: cls
    for cls in (FatTreeBestEffort, FatTreeGuaranteed, ClosControl, LeafSpineRpc)
}
