"""Fixed speed workloads for the persistent performance baseline.

Unlike the ``bench_e*``/``bench_a*`` experiment benchmarks (which
reproduce the paper's *results*), this module defines a small set of
frozen *wall-clock* workloads whose timings are committed to
``BENCH_speed.json`` at the repo root by ``tools/run_speed_bench.py``.
Future PRs run ``make bench-speed`` to detect hot-loop regressions
against that baseline.

Design rules for every workload here:

- **Frozen inputs.**  Topologies, deltas and fault patterns come from
  fixed seeds and are built outside the timed region.
- **Work checksums.**  Each workload returns a deterministic checksum of
  the work done (cells delivered, events executed).  The runner refuses
  to compare timings whose checksums differ -- a speedup that changes
  the work done is a bug, not an optimisation.

Every workload times something a ``Network`` runs; the crossbar tick is
measured end to end by ``benchmarks/e2e`` (``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.sim.kernel import Simulator

TRACE_SEED = 42


@dataclass(frozen=True)
class SpeedResult:
    """One timed execution of a workload."""

    seconds: float
    checksum: int


@dataclass(frozen=True)
class SpeedWorkload:
    """A frozen, repeatable timed workload.

    ``quick`` marks the cheap workloads the CI smoke job times on every
    push (``run_speed_bench.py --quick``); the full set runs locally via
    ``make bench-speed``.

    ``min_cpus`` is the CPU count the workload's *timing* assumes
    (parallel-speedup workloads need real cores to beat their serial
    twin).  On hosts with fewer CPUs the runner still executes the
    workload and still enforces its checksum, but treats its timing --
    and any speedup pair built on it -- as informational rather than a
    gating comparison.
    """

    name: str
    description: str
    run: Callable[[], SpeedResult]
    quick: bool = False
    min_cpus: int = 1


def _run_kernel_storm(n_events: int, cancel_every: int) -> SpeedResult:
    """Schedule/cancel storm: the credit-timer / skeptic-hold-down shape.

    Schedules ``n_events`` timers and cancels all but every
    ``cancel_every``-th before running, so the lazy-cancel compaction and
    the O(1) ``pending()`` counter are both on the timed path.
    """
    sim = Simulator()
    executed = [0]

    def fire() -> None:
        executed[0] += 1

    rng = random.Random(TRACE_SEED)
    start = time.perf_counter()
    events = [
        sim.schedule_at(rng.random() * 1000.0, fire) for _ in range(n_events)
    ]
    for index, event in enumerate(events):
        if index % cancel_every:
            event.cancel()
        _ = sim.pending()
    sim.run()
    elapsed = time.perf_counter() - start
    checksum = executed[0] * 1_000_000 + sim.compactions
    return SpeedResult(elapsed, checksum)


def _run_route_queries(
    n_switches: int, rounds: int, cached: bool
) -> SpeedResult:
    """Circuit-setup-heavy routing: every ordered switch pair queried
    ``rounds`` times over one epoch's orientation.

    This is the signaling layer's shape -- each circuit setup asks the
    same RouteComputer for a path, and popular pairs repeat constantly
    within an epoch.  The ``cached=False`` leg replaces the orientation's
    epoch-keyed path memo with a straight call to the BFS; the checksum
    (total path edges) must be identical either way, because the memo
    may only change how often the BFS runs.
    """
    from repro.core.routing.paths import RouteComputer
    from repro.net.topology import Topology
    from repro.sim.random import derived_stream

    topo = Topology.random_connected(
        n_switches,
        extra_edges=n_switches // 2,
        rng=derived_stream("bench/route_cache", TRACE_SEED),
    )
    view = topo.view()
    switches = view.switches()
    pairs = [(a, b) for a in switches for b in switches if a != b]
    computer = RouteComputer(view, switches[0])
    if not cached:
        computer.orientation._cached = (
            lambda kind, source, destination, compute: compute(
                source, destination
            )
        )
    switch_route = computer.switch_route
    checksum = 0
    start = time.perf_counter()
    for _ in range(rounds):
        for source, destination in pairs:
            checksum += len(switch_route(source, destination)[1])
    elapsed = time.perf_counter() - start
    return SpeedResult(elapsed, checksum)


def _run_link_retx(guarded: bool, bursts: int, burst_size: int) -> SpeedResult:
    """Link-local retransmission guard over a deterministically noisy link.

    Same-instant cell bursts over a long link; every 7th cell is
    corrupted exactly once (payload-keyed, once-only, so a guarded
    resend of the same cell survives the filter).  The unguarded variant
    surfaces the corruption as plain loss; the guarded one attaches a
    :class:`~repro.solutions.link_retx.LinkRetxGuard` and recovers every
    cell via NACK/resend plus resequencing.  Their ratio is what a
    recovering link costs over a lossy one on the same wire -- the
    number the A6 solutions study leans on.  The guarded checksum folds
    the recovered count in with the delivered count so a silent change
    to the recovery path fails the comparison.
    """
    from repro._types import parse_node_id
    from repro.net.cell import Cell
    from repro.net.link import Link
    from repro.net.node import Node
    from repro.solutions.link_retx import LinkRetxGuard

    class _Sink(Node):
        def __init__(self, sim: Simulator, name: str) -> None:
            super().__init__(sim, parse_node_id(name), 1)
            self.count = 0

        def on_cell(self, port, cell) -> None:
            self.count += 1

    sim = Simulator()
    node_a = _Sink(sim, "h0")
    node_b = _Sink(sim, "h1")
    link = Link(sim, node_a.port(0), node_b.port(0), length_km=2.0)
    corrupted: set = set()

    def corrupt_once(cell: Cell) -> bool:
        tag = cell.payload
        if isinstance(tag, int) and tag % 7 == 0 and tag not in corrupted:
            corrupted.add(tag)
            return True
        return False

    link.drop_filter = corrupt_once
    guard = (
        LinkRetxGuard(link, buffer_cells=4 * burst_size) if guarded else None
    )

    tag_counter = [0]

    def burst() -> None:
        for _ in range(burst_size):
            link.transmit(0, Cell(vc=0, payload=tag_counter[0]))
            tag_counter[0] += 1

    gap_us = 60.0
    for index in range(bursts):
        sim.schedule_at(1.0 + index * gap_us, burst)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    checksum = node_b.count * 1_000_000 + (guard.recovered if guard else 0)
    return SpeedResult(elapsed, checksum)


def _run_obs_overhead(traced: bool) -> SpeedResult:
    """End-to-end network traffic, with and without full observability.

    The conformance replay network (a 2x2 grid with two dual-homed
    hosts) boots and converges untimed; the timed region carries
    Poisson packet traffic over one circuit.
    The ``traced`` variant attaches a live :class:`~repro.obs.Tracer`
    with every category enabled (kernel instrumentation swap + journey
    contexts on every sampled cell) *after* boot, so the pair measures
    exactly what always-on diagnosis costs a hot simulation.  The
    flight recorder is attached in both variants -- it is part of the
    network's steady state by design.

    The checksum folds delivered packets with the trace record count so
    a change that silently alters what gets traced fails the comparison.
    """
    from repro.conform.digest import replay_network
    from repro.obs import Tracer
    from repro.traffic.workload import PoissonPacketWorkload

    net = replay_network(TRACE_SEED)
    net.start()
    net.run_until(net.converged, timeout_us=40_000.0)
    circuit = net.setup_circuit("h0", "h1")
    tracer = Tracer() if traced else None
    if tracer is not None:
        net.sim.tracer = tracer
    workload = PoissonPacketWorkload(
        net.sim,
        net.host("h0"),
        circuit.vc,
        circuit.destination,
        mean_interval_us=150.0,
        packet_bytes=960,
        rng=net.streams.stream("bench.obs_overhead.workload"),
        duration_us=30_000.0,
    )
    workload.start()
    start = time.perf_counter()
    net.run(40_000.0)
    elapsed = time.perf_counter() - start
    delivered = len(net.host("h1").delivered)
    checksum = delivered * 1_000_000 + (len(tracer) if tracer else 0)
    return SpeedResult(elapsed, checksum)


def _run_topo_delta(k: int, n_deltas: int, incremental: bool) -> SpeedResult:
    """Single-edge reconfigurations on a k-ary fat-tree at datacenter scale.

    A ``fat_tree(k)`` fabric (k=32 -> 1280 switches, 16384 switch cables)
    and its up*/down* orientation are built untimed; the timed region
    applies ``n_deltas`` distinct single-cable-failure deltas to the
    *base* orientation, either by repairing it incrementally
    (:meth:`UpDownOrientation.apply_delta`) or by rebuilding the
    orientation of the new view from scratch -- the epoch install path's
    two strategies.  The checksum folds every result's
    ``structure_digest()``, so the incremental and rebuild workloads
    MUST produce the same checksum: the runner's checksum equality check
    doubles as the digest-exactness proof for the incremental repair.
    """
    from repro.core.routing.updown import UpDownOrientation
    from repro.net.topogen import fat_tree
    from repro.net.topology import TopologyDelta

    structured = fat_tree(k)
    view = structured.view()
    root = structured.default_root()
    base = UpDownOrientation(view, root)
    switch_edges = sorted(
        edge
        for edge in view.edges
        if edge[0][0].is_switch and edge[1][0].is_switch
    )
    rng = random.Random(TRACE_SEED)
    deltas = [
        TopologyDelta(removed=frozenset([edge]))
        for edge in rng.sample(switch_edges, n_deltas)
    ]
    repaired: List[UpDownOrientation] = []
    start = time.perf_counter()
    for delta in deltas:
        if incremental:
            repaired.append(base.apply_delta(delta))
        else:
            repaired.append(UpDownOrientation(delta.apply_to(view), root))
    elapsed = time.perf_counter() - start
    # Digesting is verification, not repair: fold it outside the timer
    # (like _run_sweep) so the pair compares the recompute hot loop only.
    folded = hashlib.sha256()
    for orientation in repaired:
        folded.update(orientation.structure_digest().encode("ascii"))
    return SpeedResult(elapsed, int.from_bytes(folded.digest()[:8], "big"))


WORKLOADS: List[SpeedWorkload] = [
    SpeedWorkload(
        "kernel_schedule_cancel_storm",
        "Simulator: 200k timers, 90% cancelled, pending() polled per cancel",
        lambda: _run_kernel_storm(200_000, 10),
    ),
    SpeedWorkload(
        "route_cache_off_n24",
        "RouteComputer: all switch pairs x40 rounds, N=24, path memo off",
        lambda: _run_route_queries(24, 40, cached=False),
        quick=True,
    ),
    SpeedWorkload(
        "route_cache_on_n24",
        "RouteComputer: all switch pairs x40 rounds, N=24, path memo on",
        lambda: _run_route_queries(24, 40, cached=True),
        quick=True,
    ),
    SpeedWorkload(
        "obs_overhead_untraced",
        "Network: 2x2 grid + 2 hosts, Poisson traffic, no tracer attached",
        lambda: _run_obs_overhead(False),
        quick=True,
    ),
    SpeedWorkload(
        "obs_overhead_traced",
        "Network: same traffic with full Tracer (kernel + journey) attached",
        lambda: _run_obs_overhead(True),
        quick=True,
    ),
    SpeedWorkload(
        "topo_rebuild_fattree_k32",
        "UpDownOrientation: 8 single-cable deltas, k=32 fat-tree (1280 sw), full rebuild each",
        lambda: _run_topo_delta(32, 8, incremental=False),
        quick=True,
    ),
    SpeedWorkload(
        "topo_incremental_fattree_k32",
        "UpDownOrientation: same 8 deltas on the same fabric, incremental apply_delta",
        lambda: _run_topo_delta(32, 8, incremental=True),
        quick=True,
    ),
    SpeedWorkload(
        "link_retx_unguarded",
        "Link: 1k bursts of 24 cells, every 7th corrupted once, plain loss",
        lambda: _run_link_retx(False, 1_000, 24),
        quick=True,
    ),
    SpeedWorkload(
        "link_retx_guarded",
        "Link: same noisy bursts behind a LinkRetxGuard (NACK/resend/reseq)",
        lambda: _run_link_retx(True, 1_000, 24),
        quick=True,
    ),
]

# (slow workload, fast workload) pairs whose best-time ratio the runner
# derives and stores alongside the raw timings.
SPEEDUP_PAIRS: Dict[str, Tuple[str, str]] = {
    "route_cache_speedup_n24": ("route_cache_off_n24", "route_cache_on_n24"),
    "topo_incremental_vs_rebuild": (
        "topo_rebuild_fattree_k32",
        "topo_incremental_fattree_k32",
    ),
    "obs_overhead_traced_cost": ("obs_overhead_traced", "obs_overhead_untraced"),
    "link_retx_recovery_cost": ("link_retx_guarded", "link_retx_unguarded"),
}
