"""Fixed speed workloads for the persistent performance baseline.

Unlike the ``bench_e*``/``bench_a*`` experiment benchmarks (which
reproduce the paper's *results*), this module defines a small set of
frozen *wall-clock* workloads whose timings are committed to
``BENCH_speed.json`` at the repo root by ``tools/run_speed_bench.py``.
Future PRs run ``make bench-speed`` to detect hot-loop regressions
against that baseline.

Design rules for every workload here:

- **Frozen inputs.**  Topologies and fault patterns come from
  fixed seeds and are built outside the timed region.
- **Work checksums.**  Each workload returns a deterministic checksum of
  the work done (cells delivered, events executed).  The runner refuses
  to compare timings whose checksums differ -- a speedup that changes
  the work done is a bug, not an optimisation.

Every workload times something a ``Network`` runs; the crossbar tick is
measured end to end by ``benchmarks/e2e`` (``BENCHMARK.json``), not here.
"""

from __future__ import annotations

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
    """

    name: str
    description: str
    run: Callable[[], SpeedResult]
    quick: bool = False


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
    shortest_legal_path = computer.orientation.shortest_legal_path
    checksum = 0
    start = time.perf_counter()
    for _ in range(rounds):
        for source, destination in pairs:
            checksum += len(shortest_legal_path(source, destination)[1])
    elapsed = time.perf_counter() - start
    return SpeedResult(elapsed, checksum)


def _run_obs_overhead(traced: bool) -> SpeedResult:
    """End-to-end network traffic, with and without full observability.

    The conformance replay network (a 2x2 grid with two dual-homed
    hosts) boots and converges untimed; the timed region carries
    Poisson packet traffic over one circuit.
    The ``traced`` variant attaches a live :class:`~repro.obs.Tracer`
    with every category enabled (protocol records + journey contexts on
    every cell) *after* boot, so the pair measures exactly what
    always-on diagnosis costs a hot simulation.  The
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
        "Network: same traffic with full Tracer (journey) attached",
        lambda: _run_obs_overhead(True),
        quick=True,
    ),
]

# (slow workload, fast workload) pairs whose best-time ratio the runner
# derives and stores alongside the raw timings.
SPEEDUP_PAIRS: Dict[str, Tuple[str, str]] = {
    "route_cache_speedup_n24": ("route_cache_off_n24", "route_cache_on_n24"),
    "obs_overhead_traced_cost": ("obs_overhead_traced", "obs_overhead_untraced"),
}
