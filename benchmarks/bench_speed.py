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

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

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


def _run_obs_overhead(traced: bool) -> SpeedResult:
    """End-to-end network traffic, with and without full observability.

    The conformance replay network (a 2x2 grid with two dual-homed
    hosts) boots and converges untimed; the timed region carries
    Poisson packet traffic over one circuit.
    The ``traced`` variant attaches a live :class:`~repro.obs.trace.Tracer`
    with every category enabled (protocol records + journey contexts on
    every cell) *after* boot, so the pair measures exactly what
    always-on diagnosis costs a hot simulation.  The
    flight recorder is attached in both variants -- it is part of the
    network's steady state by design.

    The checksum folds delivered packets with the trace record count so
    a change that silently alters what gets traced fails the comparison.
    """
    from repro.conform.digest import replay_network
    from repro.obs.trace import Tracer
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
    "obs_overhead_traced_cost": ("obs_overhead_traced", "obs_overhead_untraced"),
}
