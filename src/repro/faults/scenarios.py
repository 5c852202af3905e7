"""Canned fault scenarios and the chaos-test generator.

Three canned scenarios map directly to the paper's claims:

- ``pull_the_plug`` -- section 1's favorite demo: crash an interior
  switch of a redundant grid mid-traffic, watch the network reconfigure
  and the dual-homed hosts see no silent corruption; plug it back in
  and watch the skeptic re-admit it.
- ``flapping_link`` -- section 2's intermittent fault: a trunk flaps
  repeatedly; the skeptic's escalating hold-downs must bound the rate
  of published verdict changes (and hence of reconfigurations).
- ``credit_loss`` -- section 5's robustness claim: drop every credit
  cell on the backbone for a while; periodic resynchronization must
  restore the windows *exactly* (conservation from cumulative
  counters).

The chaos generator builds random bi-connected topologies (a ring plus
a random chord -- no single link cut disconnects the switch core) and
random sequential plans over them, all derived from one seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.faults.plan import (
    ClockDriftStep,
    CreditLossBurst,
    ErrorRateStep,
    FaultPlan,
    LinkCut,
    LinkFlap,
    SwitchCrash,
)
from repro.faults.runner import TrafficLoad
from repro.net.host import HostConfig
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.random import RandomStreams
from repro.switch.switch import SwitchConfig


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible scenario: how to build it, and the claim."""

    name: str
    claim: str
    build: Callable[[int], Tuple[Network, FaultPlan, Tuple[TrafficLoad, ...]]]


# ======================================================================
# shared fast configuration (scenarios must finish in CI time)
# ======================================================================
def scenario_switch_config(**overrides) -> SwitchConfig:
    defaults = dict(
        frame_slots=32,
        control_delay_us=10.0,
        ping_interval_us=500.0,
        ack_timeout_us=200.0,
        miss_threshold=2,
        skeptic_base_wait_us=2_000.0,
        skeptic_max_level=4,
        skeptic_decay_us=200_000.0,
        boot_reconfig_delay_us=1_500.0,
        reconfig_watchdog_us=50_000.0,
        resync_interval_us=5_000.0,
        enable_local_reroute=True,
    )
    defaults.update(overrides)
    return SwitchConfig(**defaults)


def scenario_host_config(**overrides) -> HostConfig:
    defaults = dict(
        ping_interval_us=500.0,
        ack_timeout_us=200.0,
        miss_threshold=2,
        skeptic_base_wait_us=2_000.0,
        skeptic_max_level=4,
    )
    defaults.update(overrides)
    return HostConfig(**defaults)


def _grid_with_hosts(seed: int, **switch_overrides) -> Network:
    """A 3x3 redundant grid with two dual-homed hosts at the corners."""
    topo = Topology.grid(3, 3)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h0", "s3", port_a=1, bps=622_000_000)
    topo.connect("h1", "s8", port_a=0, bps=622_000_000)
    topo.connect("h1", "s5", port_a=1, bps=622_000_000)
    return Network(
        topo,
        seed=seed,
        switch_config=scenario_switch_config(**switch_overrides),
        host_config=scenario_host_config(),
    )


# ======================================================================
# canned scenarios
# ======================================================================
def build_pull_the_plug(seed: int = 7):
    net = _grid_with_hosts(seed)
    plan = FaultPlan.of(
        SwitchCrash(at_us=50_000.0, switch="s4", restart_at_us=350_000.0),
    )
    loads = (
        TrafficLoad(
            source="h0", destination="h1",
            packet_size=480, interval_us=4_000.0, count=100,
        ),
    )
    return net, plan, loads


def build_flapping_link(seed: int = 3):
    net = _grid_with_hosts(seed)
    # Flap an interior trunk: each down/up pair feeds the skeptic's
    # escalation; the final up must survive a 2ms * 2^level probation
    # before the link is re-admitted, so settle time must cover it.
    plan = FaultPlan.of(
        LinkFlap(
            at_us=40_000.0, a="s1", b="s4",
            flaps=5, down_us=4_000.0, up_us=2_000.0,
        ),
    )
    loads = (
        TrafficLoad(
            source="h0", destination="h1",
            packet_size=480, interval_us=5_000.0, count=60,
        ),
    )
    return net, plan, loads


def build_credit_loss(seed: int = 5):
    net = _grid_with_hosts(seed, resync_interval_us=4_000.0)
    # Lose plain credit cells on the sending host's access link and on
    # two trunks of the h0->h1 route (s0-s1-s2-s5-s8) for tens of ms;
    # resync traffic (also CREDIT kind) survives and must restore the
    # windows exactly -- the host's as much as the switches'.
    plan = FaultPlan.of(
        CreditLossBurst(
            at_us=30_000.0, a="s1", b="s2",
            duration_us=60_000.0, probability=1.0,
        ),
        CreditLossBurst(
            at_us=35_000.0, a="s2", b="s5",
            duration_us=50_000.0, probability=0.8,
        ),
        CreditLossBurst(
            at_us=40_000.0, a="h0", b="s0",
            duration_us=40_000.0, probability=1.0,
        ),
    )
    loads = (
        TrafficLoad(
            source="h0", destination="h1",
            packet_size=480, interval_us=3_000.0, count=80,
        ),
    )
    return net, plan, loads


def build_corruption_burst(seed: int = 11):
    # Wider credit windows than the default round-trip sizing: every
    # corrupted data cell is counted in flight forever by its hop's
    # credit state (the echo-based resync can only recover lost CREDIT
    # cells, not lost data), so the burst permanently shrinks the
    # window by ~1 credit per corruption.  With the default allocation
    # of 5 the VC wedges outright mid-scenario; 32 keeps it degraded
    # but alive, so the burst's cost shows as lost packets.
    net = _grid_with_hosts(seed, credit_allocation=32)
    # Two trunks of the h0->h1 data route (h0-s0-s3-s4-s5-h1 on this
    # grid) turn noisy for tens of ms: a few percent of delivered cells
    # silently corrupted.  Nothing recovers the corrupted cells: their
    # packets are lost, and the invariants must still hold.
    plan = FaultPlan.of(
        ErrorRateStep(
            at_us=30_000.0, a="s0", b="s3",
            rate=0.02, until_us=90_000.0,
        ),
        ErrorRateStep(
            at_us=40_000.0, a="s3", b="s4",
            rate=0.015, until_us=100_000.0,
        ),
    )
    loads = (
        TrafficLoad(
            source="h0", destination="h1",
            packet_size=480, interval_us=3_000.0, count=80,
        ),
    )
    return net, plan, loads


CANNED: Dict[str, Scenario] = {
    "pull_the_plug": Scenario(
        "pull_the_plug",
        "section 1: the network reconfigures after a switch crash and "
        "users see no service interruption",
        build_pull_the_plug,
    ),
    "flapping_link": Scenario(
        "flapping_link",
        "section 2: the skeptic bounds verdict changes under an "
        "intermittently failing link",
        build_flapping_link,
    ),
    "credit_loss": Scenario(
        "credit_loss",
        "section 5: credit resynchronization restores windows exactly "
        "after lost flow-control cells",
        build_credit_loss,
    ),
    "corruption_burst": Scenario(
        "corruption_burst",
        "section 5 ablation: an intermittently corrupting trunk loses "
        "packets but never mis-assembles one",
        build_corruption_burst,
    ),
}


# ======================================================================
# chaos: random topologies, random plans
# ======================================================================
def random_biconnected_topology(
    rng: random.Random,
    n_switches: int = 5,
    n_hosts: int = 2,
) -> Topology:
    """A ring of switches plus one random chord, with dual-homed hosts.

    The ring keeps the switch core connected under any single link cut
    or switch crash (a ring minus one node is a line), which is what
    lets chaos plans cut arbitrary single elements and still demand
    full reconvergence.
    """
    if n_switches < 3:
        raise ValueError("a bi-connected core needs at least 3 switches")
    topo = Topology.ring(n_switches)
    existing = {
        frozenset((a[0].num, b[0].num)) for a, b in topo.switch_edges()
    }
    for _ in range(50):  # redraw a pair that is already cabled
        a, b = rng.sample(range(n_switches), 2)
        if frozenset((a, b)) not in existing:
            topo.connect(f"s{a}", f"s{b}")
            break
    for h in range(n_hosts):
        host = topo.add_host(h)
        primary, alternate = rng.sample(range(n_switches), 2)
        topo.connect(host, f"s{primary}", port_a=0, bps=622_000_000)
        topo.connect(host, f"s{alternate}", port_a=1, bps=622_000_000)
    return topo


def random_plan(
    rng: random.Random,
    topo: Topology,
    n_faults: int = 3,
) -> FaultPlan:
    """A sequential plan of ``n_faults`` random events over ``topo``.

    Faults occupy non-overlapping 60 ms windows from 30 ms on, and every
    topology fault is restored inside its window, so the final physical
    state is fully working and full reconvergence is a fair demand.
    """
    switch_edges = topo.switch_edges()
    switches = topo.switches()
    events = []
    window_us = 60_000.0
    t = 30_000.0
    for _ in range(n_faults):
        kind = rng.choice(
            ["link_cut", "link_flap", "switch_crash", "credit_loss",
             "error_rate", "clock_drift"]
        )
        if kind == "link_cut":
            (na, _), (nb, _) = rng.choice(switch_edges)
            events.append(
                LinkCut(
                    at_us=t, a=str(na), b=str(nb),
                    restore_at_us=t + window_us * 0.6,
                )
            )
        elif kind == "link_flap":
            (na, _), (nb, _) = rng.choice(switch_edges)
            events.append(
                LinkFlap(
                    at_us=t, a=str(na), b=str(nb),
                    flaps=rng.randint(2, 4),
                    down_us=3_000.0, up_us=2_000.0,
                )
            )
        elif kind == "switch_crash":
            victim = rng.choice(switches)
            events.append(
                SwitchCrash(
                    at_us=t, switch=str(victim),
                    restart_at_us=t + window_us * 0.6,
                )
            )
        elif kind == "credit_loss":
            (na, _), (nb, _) = rng.choice(switch_edges)
            events.append(
                CreditLossBurst(
                    at_us=t, a=str(na), b=str(nb),
                    duration_us=window_us * 0.5,
                    probability=rng.uniform(0.5, 1.0),
                )
            )
        elif kind == "error_rate":
            (na, _), (nb, _) = rng.choice(switch_edges)
            events.append(
                ErrorRateStep(
                    at_us=t, a=str(na), b=str(nb),
                    rate=rng.uniform(0.001, 0.02),
                    until_us=t + window_us * 0.5,
                )
            )
        else:
            victim = rng.choice(switches)
            events.append(
                ClockDriftStep(
                    at_us=t, switch=str(victim),
                    drift_ppm=rng.uniform(-200.0, 200.0),
                )
            )
        t += window_us
    return FaultPlan(tuple(events))


def build_random_scenario(
    seed: int,
    n_faults: int = 3,
):
    """A full random chaos scenario derived from one seed.

    Deprecation note: this used to seed a single bare ``random.Random``
    shared across topology and plan generation; it now draws named
    substreams from :class:`repro.sim.random.RandomStreams` so the chaos
    topology and the fault plan are independent per-component streams
    (adding a fault kind no longer perturbs the topology).  The ``seed``
    parameter keeps its meaning.
    """
    streams = RandomStreams(seed)
    rng = streams.stream("chaos.shape")
    n = rng.randint(4, 6)
    topo = random_biconnected_topology(
        streams.stream("chaos.topology"), n_switches=n
    )
    net = Network(
        topo,
        seed=seed,
        switch_config=scenario_switch_config(),
        host_config=scenario_host_config(),
    )
    plan = random_plan(streams.stream("chaos.plan"), topo, n_faults=n_faults)
    loads = (
        TrafficLoad(
            source="h0", destination="h1",
            packet_size=480, interval_us=5_000.0,
            count=max(20, int(plan.end_us / 5_000.0)),
        ),
    )
    return net, plan, loads
