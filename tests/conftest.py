"""Shared test helpers: small pre-wired networks."""

from __future__ import annotations

import pytest

from repro.core.flowcontrol.resync import ResyncReply, ResyncRequest
from repro.net.cell import CellKind
from repro.net.host import HostConfig
from repro.net.network import Network
from repro.net.topology import Topology
from repro.switch.an1 import An1Config
from repro.switch.switch import SwitchConfig


def fast_switch_config(**overrides) -> SwitchConfig:
    """A configuration tuned for quick tests: short frames, snappy
    monitoring, small skeptic hold-downs."""
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
    )
    defaults.update(overrides)
    return SwitchConfig(**defaults)


def fast_host_config(**overrides) -> HostConfig:
    defaults = dict(
        ping_interval_us=500.0,
        ack_timeout_us=200.0,
        miss_threshold=2,
        skeptic_base_wait_us=2_000.0,
        skeptic_max_level=4,
    )
    defaults.update(overrides)
    return HostConfig(**defaults)


def fast_an1_config(**overrides) -> An1Config:
    """The AN1 counterpart of :func:`fast_switch_config`."""
    defaults = dict(
        ping_interval_us=500.0,
        ack_timeout_us=200.0,
        miss_threshold=2,
        skeptic_base_wait_us=2_000.0,
        skeptic_max_level=4,
        boot_reconfig_delay_us=1_500.0,
        reconfig_watchdog_us=50_000.0,
    )
    defaults.update(overrides)
    return An1Config(**defaults)


def line_with_hosts(
    n_switches: int = 3,
    seed: int = 1,
    drift_ppm: float = 0.0,
    **config_overrides,
) -> Network:
    """h0 - s0 - s1 - ... - s(n-1) - h1, all fast links, booted nowhere."""
    topo = Topology.line(n_switches)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", f"s{n_switches - 1}", port_a=0, bps=622_000_000)
    return Network(
        topo,
        seed=seed,
        switch_config=fast_switch_config(**config_overrides),
        host_config=fast_host_config(),
        drift_ppm=drift_ppm,
    )


def converged_line(n_switches: int = 3, seed: int = 1, **overrides) -> Network:
    net = line_with_hosts(n_switches, seed=seed, **overrides)
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


def plain_credit_filter(rng, probability):
    """A ``Link.drop_filter`` that drops plain credit returns (not resync
    messages) with the given probability -- resync must survive to do
    its job, as it would in the real design where resync exchanges are
    retried anyway."""

    def predicate(cell):
        if cell.kind is not CellKind.CREDIT:
            return False
        if isinstance(cell.payload, (ResyncRequest, ResyncReply)):
            return False
        return rng.random() < probability

    return predicate


@pytest.fixture
def small_net() -> Network:
    """A converged 3-switch line with a host on each end."""
    return converged_line(3)
