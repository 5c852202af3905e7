"""Monitor + skeptic behaviour on real simulated links (via Network)."""

import pytest

from repro._types import switch_id
from repro.core.reconfig.monitor import PortMonitor
from repro.core.reconfig.skeptic import LinkVerdict, Skeptic
from repro.net.cell import PING, PING_ACK
from repro.net.link import Link
from tests.conftest import converged_line, line_with_hosts


def test_neighbor_discovery_names_peer_and_port(small_net):
    s1 = small_net.switch("s1")
    assert s1.monitors
    for index in s1.monitors:
        assert s1.neighbor(index) is not None
        neighbor_id, neighbor_port = s1.neighbor(index)
        peer = s1.port(index).peer()
        assert peer.node.node_id == neighbor_id
        assert peer.index == neighbor_port


def test_failure_detected_within_miss_budget():
    net = converged_line(3)
    config = net.switch_config
    link = net.fail_link("s0", "s1")
    t_fail = net.now
    s0 = net.switch("s0")
    monitor = s0.monitors[s0.port_facing(switch_id(1))]
    net.run_until(
        lambda: monitor.verdict is LinkVerdict.DEAD,
        timeout_us=50_000.0,
        check_interval_us=100.0,
    )
    detection = net.now - t_fail
    budget = config.ping_interval_us * (config.miss_threshold + 1) + config.ack_timeout_us
    assert detection <= budget


def test_both_ends_detect_failure():
    net = converged_line(3)
    net.fail_link("s1", "s2")

    def both_dead():
        dead = 0
        for sid in ("s1", "s2"):
            for monitor in net.switch(sid).monitors.values():
                if monitor.verdict is LinkVerdict.DEAD:
                    dead += 1
        return dead >= 2

    net.run_until(both_dead, timeout_us=50_000.0)


def test_recovery_gated_by_skeptic():
    net = converged_line(3)
    net.fail_link("s0", "s1")
    s0 = net.switch("s0")
    monitor = s0.monitors[s0.port_facing(switch_id(1))]
    net.run_until(
        lambda: monitor.verdict is LinkVerdict.DEAD, timeout_us=50_000.0
    )
    net.restore_link("s0", "s1")
    t_restore = net.now
    net.run_until(
        lambda: monitor.verdict is LinkVerdict.WORKING,
        timeout_us=200_000.0,
    )
    # Recovery must have waited at least the level-1 probation.
    assert net.now - t_restore >= net.switch_config.skeptic_base_wait_us


def test_host_link_death_does_not_trigger_reconfiguration():
    net = converged_line(3)
    tag_before = net.switch("s0").reconfig.view_tag
    net.fail_link("h0", "s0")
    net.run(50_000)
    assert net.switch("s0").reconfig.view_tag == tag_before
    # (The *host* fails over instead; see the host tests.)


def test_switch_link_death_does_trigger_reconfiguration():
    net = converged_line(4)
    tag_before = net.switch("s0").reconfig.view_tag
    net.fail_link("s1", "s2")
    net.run_until(
        lambda: net.fully_reconfigured()
        and net.switch("s0").reconfig.view_tag != tag_before,
        timeout_us=200_000.0,
    )


def test_monitor_constructor_validation():
    from repro.sim.kernel import Simulator
    from repro.net.node import Node

    class Dummy(Node):
        def on_cell(self, port, cell):
            pass

    sim = Simulator()
    node = Dummy(sim, switch_id(0), 1)
    skeptic = Skeptic()
    with pytest.raises(ValueError):
        PortMonitor(
            sim, switch_id(0), node.port(0), skeptic,
            ping_interval_us=100.0, ack_timeout_us=200.0,
        )
    with pytest.raises(ValueError):
        PortMonitor(
            sim, switch_id(0), node.port(0), skeptic, miss_threshold=0
        )


def test_ping_counters_advance():
    net = converged_line(2)
    s0 = net.switch("s0")
    counts = [
        (m.pings_sent, m.acks_received) for m in s0.monitors.values()
    ]
    assert counts and all(p > 0 and a > 0 for p, a in counts)
    net.run(10_000)
    counts_after = [
        (m.pings_sent, m.acks_received) for m in s0.monitors.values()
    ]
    assert all(
        after > before
        for (before, _), (after, _) in zip(counts, counts_after)
    )


#: when s0 declares its cable to s1 DEAD after the cut below, as
#: measured on the code that still dispatched every ack timeout.
PINNED_DEAD_VERDICT_AT = 12962.880834230276


class _DispatchCounter:
    """A ``Simulator.profiler`` hook counting dispatches per function,
    and the link deliveries of ping-loop cells."""

    def __init__(self):
        self.counts = {}
        self.ping_cells = 0

    def dispatch(self, callback, args):
        func = getattr(callback, "__func__", callback)
        self.counts[func] = self.counts.get(func, 0) + 1
        if func is Link._deliver and args[1].kind in (PING, PING_ACK):
            self.ping_cells += 1
        callback(*args)


def test_acked_pings_dispatch_no_timeout_and_a_dead_link_still_does():
    net = converged_line(3)
    config = net.switch_config
    s0 = net.switch("s0")
    monitor = s0.monitors[s0.port_facing(switch_id(1))]
    pings_before = monitor.pings_sent
    counter = _DispatchCounter()
    net.sim.profiler = counter
    net.run(20 * config.ping_interval_us)
    # The loop ran (20 pings, all acked) but in closed form: no ping,
    # ping or ack delivery, or timeout was a kernel event.
    assert monitor.pings_sent - pings_before == 20
    assert monitor.acks_received == monitor.pings_sent
    assert counter.counts.get(PortMonitor._send_ping, 0) == 0
    assert counter.counts.get(PortMonitor._check_timeout, 0) == 0
    assert counter.ping_cells == 0

    net.fail_link("s0", "s1")
    net.run_until(
        lambda: monitor.verdict is LinkVerdict.DEAD,
        timeout_us=50_000.0,
        check_interval_us=100.0,
    )
    net.sim.profiler = None
    assert counter.counts[PortMonitor._check_timeout] >= config.miss_threshold
    verdict_at, verdict = monitor.skeptic.verdict_changes[-1]
    assert verdict is LinkVerdict.DEAD
    # Cancelling acked pings' timeouts must not move when a dead link
    # is declared.
    assert verdict_at == PINNED_DEAD_VERDICT_AT
