"""A control cell is one link event at arrival plus the receiver's
processing delay, and the cable's fate is judged at arrival.

Two AN2 switches on one cable, not booted (no monitors, no
reconfiguration): the test sends single cells by hand and records when
the receiving switch's handler runs.
"""

import pytest

from repro.constants import PING_REPLY_DELAY_US
from repro.core.reconfig.monitor import PingPayload
from repro.net.cell import Cell, CellKind
from repro.net.network import Network
from repro.net.topology import Topology
from tests.conftest import fast_switch_config

#: cell kind -> the receiving switch's handler the cell reaches.
HANDLERS = {
    CellKind.RECONFIG: "_handle_reconfig",
    CellKind.SIGNALING: "_handle_signaling",
    CellKind.PING: "_reply_ping",
}


def two_switches():
    net = Network(Topology.line(2), seed=1, switch_config=fast_switch_config())
    link = net.link_between("s0", "s1")
    sender, receiver = link.port_a, link.port_b
    handled = []

    def record(port_index, message):
        handled.append((net.sim.now, message))

    for name in HANDLERS.values():
        setattr(receiver.node, name, record)
    return net, link, sender, receiver, handled


def send_one(kind, sender):
    payload = PingPayload(sender.node.node_id, sender.index, 1)
    sender.send(Cell(0, kind, payload=payload))
    return payload


def delay_of(kind, net):
    if kind is CellKind.PING:
        return PING_REPLY_DELAY_US
    return net.switch_config.control_delay_us


@pytest.mark.parametrize("kind", list(HANDLERS), ids=lambda k: k.name)
class TestCableFateAtArrival:
    def test_healthy_cable_costs_one_event(self, kind):
        net, link, sender, _, handled = two_switches()
        payload = send_one(kind, sender)
        arrival = link.next_free(0) + link.latency_us
        net.sim.run()
        assert handled == [(arrival + delay_of(kind, net), payload)]
        assert net.sim.events_executed == 1

    def test_cut_inside_the_delay_still_handles_the_cell(self, kind):
        net, link, sender, _, handled = two_switches()
        payload = send_one(kind, sender)
        arrival = link.next_free(0) + link.latency_us
        delay = delay_of(kind, net)
        net.sim.schedule_at(arrival + delay / 2, link.fail)
        net.sim.run()
        assert handled == [(arrival + delay, payload)]
        assert link.cells_dropped == 0
        assert link.cells_delivered == 1

    def test_cut_before_arrival_loses_the_cell(self, kind):
        net, link, sender, _, handled = two_switches()
        send_one(kind, sender)
        arrival = link.next_free(0) + link.latency_us
        net.sim.schedule_at(arrival - link.latency_us / 2, link.fail)
        net.sim.run()
        assert handled == []
        assert link.cells_dropped == 1
        assert link.data_cells_dropped == 0

    def test_cut_and_restore_inside_the_delay_judged_at_arrival(self, kind):
        net, link, sender, _, handled = two_switches()
        payload = send_one(kind, sender)
        arrival = link.next_free(0) + link.latency_us
        delay = delay_of(kind, net)
        net.sim.schedule_at(arrival + delay / 4, link.fail)
        net.sim.schedule_at(arrival + delay / 2, link.restore)
        net.sim.run()
        assert handled == [(arrival + delay, payload)]
        assert link.cells_dropped == 0

    def test_dead_at_arrival_restored_inside_the_delay_is_lost(self, kind):
        net, link, sender, _, handled = two_switches()
        send_one(kind, sender)
        arrival = link.next_free(0) + link.latency_us
        delay = delay_of(kind, net)
        net.sim.schedule_at(arrival - link.latency_us / 2, link.fail)
        net.sim.schedule_at(arrival + delay / 2, link.restore)
        net.sim.run()
        assert handled == []
        assert link.cells_dropped == 1
