"""Tests for links and ports: serialization, latency, failure, errors."""

import random

import pytest

from repro._types import switch_id
from repro.constants import CELL_BITS
from repro.core.flowcontrol.sizing import round_trip_us
from repro.net.cell import Cell
from repro.net.link import Link, LinkState
from repro.net.node import Node
from repro.net.port import PortError
from repro.sim.kernel import Simulator


class RecordingNode(Node):
    def __init__(self, sim, node_id, n_ports=2):
        super().__init__(sim, node_id, n_ports)
        self.received = []

    def on_cell(self, port, cell):
        self.received.append((self.sim.now, port.index, cell))


def make_pair(sim, length_km=1.0, bps=622_000_000):
    a = RecordingNode(sim, switch_id(0))
    b = RecordingNode(sim, switch_id(1))
    link = Link(sim, a.port(0), b.port(0), length_km=length_km, bps=bps)
    return a, b, link


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    a, b, link = make_pair(sim, length_km=1.0)
    a.port(0).send(Cell(vc=1))
    sim.run()
    expected = CELL_BITS / 622_000_000 * 1e6 + 5.0  # tx + 1 km propagation
    assert b.received[0][0] == pytest.approx(expected)


def test_fifo_order_per_direction():
    sim = Simulator()
    a, b, link = make_pair(sim)
    for i in range(5):
        a.port(0).send(Cell(vc=i))
    sim.run()
    assert [cell.vc for _, _, cell in b.received] == [0, 1, 2, 3, 4]


def test_serialization_spaces_cells_by_cell_time():
    sim = Simulator()
    a, b, link = make_pair(sim, length_km=0.0)
    a.port(0).send(Cell(vc=0))
    a.port(0).send(Cell(vc=1))
    sim.run()
    gap = b.received[1][0] - b.received[0][0]
    assert gap == pytest.approx(link.cell_time_us)


def test_full_duplex_directions_independent():
    sim = Simulator()
    a, b, link = make_pair(sim)
    a.port(0).send(Cell(vc=1))
    b.port(0).send(Cell(vc=2))
    sim.run()
    assert len(a.received) == 1 and len(b.received) == 1


def test_dead_link_drops_cells():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.fail()
    a.port(0).send(Cell(vc=1))
    sim.run()
    assert b.received == []
    assert link.cells_dropped == 1
    assert link.state is LinkState.DEAD


def test_cells_in_flight_lost_when_link_dies():
    sim = Simulator()
    a, b, link = make_pair(sim, length_km=10.0)  # 50us propagation
    a.port(0).send(Cell(vc=1))
    sim.schedule(10.0, link.fail)
    sim.run()
    assert b.received == []


def test_restore_resumes_delivery():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.fail()
    link.restore()
    a.port(0).send(Cell(vc=1))
    sim.run()
    assert len(b.received) == 1


def test_state_observers_notified_once_per_change():
    sim = Simulator()
    a, b, link = make_pair(sim)
    changes = []
    link.state_observers.append(lambda l, s: changes.append(s))
    link.fail()
    link.fail()  # no-op
    link.restore()
    assert changes == [LinkState.DEAD, LinkState.WORKING]


def test_error_rate_drops_fraction():
    sim = Simulator()
    a, b, link = make_pair(sim, length_km=0.0)
    link.set_error_rate(0.5)
    link._rng = random.Random(42)
    for i in range(200):
        a.port(0).send(Cell(vc=i))
    sim.run()
    assert 60 < len(b.received) < 140
    assert link.cells_corrupted == 200 - len(b.received)


def test_error_rate_validation():
    sim = Simulator()
    _, _, link = make_pair(sim)
    with pytest.raises(ValueError):
        link.set_error_rate(1.5)


def test_round_trip_includes_both_directions():
    sim = Simulator()
    _, _, link = make_pair(sim, length_km=2.0)
    assert link.latency_us == pytest.approx(10.0)
    assert round_trip_us(link.length_km, link.bps) == pytest.approx(
        2 * (link.latency_us + link.cell_time_us)
    )


def test_port_send_unconnected_raises():
    sim = Simulator()
    node = RecordingNode(sim, switch_id(0))
    with pytest.raises(PortError):
        node.port(1).send(Cell(vc=1))


def test_port_double_cable_rejected():
    sim = Simulator()
    a = RecordingNode(sim, switch_id(0))
    b = RecordingNode(sim, switch_id(1))
    c = RecordingNode(sim, switch_id(2))
    Link(sim, a.port(0), b.port(0))
    with pytest.raises(PortError):
        Link(sim, a.port(0), c.port(0))


def test_peer_resolution():
    sim = Simulator()
    a, b, link = make_pair(sim)
    assert a.port(0).peer() is b.port(0)
    assert b.port(0).peer() is a.port(0)
    assert a.port(1).peer() is None


def test_can_transmit_at_reflects_serialization():
    sim = Simulator()
    a, b, link = make_pair(sim, length_km=0.0)
    assert a.port(0).can_transmit_at(0.0)
    a.port(0).send(Cell(vc=1))
    assert not a.port(0).can_transmit_at(0.0)
    sim.run(until=link.cell_time_us + 0.01)
    assert a.port(0).can_transmit_at(sim.now)


def test_can_transmit_false_when_dead_or_uncabled():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.fail()
    assert not a.port(0).can_transmit_at(0.0)
    assert not a.port(1).can_transmit_at(0.0)


def test_negative_length_rejected():
    sim = Simulator()
    a = RecordingNode(sim, switch_id(0))
    b = RecordingNode(sim, switch_id(1))
    with pytest.raises(ValueError):
        Link(sim, a.port(0), b.port(0), length_km=-1.0)


def test_default_link_rngs_are_decorrelated():
    """Regression: every Link used to default to ``random.Random(0)``, so
    all links drew *identical* error streams and injected errors were
    perfectly correlated across the network.  Two links with default RNGs
    and the same error rate must drop different cells."""
    sim = Simulator()
    nodes = [RecordingNode(sim, switch_id(i)) for i in range(4)]
    link_ab = Link(sim, nodes[0].port(0), nodes[1].port(0), length_km=0.0)
    link_cd = Link(sim, nodes[2].port(0), nodes[3].port(0), length_km=0.0)
    link_ab.set_error_rate(0.5)
    link_cd.set_error_rate(0.5)
    for seq in range(200):
        nodes[0].port(0).send(Cell(vc=1, seq=seq))
        nodes[2].port(0).send(Cell(vc=1, seq=seq))
    sim.run()
    survivors_b = [cell.seq for _, _, cell in nodes[1].received]
    survivors_d = [cell.seq for _, _, cell in nodes[3].received]
    assert survivors_b  # the loss is partial, not total
    assert survivors_d
    assert survivors_b != survivors_d  # streams are decorrelated


def test_default_link_rng_is_reproducible():
    """The derived per-link stream is keyed by the endpoint labels, so an
    identical build drops the identical cells."""

    def run_once():
        sim = Simulator()
        a = RecordingNode(sim, switch_id(0))
        b = RecordingNode(sim, switch_id(1))
        link = Link(sim, a.port(0), b.port(0), length_km=0.0)
        link.set_error_rate(0.3)
        for seq in range(100):
            a.port(0).send(Cell(vc=1, seq=seq))
        sim.run()
        return [cell.seq for _, _, cell in b.received]

    assert run_once() == run_once()
