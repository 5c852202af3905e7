"""Unit tests for the link-local retransmission guard on a bare link."""

from __future__ import annotations

import pytest

from repro._types import parse_node_id
from repro.net.cell import SIGNALING, Cell
from repro.net.link import Link
from repro.net.node import Node
from repro.sim.kernel import Simulator
from repro.solutions.link_retx import LinkRetxGuard


class _Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, parse_node_id(name), n_ports=1)
        self.received = []

    def on_cell(self, port, cell):
        self.received.append(cell.payload)


def make_link(sim, **kwargs):
    a = _Sink(sim, "h0")
    b = _Sink(sim, "h1")
    link = Link(sim, a.port(0), b.port(0), length_km=2.0, **kwargs)
    return a, b, link


def send(link, payloads, direction=0):
    for payload in payloads:
        link.transmit(direction, Cell(vc=0, payload=payload))


class TestRecovery:
    def test_corrupted_cell_recovered_in_order(self):
        """One corrupted cell mid-burst: the guard NACKs, resends, and
        the resequencer keeps strict FIFO delivery order."""
        sim = Simulator()
        _, b, link = make_link(sim)
        guard = LinkRetxGuard(link)
        hit = []

        def corrupt_once(cell):
            if cell.payload == "c2" and not hit:
                hit.append(cell.payload)
                return True
            return False

        link.drop_filter = corrupt_once
        send(link, ["c0", "c1", "c2", "c3", "c4"])
        sim.run()
        assert b.received == ["c0", "c1", "c2", "c3", "c4"]
        assert guard.nacks == 1
        assert guard.resends == 1
        assert guard.recovered == 1
        assert guard.abandoned == 0
        assert guard.occupancy() == 0  # everything settled

    def test_resend_budget_exhaustion_falls_back_to_loss(self):
        """A permanently-corrupting filter must end in loss after
        ``max_resends`` attempts, and the held-back cells must drain."""
        sim = Simulator()
        _, b, link = make_link(sim)
        guard = LinkRetxGuard(link, max_resends=2)
        link.drop_filter = lambda cell: cell.payload == "dead"
        send(link, ["a", "dead", "b", "c"])
        sim.run()
        assert b.received == ["a", "b", "c"]  # gap skipped, order kept
        assert guard.abandoned == 1
        assert guard.resends == 2  # budget fully spent first
        assert guard.recovered == 0
        assert guard.occupancy() == 0

    def test_dead_link_abandons_without_nack(self):
        """Reason "dead" is the reconfiguration layer's problem: the
        guard declares loss immediately instead of NACKing a dead wire."""
        sim = Simulator()
        _, b, link = make_link(sim)
        guard = LinkRetxGuard(link)
        send(link, ["x", "y"])
        link.fail()
        sim.run()
        assert b.received == []
        assert guard.nacks == 0
        assert guard.abandoned == 2

    def test_buffer_overflow_evicts_oldest_copy(self):
        """The retransmit buffer is bounded: overflowing it evicts the
        oldest copy, and a later NACK for that cell becomes a loss."""
        sim = Simulator()
        _, b, link = make_link(sim)
        guard = LinkRetxGuard(link, buffer_cells=2)
        link.drop_filter = lambda cell: cell.payload == "p0"
        send(link, ["p0", "p1", "p2", "p3", "p4"])
        sim.run()
        assert guard.buffer_overflows > 0
        assert "p0" not in b.received  # its copy was evicted
        assert b.received == ["p1", "p2", "p3", "p4"]
        assert guard.occupancy() == 0

    def test_duplicate_delivery_swallowed(self):
        """A copy of an already-settled sequence must not reach the
        port twice (resend raced the original through)."""
        sim = Simulator()
        _, b, link = make_link(sim)
        guard = LinkRetxGuard(link)
        send(link, ["q0"])
        sim.run()
        # Manually replay the settled cell: the guard must swallow it.
        cell = Cell(vc=0, payload="q0")
        cell_seq = 0
        guard._seq_of[0][cell.uid] = cell_seq
        assert guard._on_deliver(link, 0, cell) is True
        assert guard.duplicates == 1
        assert b.received == ["q0"]


class TestAttachment:
    def test_refuses_double_attachment(self):
        sim = Simulator()
        _, _, link = make_link(sim)
        LinkRetxGuard(link)
        with pytest.raises(ValueError):
            LinkRetxGuard(link)

    def test_detach_restores_plain_loss(self):
        sim = Simulator()
        _, b, link = make_link(sim)
        guard = LinkRetxGuard(link)
        guard.detach()
        link.drop_filter = lambda cell: cell.payload == "gone"
        send(link, ["gone", "kept"])
        sim.run()
        assert b.received == ["kept"]
        assert guard.nacks == 0  # no hooks fire after detach

    def test_validation(self):
        sim = Simulator()
        _, _, link = make_link(sim)
        with pytest.raises(ValueError):
            LinkRetxGuard(link, max_resends=0)
        with pytest.raises(ValueError):
            LinkRetxGuard(link, buffer_cells=0)

    def test_max_occupancy_tracks_in_flight_copies(self):
        sim = Simulator()
        _, _, link = make_link(sim)
        guard = LinkRetxGuard(link)
        send(link, [f"m{i}" for i in range(6)])
        sim.run()
        assert guard.max_occupancy == 6
        assert guard.occupancy() == 0


class _LineCard(_Sink):
    """Handles a SIGNALING cell 20 us after its arrival, as a switch's
    line-card software does; records when each cell is handled."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.cell_delay_us = {SIGNALING: 20.0}
        self.handled_at = {}

    def on_cell(self, port, cell):
        super().on_cell(port, cell)
        self.handled_at[cell.payload] = self.sim.now


def run_with_signaling(guarded, corrupt_signaling=False):
    """Ten data cells with a SIGNALING cell between d2 and d3, sent back
    to back towards a node that handles signalling 20 us late."""
    sim = Simulator()
    a = _LineCard(sim, "s0")
    b = _LineCard(sim, "s1")
    link = Link(sim, a.port(0), b.port(0), length_km=2.0)
    guard = LinkRetxGuard(link) if guarded else None
    if corrupt_signaling:
        hit = []

        def corrupt_once(cell):
            if cell.kind is SIGNALING and not hit:
                hit.append(cell)
                return True
            return False

        link.drop_filter = corrupt_once
    for payload in ["d0", "d1", "d2"]:
        link.transmit(0, Cell(vc=5, payload=payload))
    link.transmit(0, Cell(vc=1, kind=SIGNALING, payload="sig"))
    for index in range(3, 10):
        link.transmit(0, Cell(vc=5, payload=f"d{index}"))
    sim.run()
    return b, guard


class TestLanes:
    """A control cell waits out the receiver's processing delay on the
    wire; the resequencer must not hold the data behind it."""

    def test_signaling_cell_holds_no_data_back(self):
        plain, _ = run_with_signaling(guarded=False)
        b, guard = run_with_signaling(guarded=True)
        data = [f"d{index}" for index in range(10)]
        # Every data cell is handled at its arrival, as on a bare link,
        # and before the signalling cell that preceded some of them.
        assert b.received == data + ["sig"]
        assert b.handled_at == plain.handled_at
        assert b.handled_at["sig"] > b.handled_at["d9"]
        assert guard.holdback_overflows == 0
        assert guard.abandoned == 0
        assert guard.held_back() == 0
        assert guard.occupancy() == 0

    def test_corrupted_signaling_cell_recovered_without_delaying_data(self):
        plain, _ = run_with_signaling(guarded=False)
        b, guard = run_with_signaling(guarded=True, corrupt_signaling=True)
        assert b.received[-1] == "sig"
        for index in range(10):
            payload = f"d{index}"
            assert b.handled_at[payload] == plain.handled_at[payload]
        # The resend waits out the delay again after the NACK round trip.
        assert b.handled_at["sig"] > plain.handled_at["sig"]
        assert (guard.nacks, guard.resends, guard.recovered) == (1, 1, 1)
        assert guard.abandoned == 0
        assert guard.holdback_overflows == 0
        assert guard.occupancy() == 0
