"""Figure 4 between two :class:`CreditEndpoint` ends of one real ``Link``.

``Pair`` cables an upstream node to a downstream node and opens one
circuit across the cable.  Cells and credits really serialize and
propagate, so "in flight" is read off the wire (cells sent, counted by
a wrapper around each end's ``Port.send``, minus arrivals counted by the
nodes), not derived from the credit counters under test.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import switch_id
from repro.core.flowcontrol.credits import conservation_holds
from repro.core.flowcontrol.endpoint import CreditEndpoint
from repro.conform.oracle import plain_credit_filter
from repro.core.flowcontrol.resync import ResyncReply, ResyncRequest
from repro.net.cell import Cell, CellKind
from repro.net.link import Link
from repro.net.node import Node
from repro.obs.trace import Tracer
from repro.sim.kernel import Simulator
from repro.switch.switch import SwitchConfig

VC = 7


class End(Node):
    """A one-port node: CREDIT cells go to the endpoint, data cells take
    a buffer of the circuit's pool and stay until the test frees them."""

    def __init__(self, sim, node_id, config):
        super().__init__(sim, node_id, 1)
        self.arrived = Counter()
        self.moved = []
        self.credits = CreditEndpoint(
            sim, self.ports[0], config,
            on_window=lambda vc, crossed: self.moved.append((vc, crossed)),
        )

    def on_cell(self, port, cell):
        self.arrived[cell.kind] += 1
        if cell.kind is CellKind.CREDIT:
            self.credits.accept(cell)
        else:
            self.credits.pool(cell.vc).receive()


class Pair:
    def __init__(self, allocation=4, tracer=None, **config):
        self.sim = Simulator()
        self.sim.tracer = tracer
        cfg = SwitchConfig(credit_allocation=allocation, **config)
        self.up = End(self.sim, switch_id(0), cfg)
        self.down = End(self.sim, switch_id(1), cfg)
        self.link = Link(self.sim, self.up.ports[0], self.down.ports[0])
        self.on_wire = Counter()
        for port in (self.up.ports[0], self.down.ports[0]):
            port.send = self._counting(port.send)
        self.up.credits.open_window(VC)
        self.window = self.up.credits.upstream.get(VC)
        self.pool = self.down.credits.pool(VC)

    def _counting(self, send):
        def counted(cell, bits=None):
            self.on_wire[cell.kind] += 1
            send(cell, bits)

        return counted

    def send(self):
        self.window.consume()
        self.up.ports[0].send(Cell(vc=VC))

    def free(self):
        return self.down.credits.free(VC)

    def settle(self):
        self.sim.run()

    def lose_plain_credits(self, lose=True):
        self.link.drop_filter = (
            plain_credit_filter(random.Random(0), 1.0) if lose else None
        )

    def in_flight(self, kind, receiver):
        lost = self.link.cells_corrupted if kind is CellKind.CREDIT else 0
        return self.on_wire[kind] - receiver.arrived[kind] - lost

    def lose_one_credit(self):
        """One cell crosses and is forwarded; its credit dies on the wire."""
        self.send()
        self.settle()
        self.lose_plain_credits()
        self.free()
        self.settle()
        self.lose_plain_credits(False)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["send", "free", "step"]), max_size=80),
    st.integers(1, 5),
)
def test_conservation_holds_after_every_step(schedule, allocation):
    pair = Pair(allocation)
    for action in schedule:
        if action == "send" and pair.window.can_send:
            pair.send()
        elif action == "free" and pair.pool.occupied:
            assert pair.free()
        elif action == "step":
            # Less than a cell time: cells and credits overlap in flight.
            pair.sim.run(until=pair.sim.now + 0.4)
        assert conservation_holds(
            pair.window,
            pair.pool,
            pair.in_flight(CellKind.DATA, pair.down),
            pair.in_flight(CellKind.CREDIT, pair.up),
        )
        assert pair.pool.occupied <= allocation
    pair.settle()
    assert pair.window.balance + pair.pool.occupied == allocation
    assert pair.pool.overflows == 0


@pytest.mark.parametrize("allocation", [1, 4])
def test_lost_credit_costs_one_and_one_round_restores_it(allocation):
    tracer = Tracer(categories={"flowcontrol"})
    pair = Pair(allocation, tracer=tracer)
    pair.lose_one_credit()
    assert pair.pool.occupied == 0
    assert pair.window.balance == allocation - 1
    assert pair.up.moved == []

    pair.up.credits.resync_round()
    pair.settle()
    assert pair.window.balance == allocation
    assert pair.window.requests_sent == pair.window.replies_applied == 1
    assert pair.window.credits_recovered == 1
    # The owner hears of the move, and whether it reopened a dry window.
    assert pair.up.moved == [(VC, allocation == 1)]
    assert [
        (r.component, r.name, r.payload["port"]) for r in tracer.records
    ] == [("switch.s0", "resync.round", 0), ("switch.s0", "resync.recovered", 0)]

    pair.up.credits.resync_round()  # nothing lost: nothing moves
    pair.settle()
    assert pair.window.balance == allocation
    assert len(pair.up.moved) == 1


def test_a_tracer_attached_after_open_sees_every_grant():
    pair = Pair()
    pair.sim.tracer = tracer = Tracer()
    pair.send()
    pair.settle()
    pair.free()
    pair.settle()
    assert [(r.component, r.name, r.payload) for r in tracer.records] == [
        ("switch.s0", "credit.grant",
         {"port": 0, "vc": VC, "amount": 1, "balance": 4}),
    ]


def test_reply_echoing_a_stale_cells_sent_is_ignored():
    pair = Pair()
    pair.lose_one_credit()
    pair.up.credits.resync_round()
    pair.send()  # departs behind the request: its echo is now stale
    pair.settle()
    assert pair.window.replies_applied == 0
    assert pair.window.balance == 4 - 2
    assert pair.up.moved == []
    pair.up.credits.resync_round()  # the retry, with nothing racing it
    pair.settle()
    assert pair.window.credits_recovered == 1
    assert pair.window.balance == 4 - 1  # one cell still buffered


def test_reply_from_another_incarnation_counts_as_incoherent():
    """The window is reopened fresh (a reroute came back to this port)
    while the far pool's counter still covers the old incarnation."""
    pair = Pair()
    for _ in range(3):
        pair.send()
    pair.settle()
    for _ in range(3):
        pair.free()
    pair.settle()
    pair.up.credits.upstream.pop(VC)
    pair.up.credits.open_window(VC)
    window = pair.up.credits.upstream[VC]
    window.consume()  # sent 1, "freed" 3: in flight would be negative
    pair.up.credits.resync_round()
    pair.settle()
    assert window.incoherent_replies == 1
    assert window.replies_applied == 0
    assert window.balance == 4 - 1
    assert pair.up.moved[3:] == []  # only the three plain credits moved it


def test_cells_for_a_closed_circuit_are_ignored():
    pair = Pair()
    pair.send()
    pair.settle()
    pair.up.credits.upstream.pop(VC)
    pair.free()
    pair.settle()  # the credit arrives for a window that is gone
    assert pair.up.arrived[CellKind.CREDIT] == 1
    assert pair.up.moved == [] and VC not in pair.up.credits.upstream
    # Nor does a request for a circuit with no pool here get an answer.
    pair.down.on_cell(
        pair.down.ports[0],
        Cell(vc=VC + 1, kind=CellKind.CREDIT, payload=ResyncRequest(VC + 1, 0)),
    )
    pair.up.on_cell(
        pair.up.ports[0],
        Cell(vc=VC, kind=CellKind.CREDIT, payload=ResyncReply(VC, 0, 0)),
    )
    pair.settle()
    assert pair.on_wire[CellKind.CREDIT] == 1


def test_drop_mode_keeps_pools_but_no_windows_and_no_credits():
    pair = Pair(allocation=2, flow_control="drop")
    assert pair.window is None and not pair.up.credits.upstream
    pair.up.ports[0].send(Cell(vc=VC))
    pair.settle()
    assert pair.pool.occupied == 1
    assert pair.free() is False
    pair.up.credits.resync_round()
    pair.settle()
    assert pair.pool.buffers_freed == 1
    assert pair.on_wire[CellKind.CREDIT] == 0
