"""The link monitors' closed form against the eager ping loop.

On a quiet line the monitors schedule nothing and the link folds their
phantom pings and acks into the wire.  Every real cell must still start
where it starts under :class:`~repro.conform.reference.EagerPortMonitor`,
and every counter must read what the eager loop's reads at the same
instant.  The fault-schedule differential is the harness's ``monitor``
row (``repro.conform.oracle``).
"""

import pytest

from repro._types import switch_id
from repro.conform.oracle import eager_monitors
from repro.constants import PING_REPLY_DELAY_US
from repro.net.cell import CREDIT, DATA, RECONFIG, Cell
from repro.net.network import Network
from repro.net.topogen import fat_tree
from tests.conftest import line_with_hosts


def _converged_pair():
    """The 2-switch line twice, booted alike: eager, then closed form."""
    nets = []
    for eager in (True, False):
        net = line_with_hosts(2)
        if eager:
            eager_monitors(net)
        net.start()
        net.run_until_converged(timeout_us=500_000)
        nets.append(net)
    return nets


def _trunk(net):
    """s0's and s1's ports on their cable, s0's monitor, and the link."""
    s0, s1 = net.switch("s0"), net.switch("s1")
    near = s0.port(s0.port_facing(switch_id(1)))
    far = s1.port(s1.port_facing(switch_id(0)))
    return near, far, s0.monitors[near.index], near.link


def _ping_times(net):
    """s0's next ping on the trunk, and when its ack leaves s1 (the
    ping's arrival plus the reply delay), on an idle wire."""
    _, _, monitor, link = _trunk(net)
    assert link._quiet is not None
    link.settle()
    ping = monitor._ping_at
    arrival = ping + link.cell_time_us + link.latency_us
    return ping, arrival + PING_REPLY_DELAY_US


def _departure(net, port, cell, at, deferred=False):
    """Send ``cell`` out ``port`` at ``at``; when the wire is done with
    it.  ``deferred`` schedules the send from an event half a
    microsecond earlier, after the phantom's own eager event."""
    seen = []

    def send():
        port.send(cell)
        seen.append(port.link.next_free(port._direction))

    if deferred:
        net.sim.schedule_at(
            at - 0.5, lambda: net.sim.schedule_at(at, send)
        )
    else:
        net.sim.schedule_at(at, send)
    net.run(at - net.now)
    return seen[0]


@pytest.mark.parametrize("kind", [DATA, CREDIT, RECONFIG])
@pytest.mark.parametrize("window", ["ping", "ack"])
def test_a_cell_inside_a_phantom_window_starts_where_eager_starts_it(
    kind, window
):
    eager, closed = _converged_pair()
    ping, ack = _ping_times(closed)
    departures = []
    for net in (eager, closed):
        near, far, _, link = _trunk(net)
        port, at = (near, ping) if window == "ping" else (far, ack)
        at += link.cell_time_us / 3
        departures.append(_departure(net, port, Cell(7, kind), at))
    assert departures[0] == departures[1]
    # The cell waited for the ping or ack ahead of it.
    assert departures[1] == pytest.approx(at + link.cell_time_us * 5 / 3)


def test_a_ping_queued_behind_a_real_cell_shifts_its_ack_alike():
    eager, closed = _converged_pair()
    ping, ack = _ping_times(closed)
    wires = []
    for net in (eager, closed):
        near, far, monitor, link = _trunk(net)
        half = link.cell_time_us / 2
        # A data cell half a cell before the ping holds it back...
        _departure(net, near, Cell(7, DATA), ping - half)
        # ...so its ack leaves s1 half a cell late, and a cell sent
        # inside the shifted ack's window queues behind it.
        wires.append(
            (_departure(net, far, Cell(7, CREDIT), ack + 3 * half / 2),
             tuple(link._next_free), monitor.pings_sent)
        )
    assert wires[0] == wires[1]
    near, far, monitor, link = _trunk(closed)
    assert wires[1][0] == pytest.approx(ack + 5 * link.cell_time_us / 2)


@pytest.mark.parametrize("window", ["ping", "ack"])
def test_an_equal_time_tie_resolves_as_eager_resolves_it(window):
    eager, closed = _converged_pair()
    ping, ack = _ping_times(closed)
    departures = []
    for net in (eager, closed):
        near, far, _, link = _trunk(net)
        port, at = (near, ping) if window == "ping" else (far, ack)
        departures.append(
            _departure(net, port, Cell(7, DATA), at, deferred=True)
        )
    assert departures[0] == departures[1]
    # The ping or ack, whose eager event was scheduled first, went first.
    assert departures[1] == at + 2 * link.cell_time_us


def test_counters_read_as_eager_at_every_instant_of_a_round_trip():
    eager, closed = _converged_pair()
    ping, _ = _ping_times(closed)
    readings = []
    for net in (eager, closed):
        near, far, monitor, link = _trunk(net)
        seen = []

        def read():
            seen.append((
                net.now, monitor.pings_sent, monitor.acks_received,
                link.cells_delivered, near.cells_sent, near.cells_received,
                far.cells_sent, far.cells_received,
            ))

        for step in range(-4, 40):
            net.sim.schedule_at(ping + step * 0.125, read)
        net.run(ping + 5.0 - net.now)
        readings.append(seen)
    assert readings[0] == readings[1]
    assert readings[1][0][1] + 1 == readings[1][-1][1]
    assert readings[1][0][2] + 1 == readings[1][-1][2]


def test_a_backlog_that_could_hold_an_ack_past_its_timeout_wakes_the_line():
    eager, closed = _converged_pair()
    ping, _ = _ping_times(closed)
    ends = []
    for net in (eager, closed):
        near, far, monitor, link = _trunk(net)

        def burst():
            for _ in range(400):  # ~270 us of cells: past the timeout
                near.send(Cell(7, DATA))

        net.sim.schedule_at(ping - 10.0, burst)
        net.run(ping - 5.0 - net.now)
        assert link._quiet is None
        net.run(3_000.0)
        ends.append((
            monitor.pings_sent, monitor.acks_received, monitor._misses,
            link.cells_delivered, tuple(link._next_free),
            far.cells_sent, near.cells_received,
        ))
    assert ends[0] == ends[1]
    # The ping behind the burst timed out, and the line rested again.
    pings, acks = ends[1][:2]
    assert acks == pings - 1
    assert link._quiet is not None


def test_an_idle_fat_tree_dispatches_no_more_events_for_a_longer_span():
    net = Network(fat_tree(8, hosts_per_edge=1).topology, seed=7)
    net.start()
    net.run_until_converged(timeout_us=1_000_000)
    spent = []
    for span_us in (500_000.0, 1_000_000.0):
        before = net.sim.events_executed
        net.run(span_us)
        spent.append(net.sim.events_executed - before)
    assert spent[1] <= spent[0]
    assert all(link._quiet is not None for link in net.links.values())
