"""E9 -- Credit flow control: losslessness, sizing, and resync.

Paper (section 5):

- credits make best-effort traffic lossless ("use flow-control... that
  inhibits message transmission when the buffer is in danger of
  overflowing"),
- full-rate transmission needs "enough credits to cover a round-trip on
  the link" -- fewer credits cap throughput at allocation/RTT,
- "a lost message can only cause reduced performance.  Performance can
  be regained by... a resynchronization of credits".
"""

from repro._types import host_id
from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.core.flowcontrol.sizing import round_trip_cells
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig

LINK_KM = 2.0  # long enough that the round trip spans several cells
TRANSFER_CELLS = 600


def build_net(credit_allocation, seed=50, resync_us=0.0, frame_slots=32):
    topo = Topology.line(2)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000, length_km=LINK_KM)
    topo.connect("h1", "s1", port_a=0, bps=622_000_000, length_km=LINK_KM)
    # The inter-switch trunk is the long link under test.
    net = Network(
        topo,
        seed=seed,
        switch_config=SwitchConfig(
            frame_slots=frame_slots,
            credit_allocation=credit_allocation,
            resync_interval_us=resync_us,
            boot_reconfig_delay_us=2_000.0,
            ping_interval_us=800.0,
            ack_timeout_us=300.0,
        ),
    )
    # Make the trunk long.
    net.link_between("s0", "s1").latency_us = LINK_KM * 5.0
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


def transfer_throughput(net):
    circuit = net.setup_circuit("h0", "h1")
    h0 = net.host("h0")
    t0 = net.now
    h0.send_packet(
        circuit.vc,
        Packet(
            source=host_id(0), destination=host_id(1), size=48 * TRANSFER_CELLS
        ),
    )
    net.run_until(
        lambda: net.host("h1").cells_received >= TRANSFER_CELLS,
        timeout_us=5_000_000,
        check_interval_us=10.0,
    )
    elapsed = net.now - t0
    cell_rate = TRANSFER_CELLS / elapsed  # cells per us
    link = net.link_between("s0", "s1")
    full_rate = 1.0 / link.cell_time_us
    return cell_rate / full_rate, net


def run_experiment():
    needed = round_trip_cells(LINK_KM)
    sweep = []
    for allocation in (
        max(1, needed // 8),
        max(1, needed // 4),
        max(1, needed // 2),
        needed,
        needed + 4,
    ):
        efficiency, net = transfer_throughput(build_net(allocation))
        overflows = sum(
            d.overflows
            for s in net.switches.values()
            for c in s.cards
            for d in c.downstream.values()
        )
        sweep.append((allocation, efficiency, overflows, net.total_cells_dropped()))
    return needed, sweep


def test_e9_credit_sizing(report_sink):
    needed, sweep = run_experiment()

    report = ExperimentReport(
        "E9", f"credit flow control on a {LINK_KM} km trunk"
    )
    table = Table(
        [
            "credits/VC",
            "throughput vs full rate",
            "buffer overflows",
            "cells dropped",
        ]
    )
    for allocation, efficiency, overflows, dropped in sweep:
        table.add_row(allocation, efficiency, overflows, dropped)
    report.add_table(table)

    starved = sweep[0]
    report.check(
        f"starved window ({starved[0]} credits, RTT needs {needed})",
        f"~ {starved[0]}/{needed} of full rate",
        f"{starved[1]:.3f}",
        holds=starved[1] < 0.6,
    )
    sized = next(s for s in sweep if s[0] == needed)
    report.check(
        f"round-trip window ({needed} credits)",
        "~ full link rate",
        f"{sized[1]:.3f}",
        holds=sized[1] > 0.85,
    )
    monotone = all(
        a[1] <= b[1] + 0.02 for a, b in zip(sweep, sweep[1:])
    )
    report.check(
        "throughput monotone in credits",
        "increasing to saturation",
        "yes" if monotone else "no",
        holds=monotone,
    )
    lossless = all(s[2] == 0 and s[3] == 0 for s in sweep)
    report.check(
        "losslessness",
        "no overflow, no drop, any window",
        "yes" if lossless else "VIOLATED",
        holds=lossless,
    )
    report_sink(report)
    assert report.all_hold


def test_e9_resync_recovers_performance(report_sink):
    def run():
        net = build_net(credit_allocation=8, seed=51, resync_us=3_000.0)
        circuit = net.setup_circuit("h0", "h1")
        h0 = net.host("h0")
        h0.send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=480),
        )
        net.run(50_000)
        # Lose credits at the switch-side sender.
        s0 = net.switch("s0")
        card = next(c for c in s0.cards if circuit.vc in c.upstream)
        upstream = card.upstream[circuit.vc]
        upstream.balance -= 5
        degraded = upstream.balance
        net.run_until(
            lambda: upstream.balance == upstream.allocation,
            timeout_us=200_000,
        )
        recovered = sum(r.credits_recovered for r in card.upstream.values())
        return degraded, upstream.allocation, recovered

    degraded, allocation, recovered = run()
    report = ExperimentReport("E9b", "credit resynchronization")
    report.check(
        "lost credits shrink the window",
        "reduced performance only",
        f"balance {degraded}/{allocation} after loss",
        holds=degraded < allocation,
    )
    report.check(
        "periodic resync restores it",
        "balance returns to allocation",
        f"recovered {recovered} credits",
        holds=recovered >= 5,
    )
    report_sink(report)
    assert report.all_hold


def vc_holders(net, vc):
    """Line cards still holding state for ``vc``: a routing entry, cells
    parked for it, a queue, or upstream/downstream credit state."""
    holders = []
    for switch in net.switches.values():
        for card in switch.cards:
            if (
                card.routing_table.lookup(vc) is not None
                or vc in card.routing_table._pending
                or any(vc in group for group in card.vc_queues._queues.values())
                or vc in card.upstream
                or vc in card.downstream
            ):
                holders.append(f"{switch.node_id}.p{card.index}")
    return holders


def test_e9_teardown_releases_circuit(report_sink):
    def run():
        net = build_net(2 * round_trip_cells(LINK_KM))
        circuit = net.setup_circuit("h0", "h1")
        h0, h1 = net.host("h0"), net.host("h1")
        h0.send_packet(
            circuit.vc,
            Packet(
                source=host_id(0),
                destination=host_id(1),
                size=48 * TRANSFER_CELLS,
            ),
        )
        net.run(100.0)
        held = vc_holders(net, circuit.vc)
        partial = len(h1.reassembler._partial.get(circuit.vc, ()))
        handled = {
            s.node_id: s.signaling.teardowns_handled
            for s in net.switches.values()
        }
        h0.close_circuit(circuit.vc)
        net.run(5_000.0)
        teardowns = [
            s.signaling.teardowns_handled - handled[s.node_id]
            for s in net.switches.values()
        ]
        best_effort = (
            held,
            partial,
            vc_holders(net, circuit.vc),
            circuit.vc in h1.reassembler._partial,
            len(h1.delivered),
            teardowns,
        )
        # The guaranteed twin: its frame slots go with its entries.  A
        # long frame makes a cell wait for its slot longer than the
        # teardown's signalling delay, so one is queued when it lands.
        net = build_net(2 * round_trip_cells(LINK_KM), frame_slots=256)
        h0 = net.host("h0")
        switches = list(net.switches.values())
        stream, _ = net.reserve_bandwidth("h0", "h1", 2)
        net.run(100.0)
        h0.send_raw_cells(stream.vc, 20)
        net.run(1_750.0)
        reserved = [s.frame_schedule.total_reserved() for s in switches]
        dropped = sum(s.stats.cells_dropped for s in switches)
        h0.close_circuit(stream.vc)
        net.run(5_000.0)
        guaranteed = (
            reserved,
            [s.frame_schedule.total_reserved() for s in switches],
            sum(s.stats.cells_dropped for s in switches) - dropped,
            [s.buffered_cells() for s in switches],
        )
        return best_effort, guaranteed

    (
        (held, partial, left, h1_partial, delivered, teardowns),
        (reserved, slots_left, discarded, buffered),
    ) = run()
    report = ExperimentReport(
        "E9d", f"circuit teardown mid-transfer ({TRANSFER_CELLS}-cell packet)"
    )
    report.check(
        "teardown frees every hop",
        "no routing entry, queue or credit state left",
        f"{len(held)} cards before close, {len(left)} after",
        holds=bool(held) and not left,
    )
    report.check(
        "receiver drops the partial packet",
        "nothing reassembled, nothing delivered",
        f"{partial} cells pending before close; "
        f"partial {'kept' if h1_partial else 'dropped'}, {delivered} delivered",
        holds=partial > 0 and not h1_partial and delivered == 0,
    )
    report.check(
        "one teardown per on-path switch",
        "setup/teardown signaling, hop by hop",
        f"{teardowns}",
        holds=teardowns == [1] * len(teardowns),
    )
    report.check(
        "teardown frees a guaranteed circuit's frame slots",
        "no hop holds a frame slot for the closed circuit",
        f"slots per hop {reserved} before close, {slots_left} after",
        holds=all(reserved) and not any(slots_left),
    )
    report.check(
        "and the cells still waiting for one",
        "discarded and counted; no hop keeps a cell buffered",
        f"{discarded} discarded at the teardown, buffered per hop {buffered}",
        holds=discarded > 0 and not any(buffered),
    )
    report_sink(report)
    assert report.all_hold
