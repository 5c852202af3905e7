"""E13 -- The section-2 extensions: circuit paging and local reroute.

Paper (section 2):

- paging: "Switch software could 'page out' a circuit by releasing its
  buffers, removing it from the routing table, and notifying the
  downstream switch...  If further cells... subsequently arrived, it
  could be 'paged in' by generating a setup cell to recreate the
  circuit" -- we measure the buffer memory reclaimed and the transparent
  page-in;
- local reroute: "to drop cells only when the path of their virtual
  circuit goes through a failed link...  the virtual circuit can be
  rerouted by sending a new circuit setup cell from the point where the
  path was broken" -- we verify the selectivity.
"""

from repro._types import host_id, switch_id
from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.core.routing.paging import PagingDaemon
from repro.core.routing.reroute import installed_path
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig


def paging_experiment():
    topo = Topology.line(3)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s2", port_a=0, bps=622_000_000)
    net = Network(
        topo,
        seed=61,
        switch_config=SwitchConfig(
            frame_slots=32,
            enable_paging=True,
            paging_idle_us=4_000.0,
            boot_reconfig_delay_us=2_000.0,
            ping_interval_us=800.0,
            ack_timeout_us=300.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)

    # Many circuits, only one stays active.
    circuits = [net.setup_circuit("h0", "h1") for _ in range(12)]
    for circuit in circuits:
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=96),
        )
    net.run(30_000)

    def pinned_buffers():
        return sum(
            d.allocation
            for s in net.switches.values()
            for c in s.cards
            for d in c.downstream.values()
        )

    buffers_before = pinned_buffers()
    daemons = [
        PagingDaemon(s, idle_threshold_us=5_000.0, scan_interval_us=3_000.0)
        for s in net.switches.values()
    ]
    for daemon in daemons:
        daemon.start()
    net.run(40_000)
    buffers_after = pinned_buffers()
    paged_out = sum(s.stats.page_outs for s in net.switches.values())

    # A paged circuit transparently pages back in on new traffic.
    delivered_before = len(net.host("h1").delivered)
    revived = circuits[0]
    net.host("h0").send_packet(
        revived.vc,
        Packet(source=host_id(0), destination=host_id(1), size=96),
    )
    net.run(60_000)
    page_ins = sum(s.stats.page_ins for s in net.switches.values())
    delivered_after = len(net.host("h1").delivered)
    return (
        buffers_before,
        buffers_after,
        paged_out,
        page_ins,
        delivered_after - delivered_before,
    )


def reroute_experiment():
    topo = Topology()
    for i in range(4):
        topo.add_switch(i)
    topo.connect("s0", "s1")
    topo.connect("s1", "s3")
    topo.connect("s0", "s2")
    topo.connect("s2", "s3")
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h1", "s3", port_a=0, bps=622_000_000)
    net = Network(
        topo,
        seed=62,
        switch_config=SwitchConfig(
            frame_slots=32,
            boot_reconfig_delay_us=2_000.0,
            ping_interval_us=800.0,
            ack_timeout_us=300.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuit = net.setup_circuit("h0", "h1")
    mid = installed_path(net, circuit.vc, host_id(0))[2]
    other = switch_id(2) if mid == switch_id(1) else switch_id(1)

    net.fail_link("s0", str(mid))
    net.run_until(
        lambda: net.switch("s0").stats.reroutes >= 1, timeout_us=100_000
    )
    net.run(30_000)
    new_path = installed_path(net, circuit.vc, host_id(0))
    net.host("h0").send_packet(
        circuit.vc,
        Packet(source=host_id(0), destination=host_id(1), size=480),
    )
    net.run(100_000)
    return (
        str(mid),
        str(other),
        [str(n) for n in new_path],
        len(net.host("h1").delivered),
        net.switch("s0").stats.reroutes,
        net.switch("s0").stats.broken_circuits,
    )


def run_experiment():
    return paging_experiment(), reroute_experiment()


def test_e13_paging_and_local_reroute(report_sink):
    paging, reroute = run_experiment()
    buffers_before, buffers_after, paged_out, page_ins, revived_delivered = paging
    old_mid, new_mid, new_path, delivered, reroutes, broken = reroute

    report = ExperimentReport("E13", "circuit paging and local reroute")
    table = Table(["metric", "value"])
    table.add_row("buffer cells pinned before paging", buffers_before)
    table.add_row("buffer cells pinned after paging", buffers_after)
    table.add_row("circuits paged out", paged_out)
    table.add_row("page-ins on fresh traffic", page_ins)
    table.add_row("rerouted path", " -> ".join(new_path))
    report.add_table(table)

    report.check(
        "paging reclaims idle-circuit buffers",
        "pinned memory shrinks",
        f"{buffers_before} -> {buffers_after} cells",
        holds=buffers_after < buffers_before * 0.5,
    )
    report.check(
        "page-in is transparent",
        "new cells recreate the circuit and deliver",
        f"{page_ins} page-ins, {revived_delivered} packet delivered",
        holds=page_ins >= 1 and revived_delivered == 1,
    )
    report.check(
        "local reroute bypasses the failed link",
        f"path moves off {old_mid} onto {new_mid}",
        " -> ".join(new_path),
        holds=new_mid in new_path and old_mid not in new_path,
    )
    report.check(
        "service restored after reroute",
        "packet delivered on the new path (a circuit may be counted "
        "broken transiently if the old up*/down* tree forbade the detour)",
        f"{delivered} delivered, {reroutes} reroutes, {broken} transient",
        holds=delivered == 1 and reroutes >= 1,
    )
    report_sink(report)
    assert report.all_hold
