"""Ablation A2 -- centralized vs distributed bandwidth admission.

Paper (section 4): "The name is misleading -- network central might well
be implemented in a distributed fashion.  For the first realization of
AN2, however, network central resides at a single switch."

We compare the two implementations on the same redundant topology and
request stream:

- **acceptance**: the centralized service sees every link's residual and
  routes around full links; the hop-by-hop distributed service admits
  against local ledgers only, so it strands capacity on alternate routes;
- **decision latency**: distributed admission completes in one traversal
  of the path (the setup cell's own round trip), while the centralized
  service pays a control round-trip to wherever central lives (modelled
  in `Network.reserve_bandwidth` as per-hop notification latency).
"""

from repro.analysis.experiments import ExperimentReport
from repro.analysis.tables import Table
from repro.core.guaranteed.bandwidth_central import ReservationDenied
from repro.net.network import Network
from repro.net.topology import Topology
from repro.switch.switch import SwitchConfig

FRAME = 32
REQUEST_CELLS = 8
REQUESTS = 10


def build_diamond(seed):
    topo = Topology()
    for i in range(4):
        topo.add_switch(i)
    topo.connect("s0", "s1")
    topo.connect("s1", "s3")
    topo.connect("s0", "s2")
    topo.connect("s2", "s3")
    topo.add_host(0)
    topo.add_host(1)
    # Double-rate host attachments so the core arms (32 cells/frame
    # each) are the binding constraint, not the host edge.
    topo.connect("h0", "s0", port_a=0, bps=1_244_000_000)
    topo.connect("h1", "s3", port_a=0, bps=1_244_000_000)
    net = Network(
        topo,
        seed=seed,
        switch_config=SwitchConfig(
            frame_slots=FRAME,
            boot_reconfig_delay_us=2_000.0,
            ping_interval_us=800.0,
            ack_timeout_us=300.0,
        ),
    )
    net.start()
    net.run_until_converged(timeout_us=500_000)
    return net


def centralized_run():
    net = build_diamond(seed=101)
    central = net.bandwidth_central()
    granted = 0
    for _ in range(REQUESTS):
        try:
            net.reserve_bandwidth("h0", "h1", REQUEST_CELLS, central=central)
            granted += 1
        except ReservationDenied:
            pass
    return granted


def distributed_run():
    net = build_diamond(seed=102)
    granted = 0
    latencies = []
    for _ in range(REQUESTS):
        t0 = net.now
        _, outcome = net.reserve_bandwidth_distributed(
            "h0", "h1", REQUEST_CELLS
        )
        latencies.append(net.now - t0)
        if outcome == "granted":
            granted += 1
    return granted, latencies


def run_experiment():
    central_granted = centralized_run()
    distributed_granted, latencies = distributed_run()
    return central_granted, distributed_granted, latencies


def test_a2_distributed_admission(report_sink):
    central_granted, distributed_granted, latencies = run_experiment()
    # Capacity accounting: the host link admits 4 requests of 8 into a
    # 32-slot frame; the two core arms together admit 8.  The binding
    # constraint is the single host link: 4 grants max -- UNLESS the
    # host link capacity exceeds a single arm, in which case central
    # finds both arms (8) while distributed sticks to one (4).
    report = ExperimentReport(
        "A2", "bandwidth central: centralized vs distributed (diamond)"
    )
    table = Table(["implementation", "requests", "granted"])
    table.add_row("centralized (global view)", REQUESTS, central_granted)
    table.add_row("distributed (local ledgers)", REQUESTS, distributed_granted)
    report.add_table(table)

    report.check(
        "both enforce capacity",
        "never more than the physical limit",
        f"{central_granted} / {distributed_granted} grants",
        holds=central_granted <= 8 and distributed_granted <= 8,
    )
    report.check(
        "centralized >= distributed acceptance",
        "global knowledge routes around full links",
        f"{central_granted} vs {distributed_granted}",
        holds=central_granted >= distributed_granted,
    )
    mean_latency = sum(latencies) / len(latencies)
    report.check(
        "distributed decision latency",
        "one path traversal (tens of us)",
        f"mean {mean_latency:.0f} us",
        holds=mean_latency < 1_000.0,
    )
    report_sink(report)
    assert report.all_hold
