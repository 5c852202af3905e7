#!/usr/bin/env python3
"""The paper's favorite demo: pull the plug on an arbitrary switch.

"A favorite AN1 demo is pulling the plug on an arbitrary switch in SRC's
main LAN.  The network reconfigures in less than 200 milliseconds, and
users see no service interruption."  (Section 1.)

We run steady traffic between two dual-homed hosts, crash an interior
switch mid-stream, watch the monitors detect it, the skeptics publish it,
the network reconfigure, and the circuit locally reroute -- then plug the
switch back in and watch the skeptic make it earn its way back.

Run:  python examples/pull_the_plug.py
"""

from repro import Network, Packet, Topology
from repro.constants import RECONFIGURATION_BUDGET_US
from repro.switch.switch import SwitchConfig


def main() -> None:
    topo = Topology.grid(3, 3)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h0", "s3", port_a=1, bps=622_000_000)
    topo.connect("h1", "s8", port_a=0, bps=622_000_000)
    topo.connect("h1", "s5", port_a=1, bps=622_000_000)

    net = Network(
        topo,
        seed=7,
        switch_config=SwitchConfig(
            frame_slots=64,
            enable_local_reroute=True,
            skeptic_base_wait_us=5_000.0,
        ),
    )
    net.start()
    net.run_until(net.fully_reconfigured, timeout_us=500_000)
    print(f"[{net.now/1000:8.2f} ms] network up: "
          f"{len(net.converged_view().edges)} links discovered")

    circuit = net.setup_circuit("h0", "h1")
    h0, h1 = net.host("h0"), net.host("h1")

    def send_burst(n):
        for _ in range(n):
            h0.send_packet(
                circuit.vc,
                Packet(source=circuit.source,
                       destination=circuit.destination, size=480),
            )

    send_burst(10)
    net.run(100_000)
    print(f"[{net.now/1000:8.2f} ms] {len(h1.delivered)} packets delivered "
          f"before the incident")

    victim = "s4"
    t_plug = net.now
    net.crash_switch(victim)
    print(f"[{net.now/1000:8.2f} ms] *** pulled the plug on {victim} ***")

    net.run_until(net.fully_reconfigured,
                  timeout_us=RECONFIGURATION_BUDGET_US)
    took = net.now - t_plug
    print(f"[{net.now/1000:8.2f} ms] reconfigured in {took/1000:.1f} ms "
          f"(budget {RECONFIGURATION_BUDGET_US/1000:.0f} ms)")
    survivors = net.main_component_switches()
    print(f"           survivors: {', '.join(str(s) for s in survivors)}")
    reroutes = sum(s.stats.reroutes for s in net.switches.values())
    print(f"           circuits locally rerouted: {reroutes}")

    send_burst(10)
    net.run(200_000)
    print(f"[{net.now/1000:8.2f} ms] {len(h1.delivered)} packets delivered "
          f"after reroute (no user-visible outage)")

    net.restore_switch(victim)
    print(f"[{net.now/1000:8.2f} ms] plugged {victim} back in "
          f"(skeptic now demands a quiet period)")
    net.run_until(
        lambda: net.fully_reconfigured()
        and len(net.main_component_switches()) == 9,
        timeout_us=2_000_000,
    )
    print(f"[{net.now/1000:8.2f} ms] {victim} re-admitted; "
          f"topology again matches reality: "
          f"{net.converged_view() == net.expected_view()}")


if __name__ == "__main__":
    main()
