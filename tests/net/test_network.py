"""Tests for network assembly and operations."""

import random
import tracemalloc

import pytest

from repro._types import host_id, switch_id
from repro.net.host import HostConfig
from repro.net.network import Network, NetworkError
from repro.net.packet import Packet
from repro.net.topogen import fat_tree
from repro.net.topology import Topology
from repro.switch.an1 import An1Config
from benchmarks.bench_e4_reconfiguration import bench_config as e4_config
from repro.switch.switch import SwitchConfig
from tests.conftest import converged_line, fast_switch_config, line_with_hosts


class TestAssembly:
    def test_nodes_and_links_instantiated(self):
        net = line_with_hosts(3)
        assert len(net.switches) == 3
        assert len(net.hosts) == 2
        assert len(net.links) == 4
        # no trace unless one is assigned; probes register at build time
        assert net.sim.tracer is None
        snapshot = net.metrics_snapshot()
        assert "switch.s0" in snapshot and "host.h0" in snapshot

    def test_node_lookup_by_string(self):
        net = line_with_hosts(2)
        assert net.switch("s0").node_id == switch_id(0)
        assert net.host("h1").node_id == host_id(1)
        assert net.node("s1") is net.switches[switch_id(1)]

    def test_link_between(self):
        net = line_with_hosts(2)
        link = net.link_between("s0", "s1")
        assert link.working
        with pytest.raises(NetworkError):
            net.link_between("s0", "h1")

    def test_link_speeds_follow_cable_spec(self):
        topo = Topology.line(2)
        topo.add_host(0)
        topo.connect("h0", "s0")  # defaults to slow host link
        net = Network(topo, switch_config=fast_switch_config())
        assert net.link_between("h0", "s0").bps == 155_000_000
        assert net.link_between("s0", "s1").bps == 622_000_000

    def test_a_huge_frame_costs_nothing_until_it_holds_a_reservation(self):
        """A frame schedule holds only its reserved slots: twenty
        switches with million-slot frames build in well under 8 MB, and
        the frame's far end reserves and reads back like any slot."""
        topo = fat_tree(k=4, hosts_per_edge=1).topology
        tracemalloc.start()
        try:
            net = Network(
                topo, seed=1,
                switch_config=SwitchConfig(frame_slots=1_000_000),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        switch = net.switch("s0")
        schedule = switch.frame_schedule
        (frame,) = schedule.subframes  # a flat frame: one subframe
        switch.add_reservation(0, 1, 1)
        frame.move(0, 999_998, 0)
        assert schedule.slot_view(999_998) == {0: 1}
        assert schedule.slot_assignments(999_998) == {0: 1}
        assert schedule.next_slot(0, 1, 5) == 999_998
        assert list(frame.reserved_pairs()) == [(999_998, 0, 1)]
        switch.remove_reservation(0, 1, 1)
        assert schedule.total_reserved() == 0
        assert schedule.slot_view(999_998) == {}

    def test_start_idempotent(self):
        net = line_with_hosts(2)
        net.start()
        net.start()
        net.run_until_converged(timeout_us=500_000)


class TestConvergencePredicates:
    def test_not_converged_before_start(self):
        net = line_with_hosts(2)
        assert not net.converged()
        with pytest.raises(NetworkError):
            net.converged_view()

    def test_run_until_times_out(self):
        net = line_with_hosts(2)  # never started: cannot converge
        with pytest.raises(NetworkError):
            net.run_until_converged(timeout_us=5_000.0)

    def test_reconfig_root_is_tag_initiator(self):
        net = line_with_hosts(3)
        net.start()
        net.run_until_converged(timeout_us=500_000)
        root = net.reconfig_root()
        tag = net.switch("s0").reconfig.view_tag
        assert root == tag.initiator

    @pytest.mark.parametrize("n_switches", [8, 24])
    def test_view_and_root_come_from_the_survivors_when_s0_crashes(
        self, n_switches
    ):
        """E4's setup with ``s0``, the first switch, as the crash victim:
        the agreed view and the root are the largest working partition's,
        not the crashed switch's one-switch view."""
        topo = Topology.random_connected(
            n_switches, extra_edges=n_switches,
            rng=random.Random(n_switches),
        )
        net = Network(topo, seed=n_switches, switch_config=e4_config())
        net.start()
        net.run_until(net.fully_reconfigured, timeout_us=1_000_000)
        net.crash_switch("s0")
        net.run_until(net.fully_reconfigured, timeout_us=1_000_000)
        survivors = net.main_component_switches()
        assert switch_id(0) not in survivors
        assert net.converged_view() == net.expected_view_for(survivors)
        assert net.reconfig_root() in survivors

    def test_main_component_after_crash(self):
        net = line_with_hosts(4)
        net.start()
        net.run_until_converged(timeout_us=500_000)
        net.crash_switch("s3")
        component = net.main_component_switches()
        assert component == [switch_id(0), switch_id(1), switch_id(2)]

    def test_expected_view_tracks_failures(self):
        net = line_with_hosts(3)
        net.start()
        before = len(net.expected_view().edges)
        net.fail_link("s0", "s1")
        assert len(net.expected_view().edges) == before - 1
        net.restore_link("s0", "s1")
        assert len(net.expected_view().edges) == before


class TestGroundTruthMemo:
    """``fully_reconfigured()`` keeps the main component and the view it
    should hold between link state changes instead of rebuilding both on
    every poll."""

    @staticmethod
    def grid():
        net = Network(
            Topology.grid(2, 2), seed=4, switch_config=fast_switch_config()
        )
        net.start()
        net.run_until_converged(timeout_us=500_000)
        return net

    @staticmethod
    def uncached(net):
        """The answer worked out from scratch, as every poll used to."""
        component = Network.main_component_switches(net)
        agents = [net.switches[s].reconfig for s in component]
        if not agents or any(a.active for a in agents):
            return False
        if len({a.view_tag for a in agents}) != 1 or agents[0].view is None:
            return False
        expected = Network.expected_view_for(net, component)
        return all(a.view == expected for a in agents)

    def test_every_link_state_change_makes_it_stale(self):
        net = self.grid()
        assert net.fully_reconfigured()
        truth = net._ground_truth
        assert net.fully_reconfigured() and net._ground_truth is truth
        for step in (
            lambda: net.link_between("s0", "s1").fail(),
            lambda: net.link_between("s0", "s1").restore(),
            lambda: net.crash_switch("s3"),
            lambda: net.restore_switch("s3"),
        ):
            step()
            assert net._ground_truth is None
            # Reality moved; the views have not caught up yet.
            assert not net.fully_reconfigured()
            assert net._ground_truth is not None
            net.run_until(net.fully_reconfigured, timeout_us=500_000)
            assert self.uncached(net)

    def test_equals_the_uncached_answer_through_a_crash_cycle(self):
        net = self.grid()
        rebuilds = []
        net.main_component_switches = lambda: (
            rebuilds.append(net.now) or Network.main_component_switches(net)
        )
        answers = []

        def poll(duration_us):
            deadline = net.now + duration_us
            while net.now < deadline:
                answers.append(net.fully_reconfigured())
                assert answers[-1] == self.uncached(net), net.now
                net.run(50.0)

        poll(1_000)
        net.crash_switch("s1")
        poll(30_000)
        assert [str(s) for s in net.main_component_switches()] == [
            "s0", "s2", "s3",
        ]
        net.restore_switch("s1")
        poll(60_000)
        assert answers[-1] and not all(answers)
        # 1,820 polls, three ground truths: boot, crash, restore (plus
        # the one direct call above).
        assert len(answers) == 1_820 and len(rebuilds) == 3 + 1


class TestEpochInstall:
    def test_same_view_and_initiator_reuses_the_computer(self):
        topo = Topology.grid(2, 3)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0)
        topo.connect("h1", "s5", port_a=0)
        net = Network(topo, seed=42, switch_config=fast_switch_config())
        net.start()
        net.run_until_converged(timeout_us=500_000)
        switches = list(net.switches.values())
        before = {s.node_id: s._route_computer for s in switches}
        full_before = sum(s.stats.route_installs_full for s in switches)
        tag_before = net.switch("s0").reconfig.view_tag
        # Re-trigger from the current epoch's initiator: the successor tag
        # keeps the same initiator and the cables are unchanged, so the
        # new epoch agrees on the same (view, initiator).  Which switch
        # wins a *failure-triggered* epoch race depends on detection
        # timing, so the deterministic same-root case is an explicit
        # re-trigger.
        initiator = net.reconfig_root()
        net.switch(str(initiator)).reconfig.trigger()
        net.run(200_000)
        assert net.reconfig_root() == initiator
        assert net.switch("s0").reconfig.view_tag > tag_before
        assert sum(s.stats.route_installs_full for s in switches) == full_before
        ids = sorted(before)
        for switch in switches:
            old, new = before[switch.node_id], switch._route_computer
            assert new is old and new.root == initiator
            assert switch.stats.route_installs_incremental == 0
            for a in ids:
                for b in ids:
                    assert new.orientation.shortest_legal_path(
                        a, b
                    ) == old.orientation.shortest_legal_path(a, b)
        circuit = net.setup_circuit("h0", "h1")
        assert circuit is not None

    def test_different_root_epoch_builds_one_new_computer(self):
        net = line_with_hosts(3)
        net.start()
        net.run_until_converged(timeout_us=500_000)
        full_before = sum(
            s.stats.route_installs_full for s in net.switches.values()
        )
        # Trigger from a switch that is NOT the current initiator: the
        # root moves, one switch builds the computer for it and the
        # others share it.
        initiator = net.reconfig_root()
        other = [
            s
            for s in net.switches.values()
            if s.node_id != initiator
        ][0]
        other.reconfig.trigger()
        net.run(200_000)
        assert net.reconfig_root() == other.node_id
        full_after = sum(
            s.stats.route_installs_full for s in net.switches.values()
        )
        assert full_after == full_before + 1
        computers = {id(s.route_computer()) for s in net.switches.values()}
        assert len(computers) == 1

    def test_epoch_done_records_the_removed_cable(self):
        net = Network(Topology.ring(4), switch_config=fast_switch_config())
        net.start()
        net.run_until_converged(timeout_us=500_000)
        failed_at = net.now
        net.link_between("s0", "s1").fail()
        net.run(200_000)
        assert net.converged()
        for switch in ("s0", "s1", "s2", "s3"):
            done = [
                row["data"]
                for row in net.recorder.snapshot()
                if row["comp"] == f"switch.{switch}"
                and row["name"] == "epoch.end"
                and row["t"] > failed_at
            ]
            assert done, switch
            assert sum(d["edges_removed"] for d in done) == 1, switch
            assert sum(d["edges_added"] for d in done) == 0, switch


class TestFaultInjection:
    def test_crash_and_restore_switch(self):
        net = line_with_hosts(3)
        failed = net.crash_switch("s1")
        assert len(failed) == 2  # both line links; host links elsewhere
        assert all(not l.working for l in failed)
        restored = net.restore_switch("s1")
        assert len(restored) == 2
        assert all(l.working for l in restored)

    def test_drift_assignment(self):
        topo = Topology.line(3)
        net = Network(
            topo, seed=9, switch_config=fast_switch_config(), drift_ppm=500.0
        )
        drifts = {s.clock.drift_ppm for s in net.switches.values()}
        assert len(drifts) == 3  # each switch got its own drift
        for drift in drifts:
            assert -600.0 < drift < 600.0


class TestCircuitApi:
    def test_setup_circuit_unknown_host(self):
        net = line_with_hosts(2)
        net.start()
        net.run_until_converged(timeout_us=500_000)
        with pytest.raises(KeyError):
            net.setup_circuit("h9", "h1")

    def test_reserve_requires_admission(self, small_net):
        from repro.core.guaranteed.bandwidth_central import ReservationDenied

        central = small_net.bandwidth_central()
        small_net.reserve_bandwidth("h0", "h1", 30, central=central)
        with pytest.raises(ReservationDenied):
            small_net.reserve_bandwidth("h0", "h1", 30, central=central)

    def test_default_reservations_share_the_epochs_central(self):
        """Regression: each default call built a fresh central, so a
        second 30-of-32-slot reservation was admitted and then raised
        ScheduleError from inside the kernel when the switches
        installed it."""
        from repro.core.guaranteed.bandwidth_central import ReservationDenied

        net = converged_line(2)
        net.reserve_bandwidth("h0", "h1", 30)
        pending, circuits = net.sim.pending(), dict(net.circuits)
        with pytest.raises(ReservationDenied):
            net.reserve_bandwidth("h0", "h1", 30)
        assert net.sim.pending() == pending
        assert net.circuits == circuits
        net.run(1_000)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_dual_homed_source_reserves_from_the_link_it_sends_on(
        self, seed
    ):
        """Regression: bandwidth central could start the path on h0's
        standby cable while h0 sends on its active one, so every
        reserved cell waited at the first switch for a setup that
        never came there."""
        from repro.conform.digest import replay_network

        net = replay_network(seed)
        net.start()
        net.run_until(net.converged, timeout_us=30_000)
        h0 = net.host("h0")
        circuit, reservation = net.reserve_bandwidth("h0", "h1", 4)
        assert reservation.route_edges[0] == h0.edge_on_port(
            h0.active_port_index
        )
        h0.send_raw_cells(circuit.vc, 50)
        net.run(5_000)
        assert net.host("h1").cells_received == 50

    def test_circuits_registry(self, small_net):
        circuit = small_net.setup_circuit("h0", "h1")
        assert small_net.circuits[circuit.vc] is circuit


class TestFlowControlAgreement:
    def test_hosts_follow_the_switches_when_host_config_is_omitted(self):
        """Regression: credit-mode hosts behind drop-mode switches never
        got a credit back -- 40 packets offered, 0 delivered, 0 dropped,
        no error."""
        topo = Topology.line(2)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0, bps=622_000_000)
        topo.connect("h1", "s1", port_a=0, bps=622_000_000)
        net = Network(
            topo, switch_config=fast_switch_config(flow_control="drop")
        )
        assert not net.host("h0").credits[0].credit_mode
        net.start()
        net.run_until_converged(timeout_us=500_000)
        circuit = net.setup_circuit("h0", "h1")
        for _ in range(40):
            net.host("h0").send_packet(
                circuit.vc,
                Packet(source=host_id(0), destination=host_id(1), size=480),
            )
        net.run(100_000)
        assert len(net.host("h1").delivered) == 40

    def test_hosts_take_the_switches_window(self):
        """Regression: default hosts kept a 5-credit window onto the 2
        buffers the switches were configured with -- 2 cells dropped, 34
        reassembly errors, nothing delivered, in "lossless" mode."""
        topo = Topology.line(2)
        topo.add_host(0)
        topo.add_host(1)
        topo.connect("h0", "s0", port_a=0, bps=622_000_000)
        topo.connect("h1", "s1", port_a=0, bps=622_000_000)
        net = Network(
            topo, switch_config=fast_switch_config(credit_allocation=2)
        )
        net.start()
        net.run_until_converged(timeout_us=500_000)
        circuit = net.setup_circuit("h0", "h1")
        assert net.host("h0").credits[0].upstream[circuit.vc].allocation == 2
        net.host("h0").send_packet(
            circuit.vc,
            Packet(source=host_id(0), destination=host_id(1), size=48 * 40),
        )
        net.run(100_000)
        h1 = net.host("h1")
        assert (h1.cells_received, len(h1.delivered)) == (40, 1)
        assert net.total_cells_dropped() == 0
        assert h1.reassembly_errors == 0


class TestConfigValidation:
    """Nonsense is rejected at construction with the field's name, not
    by a hang or a ZeroDivisionError deep in a run."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flow_control", "credit"),
            ("frame_slots", 0),
            ("n_ports", 0),
            ("credit_allocation", 0),
            ("control_delay_us", -1.0),
            ("ping_interval_us", -1.0),
            ("ack_timeout_us", -1.0),
            ("skeptic_base_wait_us", -1.0),
            ("skeptic_decay_us", -1.0),
            ("boot_reconfig_delay_us", -1.0),
            ("reconfig_watchdog_us", -1.0),
            ("resync_interval_us", -1.0),
            ("paging_idle_us", -1.0),
            ("nested_subframe_slots", 7),
            ("nested_subframe_slots", 0),
            ("miss_threshold", float("nan")),
            ("miss_threshold", 0),
            ("n_ports", float("inf")),
            ("frame_slots", 2.5),
            ("frame_slots", True),
            ("credit_allocation", 2.5),
            ("clock_drift_ppm", float("nan")),
            ("ping_interval_us", float("inf")),
            ("skeptic_max_level", -1),
        ],
    )
    def test_switch_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"SwitchConfig.{field}="):
            SwitchConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ping_interval_us", -1.0),
            ("ack_timeout_us", -1.0),
            ("skeptic_base_wait_us", -1.0),
            ("skeptic_decay_us", -1.0),
            ("miss_threshold", float("nan")),
            ("miss_threshold", 0),
            ("skeptic_max_level", -1),
            ("skeptic_max_level", 2.5),
            ("skeptic_base_wait_us", float("inf")),
        ],
    )
    def test_host_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=f"HostConfig.{field}="):
            HostConfig(**{field: value})

    def test_an1_config_rejects_nan_miss_threshold(self):
        with pytest.raises(ValueError, match="An1Config.miss_threshold="):
            An1Config(miss_threshold=float("nan"))

    @pytest.mark.parametrize("config", [SwitchConfig, HostConfig, An1Config])
    def test_configs_take_keywords_only(self, config):
        """The shared monitor fields come first in every config, so a
        positional ``SwitchConfig(8)`` would set the ping interval."""
        with pytest.raises(TypeError):
            config(8)

    def test_defaults_and_disabling_zeros_are_accepted(self):
        SwitchConfig()
        HostConfig()
        SwitchConfig(resync_interval_us=0.0, nested_subframe_slots=32)
