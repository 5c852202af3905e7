"""ScenarioRunner mechanics: fault application, traffic, determinism,
observability wiring, and the invariant checker."""

import pytest

from repro.conform.digest import RunDigest, fingerprint_network
from repro.faults.invariants import max_verdict_changes
from repro.faults.plan import (
    ClockDriftStep,
    CreditLossBurst,
    ErrorRateStep,
    FaultPlan,
    LinkCut,
    LinkFlap,
    SwitchCrash,
)
from repro.faults.runner import ScenarioError, ScenarioRunner, TrafficLoad
from repro.faults.scenarios import CANNED
from repro.net.host import HostConfig
from repro.net.network import Network
from repro.net.topology import Topology
from repro.obs.trace import Tracer
from repro.switch.switch import SwitchConfig

from tests.conftest import fast_host_config, fast_switch_config


def ring_net(seed: int = 1, **overrides) -> Network:
    """h0 - (s0 s1 s2 ring) - h1: redundant, so cuts do not partition."""
    topo = Topology.ring(3)
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0, bps=622_000_000)
    topo.connect("h0", "s1", port_a=1, bps=622_000_000)
    topo.connect("h1", "s2", port_a=0, bps=622_000_000)
    topo.connect("h1", "s1", port_a=1, bps=622_000_000)
    overrides.setdefault("resync_interval_us", 5_000.0)
    return Network(
        topo,
        seed=seed,
        switch_config=fast_switch_config(**overrides),
        host_config=fast_host_config(),
    )


LOAD = TrafficLoad(
    source="h0", destination="h1", packet_size=200,
    interval_us=2_000.0, count=30,
)


def run(net, plan, loads=(LOAD,), **kwargs):
    kwargs.setdefault("settle_us", 60_000.0)
    return ScenarioRunner(net, plan, loads, **kwargs).run()


class TestFaultApplication:
    def test_link_cut_and_restore(self):
        net = ring_net()
        plan = FaultPlan.of(
            LinkCut(at_us=20_000.0, a="s0", b="s2", restore_at_us=60_000.0),
        )
        result = run(net, plan)
        assert net.link_between("s0", "s2").working
        gauges = net.metrics_snapshot()["faults"]["gauges"]
        assert gauges["link_cuts"] == 1
        assert result.faults_applied == 1
        assert result.passed, result.report()

    def test_flap_train_counts_every_transition(self):
        net = ring_net()
        plan = FaultPlan.of(
            LinkFlap(at_us=20_000.0, a="s0", b="s2", flaps=3,
                     down_us=2_000.0, up_us=2_000.0),
        )
        result = run(net, plan)
        gauges = net.metrics_snapshot()["faults"]["gauges"]
        assert gauges["flap_transitions"] == 6  # 3 downs + 3 ups
        assert net.link_between("s0", "s2").working
        assert result.passed, result.report()

    def test_credit_burst_drops_and_unhooks(self):
        net = ring_net()
        plan = FaultPlan.of(
            CreditLossBurst(at_us=10_000.0, a="s1", b="s2",
                            duration_us=30_000.0, probability=1.0),
            CreditLossBurst(at_us=10_000.0, a="s0", b="s1",
                            duration_us=30_000.0, probability=1.0),
            CreditLossBurst(at_us=10_000.0, a="s0", b="s2",
                            duration_us=30_000.0, probability=1.0),
        )
        result = run(net, plan)
        # Whatever route the circuit took, one burst covered it.
        gauges = net.metrics_snapshot()["faults"]["gauges"]
        assert gauges["credit_cells_dropped"] > 0
        for link in net.links.values():
            assert link.drop_filter is None
        assert result.passed, result.report()

    def test_error_step_reverts_rate(self):
        net = ring_net()
        plan = FaultPlan.of(
            ErrorRateStep(at_us=20_000.0, a="s0", b="s2",
                          rate=0.5, until_us=40_000.0),
        )
        run(net, plan)
        assert net.link_between("s0", "s2").error_rate == 0.0

    def test_clock_drift_step_applied(self):
        net = ring_net()
        plan = FaultPlan.of(
            ClockDriftStep(at_us=20_000.0, switch="s1", drift_ppm=150.0),
        )
        run(net, plan)
        assert net.switch("s1").clock.drift_ppm == 150.0


class TestTrafficAndDeterminism:
    def test_recorded_payloads_match_deliveries(self):
        net = ring_net()
        result = run(net, FaultPlan())
        assert result.passed, result.report()
        total_sent = sum(len(p) for p in result.sent.values())
        assert total_sent == LOAD.count
        assert result.delivered == LOAD.count
        delivered = {p.uid: p for p in net.host("h1").delivered}
        for packets in result.sent.values():
            for sent_packet in packets:
                assert delivered[sent_packet.uid].payload == sent_packet.payload

    def test_same_seed_replays_exactly(self):
        outcomes = []
        for _ in range(2):
            net = ring_net(seed=9)
            plan = FaultPlan.of(
                CreditLossBurst(at_us=10_000.0, a="s0", b="s1",
                                duration_us=20_000.0, probability=0.7),
                LinkCut(at_us=40_000.0, a="s0", b="s2",
                        restore_at_us=60_000.0),
            )
            result = run(net, plan)
            gauges = net.metrics_snapshot()["faults"]["gauges"]
            payload_digest = [
                p.payload
                for packets in result.sent.values()
                for p in packets
            ]
            outcomes.append(
                (
                    result.delivered,
                    result.settled_at_us,
                    gauges["credit_cells_dropped"],
                    payload_digest,
                )
            )
        assert outcomes[0] == outcomes[1]

    #: Run digest (kernel events + final network state) of the canned
    #: ``corruption_burst`` scenario.
    CORRUPTION_BURST_DIGEST = (
        "9a26a80114d5c06cd16489a50edf48abfcffe8e4f1ed933fe99060936656a57d"
    )

    def test_corruption_burst_digest_is_pinned(self):
        """A change that moves a single kernel event or a byte of final
        network state of a plain scenario run shows here."""
        net, plan, loads = CANNED["corruption_burst"].build()
        digest = RunDigest()
        net.sim.digest = digest
        result = ScenarioRunner(net, plan, loads).run()
        net.sim.digest = None
        digest.absorb("network-state", fingerprint_network(net))
        assert digest.hexdigest() == self.CORRUPTION_BURST_DIGEST
        assert result.passed, result.report()

    @pytest.mark.parametrize(
        "event",
        [
            SwitchCrash(at_us=5_000.0, switch="s99"),
            ClockDriftStep(at_us=5_000.0, switch="h0"),
            LinkCut(at_us=5_000.0, a="s0", b="s9"),
            LinkFlap(at_us=5_000.0, a="s0", b="h1"),
        ],
    )
    def test_plan_naming_a_missing_target_is_refused(self, event):
        """A fault that hits nothing would leave every invariant green;
        the runner refuses it before scheduling anything."""
        net = ring_net()
        with pytest.raises(ScenarioError, match="in this network"):
            ScenarioRunner(net, FaultPlan.of(event), (LOAD,))
        assert net.sim.pending() == 0

    @pytest.mark.parametrize(
        "first, second",
        [
            # The crash's restart revived the permanently cut cable.
            (
                LinkCut(at_us=10_000.0, a="s0", b="s1"),
                SwitchCrash(at_us=20_000.0, switch="s1",
                            restart_at_us=40_000.0),
            ),
            # The first step's end put 0.01 back for good.
            (
                ErrorRateStep(at_us=10_000.0, a="s0", b="s1", rate=0.01,
                              until_us=30_000.0),
                ErrorRateStep(at_us=20_000.0, a="s0", b="s1", rate=0.02,
                              until_us=40_000.0),
            ),
            # Crashing an already-crashed switch.
            (
                SwitchCrash(at_us=10_000.0, switch="s1",
                            restart_at_us=30_000.0),
                SwitchCrash(at_us=20_000.0, switch="s1",
                            restart_at_us=40_000.0),
            ),
        ],
        ids=["cut-under-crash", "error-steps", "crash-over-crash"],
    )
    def test_overlapping_faults_on_one_cable_are_refused(self, first, second):
        """Each fault restores what it saw when it began, so two of one
        kind on a cable in overlapping windows silently undo each other
        while every invariant still passes."""
        net = ring_net()
        with pytest.raises(ScenarioError, match="overlapping windows"):
            ScenarioRunner(net, FaultPlan.of(first, second), (LOAD,))
        assert net.sim.pending() == 0

    def test_disjoint_or_unrelated_faults_on_one_cable_are_accepted(self):
        net = ring_net()
        ScenarioRunner(
            net,
            FaultPlan.of(
                LinkCut(at_us=10_000.0, a="s0", b="s1",
                        restore_at_us=20_000.0),
                SwitchCrash(at_us=30_000.0, switch="s1",
                            restart_at_us=40_000.0),
                ErrorRateStep(at_us=15_000.0, a="s0", b="s1", rate=0.01,
                              until_us=35_000.0),
                CreditLossBurst(at_us=15_000.0, a="s0", b="s1"),
            ),
            (LOAD,),
        )

    def test_boot_failure_is_a_scenario_error(self):
        from repro.faults.runner import ScenarioError

        # A timeout too short for even fast configs to reconfigure in.
        net = Network(Topology.line(2), switch_config=fast_switch_config())
        with pytest.raises(ScenarioError):
            ScenarioRunner(net, FaultPlan(), convergence_timeout_us=1.0).run()


@pytest.mark.parametrize(
    "field, value",
    [
        ("packet_size", 0),
        ("packet_size", 2.5),
        ("packet_size", float("nan")),
        ("packet_size", True),
        ("interval_us", 0.0),
        ("interval_us", float("nan")),
        ("interval_us", float("inf")),
        ("count", -1),
        ("count", float("nan")),
        ("count", 3.0),
    ],
)
def test_traffic_load_rejects_bad_input_at_construction(field, value):
    """A load that would fail mid-run (an unschedulable send time, a
    non-integer size or count) is refused when it is built."""
    kwargs = dict(source="h0", destination="h1", packet_size=200,
                  interval_us=2_000.0, count=30)
    kwargs[field] = value
    with pytest.raises(ScenarioError, match=f"TrafficLoad.{field}"):
        TrafficLoad(**kwargs)


class TestObservability:
    def test_trace_spans_per_fault(self):
        net = ring_net()
        tracer = Tracer(categories={"faults"})
        net.sim.tracer = tracer
        plan = FaultPlan.of(
            LinkCut(at_us=20_000.0, a="s0", b="s2", restore_at_us=50_000.0),
        )
        run(net, plan)
        names = [r.name for r in tracer.records]
        assert "fault.link_cut.begin" in names
        assert "fault.link_cut.end" in names
        assert "scenario.begin" in names
        assert "scenario.end" in names
        begin = next(r for r in tracer.records if r.name == "fault.link_cut.begin")
        end = next(r for r in tracer.records if r.name == "fault.link_cut.end")
        assert end.time - begin.time == pytest.approx(30_000.0)
        assert end.payload["duration"] == pytest.approx(30_000.0)

    def test_fault_windows_close_in_the_flight_recorder(self):
        """No tracer attached: the recorder alone holds both ends of
        every fault window."""
        net = ring_net()
        plan = FaultPlan.of(
            LinkCut(at_us=20_000.0, a="s0", b="s2", restore_at_us=50_000.0),
            LinkFlap(at_us=60_000.0, a="s1", b="s2", flaps=2,
                     down_us=1_000.0, up_us=1_000.0),
        )
        run(net, plan)
        rows = [r for r in net.recorder.snapshot() if r["comp"] == "faults"]
        names = [r["name"] for r in rows]
        for name in ("fault.link_cut", "fault.link_flap", "scenario"):
            assert f"{name}.begin" in names and f"{name}.end" in names
        cut_end = rows[names.index("fault.link_cut.end")]
        assert cut_end["data"] == {"duration": 30_000.0, "restored": True}
        # a flap train closes at its last restore
        flap_end = rows[names.index("fault.link_flap.end")]
        assert flap_end["data"]["duration"] == pytest.approx(3_000.0)
        assert {r["cat"] for r in rows} == {"faults"}

    def test_metrics_registered_under_faults_node(self):
        net = ring_net()
        run(net, FaultPlan.of(LinkFlap(at_us=10_000.0, a="s0", b="s2",
                                       flaps=1, down_us=1_000.0,
                                       up_us=1_000.0)))
        assert "faults" in net.metrics_snapshot()
        gauges = net.metrics_snapshot()["faults"]["gauges"]
        assert gauges["events_applied"] >= 2


class TestInvariantChecker:
    def test_quiet_network_passes_everything(self):
        net = ring_net()
        result = run(net, FaultPlan())
        assert result.passed
        names = [r.name for r in result.invariants]
        assert "reconfiguration converged" in names
        assert "skeptic verdict rate bounded" in names
        assert "credit conservation" in names
        assert "no silent mis-assembly" in names

    def test_partition_converges_on_main_component(self):
        # Cut both of s2's trunks permanently: the switch core shrinks
        # to {s0, s1}.  Convergence is judged on the main component --
        # it must still settle on one epoch matching the new reality.
        net = ring_net()
        plan = FaultPlan.of(
            LinkCut(at_us=20_000.0, a="s0", b="s2"),
            LinkCut(at_us=20_000.0, a="s1", b="s2"),
        )
        result = run(net, plan)
        convergence = next(
            r for r in result.invariants if r.name == "reconfiguration converged"
        )
        assert convergence.passed, convergence.detail
        assert [str(s) for s in net.main_component_switches()] == ["s0", "s1"]

    def test_misassembly_checker_catches_forged_delivery(self):
        from repro.faults.invariants import check_no_misassembly
        from repro.net.packet import Packet

        net = ring_net()
        result = run(net, FaultPlan())
        assert result.passed
        # Corrupt a delivered payload post hoc: the checker must notice.
        victim = net.host("h1").delivered[0]
        victim.payload = b"forged" + victim.payload[6:]
        verdict = check_no_misassembly(net, result.sent)
        assert not verdict.passed
        assert "corrupted" in verdict.detail

    def test_bound_grows_with_duration(self):
        short = max_verdict_changes(10_000.0, 2_000.0, 4, 200_000.0)
        long = max_verdict_changes(1_000_000.0, 2_000.0, 4, 200_000.0)
        assert long > short >= 2
