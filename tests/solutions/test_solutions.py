"""The pluggable loss-recovery layer: registry, runner wiring, the
do_nothing digest-neutrality contract, and the A6 acceptance comparison."""

from __future__ import annotations

import pytest

import repro.conform.digest as digest_mod
from repro.faults import CANNED, ScenarioRunner, build_corruption_burst
from repro.solutions import SOLUTIONS, make_solution
from repro.solutions.base import Solution, SolutionError
from repro.solutions.e2e_arq import EndToEndArq


def run_scenario(name, solution_name, **kwargs):
    net, plan, loads = CANNED[name].build()
    solution = make_solution(solution_name)
    runner = ScenarioRunner(net, plan, loads, solution=solution, **kwargs)
    return runner.run(), net


class TestRegistry:
    def test_all_four_solutions_registered(self):
        assert sorted(SOLUTIONS) == [
            "disable_and_repair", "do_nothing", "e2e_arq", "link_retx",
        ]

    def test_make_solution_unknown_name(self):
        with pytest.raises(SolutionError):
            make_solution("no_such_solution")

    def test_make_solution_returns_fresh_instances(self):
        assert make_solution("do_nothing") is not make_solution("do_nothing")


class TestDigestNeutrality:
    #: Run digest (kernel events + final network state) of
    #: ``corruption_burst`` with no loss-recovery hooks at all, as the
    #: runner produced it before every run went through a solution.
    #: Re-pinned when each control cell became one link event (the
    #: events this hashes changed; do_nothing still equals the bare run).
    BARE_CORRUPTION_BURST = (
        "850a8464eeb2c77563f09eec96a5e6421cd9d8fc73369553d347a2d3db7c79c8"
    )

    def test_do_nothing_is_digest_identical_to_no_solution(self):
        """The baseline contract: do_nothing -- given or by default --
        must not change a single kernel event or a byte of final network
        state relative to a run with no recovery hooks."""

        def digest_of(**kwargs):
            net, plan, loads = CANNED["corruption_burst"].build()
            digest = digest_mod.RunDigest()
            net.sim.digest = digest
            result = ScenarioRunner(net, plan, loads, **kwargs).run()
            net.sim.digest = None
            digest.absorb(
                "network-state", digest_mod.fingerprint_network(net)
            )
            return digest.hexdigest(), result

        for kwargs in ({}, {"solution": make_solution("do_nothing")}):
            hexdigest, result = digest_of(**kwargs)
            assert hexdigest == self.BARE_CORRUPTION_BURST
            assert result.passed
            assert result.solution_name == "do_nothing"


class TestScenarioMatrix:
    @pytest.mark.parametrize("solution_name", sorted(SOLUTIONS))
    def test_corruption_burst_invariants_hold(self, solution_name):
        result, _ = run_scenario("corruption_burst", solution_name)
        assert result.passed, [
            r for r in result.invariants if not r.passed
        ]
        assert result.solution_name == solution_name
        assert result.settled_at_us is not None

    def test_link_retx_recovers_the_burst(self):
        result, net = run_scenario("corruption_burst", "link_retx")
        metrics = result.solution_metrics
        corrupted = sum(
            link.cells_corrupted for link in net.links.values()
        )
        assert corrupted > 0  # the scenario actually injected noise
        assert metrics["recovered"] > 0
        assert metrics["abandoned"] == 0
        # Every offered packet arrived: link-local recovery hid the
        # corruption from the hosts entirely.
        sent = sum(len(p) for p in result.sent.values())
        assert result.delivered == sent

    def test_disable_and_repair_runs_a_repair_cycle(self):
        result, _ = run_scenario("corruption_burst", "disable_and_repair")
        metrics = result.solution_metrics
        assert metrics["repairs_started"] >= 1
        assert metrics["repairs_completed"] == metrics["repairs_started"]
        assert metrics["epochs_consumed"] >= 2  # fail + restore


class TestAcceptance:
    def test_link_retx_beats_e2e_arq_on_e2e_retransmissions(self):
        """The A6 headline: sub-RTT link-local recovery must spend
        strictly fewer end-to-end retransmissions than go-back-N on the
        identical corruption burst."""
        retx_result, _ = run_scenario("corruption_burst", "link_retx")
        arq_result, _ = run_scenario("corruption_burst", "e2e_arq")
        retx = retx_result.solution_metrics.get("e2e_retransmissions", 0.0)
        arq = arq_result.solution_metrics["e2e_retransmissions"]
        assert arq > 0  # go-back-N actually paid for the corruption
        assert retx < arq
        assert arq_result.solution_metrics["transfers_done"] == 1


class TestRunnerWiring:
    def test_arq_without_ack_circuits_raises(self):
        net, plan, loads = build_corruption_burst()
        solution = EndToEndArq()
        solution.attach(net)
        with pytest.raises(SolutionError):
            solution.schedule_traffic(None, 0.0, [1])

    def test_solution_report_line(self):
        result, _ = run_scenario("corruption_burst", "do_nothing")
        assert "solution: do_nothing" in result.report()

    def test_base_solution_defaults_are_inert(self):
        class Probe(Solution):
            name = "probe"

        net, _, _ = CANNED["flapping_link"].build()
        solution = Probe()
        solution.attach(net)
        assert solution.schedule_traffic(None, 0.0, []) is False
        assert solution.metrics() == {}
        assert solution.invariants(net) == []
