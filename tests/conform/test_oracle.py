"""Differential-oracle tests: agreement, divergence detection, corpus."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.conform.oracle as oracle
from repro.conform.oracle import (
    FAULTS,
    MATCHER_KINDS,
    MONITOR,
    PARKING,
    Divergence,
    compare,
    compare_matchers,
    compare_routing,
    drawn_monitor_case,
    matcher_sweep,
    monitor_case,
    reserved_case,
    routing_sweep,
)
from repro.conform.reference import IslipMatcher
from repro.switch.fabric import VoqFabric

from benchmarks.e2e.run import PROGRAM_MODULES

CORPUS_PATH = Path(__file__).parent / "corpus.json"


def _records_sha256(records) -> str:
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# agreement on the real implementations
# ----------------------------------------------------------------------
class TestAgreement:
    @pytest.mark.parametrize("kind", MATCHER_KINDS)
    def test_reference_and_bitmask_agree(self, kind):
        divergence, matchings_hash = compare_matchers(
            kind, n_ports=8, seed=7, pattern="bernoulli-0.6", n_slots=80
        )
        assert divergence is None
        assert len(matchings_hash) == 64

    def test_matchings_hash_is_seed_sensitive(self):
        _, h1 = compare_matchers("pim", 4, 1, "bernoulli-0.6", n_slots=40)
        _, h2 = compare_matchers("pim", 4, 2, "bernoulli-0.6", n_slots=40)
        assert h1 != h2

    def test_small_sweep_clean(self):
        divergences, records = matcher_sweep(
            seeds=[0, 1], sizes=(4,), n_slots=40
        )
        assert divergences == []
        assert len(records) == 2 * 1 * len(MATCHER_KINDS) * len(
            oracle.PATTERNS
        )
        assert all(r["agreed"] for r in records)

    def test_routing_clean(self):
        divergence, paths_hash = compare_routing(seed=3, n_switches=6)
        assert divergence is None
        assert len(paths_hash) == 64

    def test_routing_sweep_clean(self):
        divergences, records = routing_sweep(seeds=[0, 1], sizes=(5,))
        assert divergences == []
        assert all(r["agreed"] for r in records)


# ----------------------------------------------------------------------
# the oracle must actually detect divergence
# ----------------------------------------------------------------------
class _SabotagedIslip(IslipMatcher):
    """Drops the lowest-input match after a few clean slots."""

    def __init__(self, n_ports, iterations=3, break_after=5):
        super().__init__(n_ports, iterations)
        self._calls = 0
        self._break_after = break_after

    def match(self, requests, pre_matched=None):
        result = super().match(requests, pre_matched)
        self._calls += 1
        if self._calls > self._break_after and result.matching:
            del result.matching[min(result.matching)]
        return result


class TestDivergenceDetection:
    def test_broken_matcher_is_caught(self, monkeypatch):
        def sabotaged_pair(kind, n_ports, seed):
            assert kind == "islip"
            return (
                VoqFabric(n_ports, IslipMatcher(n_ports, iterations=3)),
                VoqFabric(n_ports, _SabotagedIslip(n_ports, iterations=3)),
            )

        monkeypatch.setattr(oracle, "_build_pair", sabotaged_pair)
        divergence, _ = compare_matchers(
            "islip", n_ports=8, seed=0, pattern="bernoulli-0.95", n_slots=80
        )
        assert isinstance(divergence, Divergence)
        assert divergence.kind == "matcher"
        assert divergence.pair == "islip"
        assert divergence.round >= 0
        assert divergence.port >= 0
        # The sabotage removes a grant, so the reference saw one where
        # the candidate has none.
        assert divergence.reference is not None
        assert divergence.candidate is None
        # The report must carry enough to reproduce the case.
        text = str(divergence)
        assert "seed=0" in text and "round" in text and "port" in text

    def test_divergence_reports_first_slot(self, monkeypatch):
        def sabotaged_pair(kind, n_ports, seed):
            return (
                VoqFabric(n_ports, IslipMatcher(n_ports, iterations=3)),
                VoqFabric(
                    n_ports,
                    _SabotagedIslip(n_ports, iterations=3, break_after=0),
                ),
            )

        monkeypatch.setattr(oracle, "_build_pair", sabotaged_pair)
        divergence, _ = compare_matchers(
            "islip", n_ports=4, seed=1, pattern="bernoulli-0.95", n_slots=40
        )
        assert divergence is not None
        assert divergence.round <= 2  # near-full load diverges immediately


# ----------------------------------------------------------------------
# committed regression corpus
# ----------------------------------------------------------------------
class TestCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        with open(CORPUS_PATH) as f:
            return json.load(f)

    def test_corpus_shape(self, corpus):
        assert len(corpus["matcher"]) == 600
        assert len(corpus["routing"]) == 60
        assert {r["kind"] for r in corpus["matcher"]} == set(MATCHER_KINDS)
        assert all(r["agreed"] for r in corpus["matcher"])
        assert all(r["agreed"] for r in corpus["routing"])
        # The corpus is only ever filtered, never regenerated in place:
        # these are the hashes of the pim+islip and routing records as
        # first committed (then beside 300 fifo records).
        assert _records_sha256(corpus["matcher"]) == (
            "88ad504cc852183442ca776de5339dab"
            "4c36cebad3aef66383d288397c734fbc"
        )
        assert _records_sha256(corpus["routing"]) == (
            "521cd84459e2dbce43db4ed97fb87971"
            "b7d3849265912448d01d836547521832"
        )

    def test_matcher_records_replay(self, corpus):
        # Re-running the full 600-case grid is the conformance gate's
        # job; here we replay a fixed cross-section and pin its hashes.
        for record in corpus["matcher"][::151]:
            divergence, matchings_hash = compare_matchers(
                record["kind"],
                record["n_ports"],
                record["seed"],
                record["pattern"],
                n_slots=record["n_slots"],
            )
            assert divergence is None, str(divergence)
            assert matchings_hash == record["matchings_sha256"], record

    def test_routing_records_replay(self, corpus):
        for record in corpus["routing"][::23]:
            n = record["n_switches"]
            divergence, paths_hash = compare_routing(
                record["seed"], n_switches=n, extra_edges=max(2, n // 2)
            )
            assert divergence is None, str(divergence)
            assert paths_hash == record["paths_sha256"], record


# ----------------------------------------------------------------------
# whole-Network twins
# ----------------------------------------------------------------------
class TestFastpathOracle:
    @pytest.mark.parametrize("row, case, seed", [
        *((PARKING, "replay", seed) for seed in range(5)),
        (PARKING, "reserved", 4),
        (PARKING, "chaos", 4),
    ], ids=lambda value: getattr(value, "name", value))
    def test_twin_agrees(self, row, case, seed):
        divergence, record = compare(row, case, row.cases[case], seed)
        assert divergence is None, str(divergence)
        assert record["agreed"]
        if case == "reserved":  # not vacuous: switches did park
            assert record["candidate"]["walks"][2] > 10_000

    def test_parking_oracle_catches_a_missing_kick(self, monkeypatch):
        """``remove_reservation`` did not kick before switches could
        park.  Without it a switch whose last reservation goes while it
        is parked keeps the wave chain alive for good: more waves, other
        seqs -- the differential must say so."""
        from repro.core.guaranteed.slepian_duguid import remove_cell
        from repro.switch.switch import AN2Switch

        def remove_without_kick(self, in_port, out_port, cells_per_frame):
            for _ in range(cells_per_frame):
                remove_cell(self.frame_schedule, in_port, out_port)

        monkeypatch.setattr(
            AN2Switch, "remove_reservation", remove_without_kick
        )
        divergence, record = compare(PARKING, "reserved", reserved_case)
        assert not record["agreed"]
        assert (divergence.pair, divergence.case) == (
            "parking", "reserved:run-digest"
        )


class TestMonitorOracle:
    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from(("ring4", "fattree4")),
        st.lists(
            st.tuples(
                st.floats(2_000.0, 30_000.0), st.sampled_from(FAULTS),
                st.integers(0, 63),
            ),
            max_size=6,
        ),
    )
    def test_closed_form_agrees_with_the_eager_loop(self, topology, schedule):
        divergence, _ = compare(MONITOR, topology, partial(
            monitor_case, topology=topology, schedule=schedule,
        ))
        assert divergence is None, str(divergence)

    def test_monitor_oracle_catches_a_cut_the_closed_form_missed(
        self, monkeypatch
    ):
        """A cable cut that leaves the quiet monitors asleep: their
        phantom pings keep being acked, so no verdict ever changes."""
        from repro.net.link import Link, LinkState

        def cut_quietly(link, state):
            link.state = state

        monkeypatch.setattr(Link, "_set_state", cut_quietly)
        divergence, _ = compare(MONITOR, "ring4", partial(
            monitor_case, topology="ring4", schedule=[(6_000.0, "fail", 0)],
        ))
        assert (divergence.pair, divergence.case) == (
            "monitor", "ring4:verdicts"
        )
        assert LinkState.DEAD.value in str(divergence.reference)

    @pytest.mark.parametrize(
        "mutation", ["ping-ignores-backlog", "ack-with-ping-delay"]
    )
    def test_monitor_oracle_catches_a_mistimed_phantom(
        self, monkeypatch, mutation
    ):
        """A phantom ping that starts on a busy wire without waiting
        for it, or an ack handled as late as a ping would be: the next
        real cell leaves earlier, or a counter read just after an ack
        arrives reads one short (seen through the delivered count each
        cell's entry carries)."""
        from repro.core.reconfig.monitor import PortMonitor
        from repro.net.cell import PING

        launch = PortMonitor._launch

        def mistimed(monitor, link, direction, kind):
            wire = link._next_free
            if mutation == "ping-ignores-backlog" and kind is PING:
                wire[direction] = min(wire[direction], monitor._due)
            launch(monitor, link, direction, kind)
            if mutation == "ack-with-ping-delay":
                monitor._due = (
                    monitor._arrival + link._delays[direction][PING.index]
                )

        monkeypatch.setattr(PortMonitor, "_launch", mistimed)
        divergence, _ = compare(MONITOR, "drawn", drawn_monitor_case, 4)
        assert (divergence.pair, divergence.case) == ("monitor", "drawn:cells")


#: What a ``Network`` never runs, though the packages that hold it do.
NOT_IN_A_NETWORK = (
    "repro.switch.fabric",
    "repro.switch.an1",
    "repro.traffic.arq",
    "repro.traffic.arrivals",
    "repro.core.matching.analysis",
    "repro.core.matching.fifo",
    "repro.core.matching.maximum",
    "repro.core.flowcontrol.deadlock",
    "repro.core.guaranteed.latency",
    "repro.core.guaranteed.packing",
)

#: (modules imported, none loaded may be or lie under these, most
#: ``repro`` modules loaded).
IMPORT_GRAPH = [
    pytest.param(("repro",), (), 1, id="repro"),
    pytest.param(
        ("repro.sim.kernel",), ("repro.net", "repro.switch", "repro.core"), 3,
        id="kernel",
    ),
    pytest.param(
        PROGRAM_MODULES, ("repro.faults", "repro.analysis", *NOT_IN_A_NETWORK),
        63, id="e2e-program",
    ),
]


@pytest.mark.parametrize("imports, excluded, most", IMPORT_GRAPH)
def test_import_graph(imports, excluded, most):
    """Importing a module loads its own imports and nothing else: no
    package ``__init__`` pulls in modules its caller does not use.  The
    oracle is test-only, so no row loads ``repro.conform`` or a module
    that defines a reference matcher."""
    code = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "names = ('ParallelIterativeMatcher', 'IslipMatcher')\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name.split('.')[0] == 'repro':\n"
        "        print(name, any(hasattr(module, n) for n in names))"
    )
    # Resolve ``repro`` in the child exactly where this process found it.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code, *imports],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = dict(line.split() for line in out.stdout.splitlines())
    assert [name for name, ref in loaded.items() if ref == "True"] == []
    assert [
        name for name in loaded
        if any(
            name == x or name.startswith(x + ".")
            for x in ("repro.conform", *excluded)
        )
    ] == []
    assert len(loaded) <= most, sorted(loaded)
