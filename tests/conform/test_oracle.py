"""Differential-oracle tests: agreement, divergence detection, corpus."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.conform.oracle as oracle
from repro.conform.oracle import (
    MATCHER_KINDS,
    Divergence,
    compare_matchers,
    compare_routing,
    matcher_sweep,
    routing_sweep,
)
from repro.conform.reference import IslipMatcher
from repro.switch.fabric import VoqFabric

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
# slot-driver differential (fabric-wide wave vs private slot timers)
# ----------------------------------------------------------------------
class TestFastpathOracle:
    def test_slot_driver_scenario_agrees(self):
        from repro.conform.oracle import compare_slot_driver

        divergence, record = compare_slot_driver(seed=1)
        assert divergence is None, str(divergence)
        assert record["agreed"]
        assert record["events_on"] < record["events_off"]

    def test_parking_sweep_agrees(self):
        """Sparse walk vs every armed switch every wave, on the cases
        ``tools/run_conformance.py`` sweeps (the wider family is
        ``tests/fastpath/test_parking.py``)."""
        from repro.conform.oracle import parking_sweep

        divergences, records = parking_sweep([4])
        assert not divergences, str(divergences[0])
        assert [r["case"] for r in records] == ["replay", "reserved", "chaos"]
        assert all(r["agreed"] for r in records)
        assert sum(r["parked"] for r in records) > 10_000

    def test_parking_oracle_catches_a_missing_kick(self, monkeypatch):
        """``remove_reservation`` did not kick before switches could
        park.  Without it a switch whose last reservation goes while it
        is parked keeps the wave chain alive for good: more waves, other
        seqs -- the differential must say so."""
        from repro.conform.oracle import compare_parking, reserved_case
        from repro.core.guaranteed.slepian_duguid import remove_cell
        from repro.switch.switch import AN2Switch

        def remove_without_kick(self, in_port, out_port, cells_per_frame):
            for _ in range(cells_per_frame):
                remove_cell(self.frame_schedule, in_port, out_port)

        monkeypatch.setattr(
            AN2Switch, "remove_reservation", remove_without_kick
        )
        divergence, record = compare_parking(reserved_case, "reserved")
        assert divergence is not None and not record["agreed"]
        assert divergence.pair == "parking"
        assert divergence.case == "reserved:run-digest"


def test_runtime_import_graph_excludes_the_oracle():
    """``import repro`` loads neither ``repro.conform`` nor any module
    that defines a reference matcher: the oracle is test-only."""
    code = (
        "import sys, repro\n"
        "names = ('ParallelIterativeMatcher', 'IslipMatcher')\n"
        "print(sorted(name for name, module in sys.modules.items()\n"
        "    if name.startswith('repro') and (\n"
        "        name.startswith('repro.conform')\n"
        "        or any(hasattr(module, n) for n in names))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"
