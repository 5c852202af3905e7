"""CPU-aware speed-gate logic in ``tools/run_speed_bench.py``.

A workload that declares ``min_cpus`` assumes real cores; on a 1-2 cpu
CI runner its timing regresses for reasons that have nothing to do with
the code under test.  Workloads whose ``min_cpus`` exceeds
``os.cpu_count()`` keep their checksum enforcement but report timings
-- and any speedup pair built on them -- as informational only.  These
tests drive ``check_against_baseline`` with canned workloads and
timings (``wide_w4`` needs 4 cpus) so no real workload runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import run_speed_bench  # noqa: E402
from benchmarks.bench_speed import (  # noqa: E402
    SPEEDUP_PAIRS,
    WORKLOADS,
    SpeedWorkload,
)

CANNED_WORKLOADS = [
    SpeedWorkload("wide_serial", "canned", run=None),
    SpeedWorkload("wide_w4", "canned", run=None, min_cpus=4),
]


def canned(seconds_by_name, checksums=None):
    checksums = checksums or {}
    return {
        name: {
            "description": name,
            "seconds": seconds,
            "checksum": checksums.get(name, 1),
        }
        for name, seconds in seconds_by_name.items()
    }


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_speed.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "workloads": canned(
                    {
                        "wide_serial": 1.0,
                        "wide_w4": 0.5,
                        "link_train_batched": 0.2,
                    }
                ),
            }
        )
    )
    return path


def check(monkeypatch, baseline, current, cpus):
    monkeypatch.setattr(
        run_speed_bench, "time_workloads",
        lambda repeats, verbose=True, quick_only=False: current,
    )
    monkeypatch.setattr(run_speed_bench.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(run_speed_bench, "WORKLOADS", CANNED_WORKLOADS)
    monkeypatch.setattr(
        run_speed_bench, "SPEEDUP_PAIRS",
        {"wide_speedup_w4": ("wide_serial", "wide_w4")},
    )
    return run_speed_bench.check_against_baseline(
        baseline, repeats=1, tolerance=0.25, missing_ok=False
    )


class TestCpuAwareGate:
    def test_cpu_limited_regression_is_informational(
        self, monkeypatch, baseline, capsys
    ):
        """On a 1-cpu host a slow wide_w4 must not fail the gate: the
        workload needs 4 cpus to time meaningfully."""
        current = canned(
            {
                "wide_serial": 1.0,
                "wide_w4": 1.4,  # >25% over baseline
                "link_train_batched": 0.2,
            }
        )
        assert check(monkeypatch, baseline, current, cpus=1) == 0
        out = capsys.readouterr().out
        assert "informational (needs 4 cpus, host has 1" in out
        assert "wide_speedup_w4" in out
        assert "cpu-limited host" in out

    def test_same_regression_fails_with_enough_cpus(
        self, monkeypatch, baseline
    ):
        current = canned(
            {
                "wide_serial": 1.0,
                "wide_w4": 1.4,
                "link_train_batched": 0.2,
            }
        )
        assert check(monkeypatch, baseline, current, cpus=8) == 1

    def test_checksum_still_enforced_when_cpu_limited(
        self, monkeypatch, baseline
    ):
        """Informational covers *timing* only: the timed work changing
        on a cpu-limited workload is still a hard failure."""
        current = canned(
            {
                "wide_serial": 1.0,
                "wide_w4": 0.5,
                "link_train_batched": 0.2,
            },
            checksums={"wide_w4": 999},
        )
        assert check(monkeypatch, baseline, current, cpus=1) == 1

    def test_serial_workloads_still_gated_on_small_hosts(
        self, monkeypatch, baseline
    ):
        """min_cpus=1 workloads regressing on a 1-cpu host still fail."""
        current = canned(
            {
                "wide_serial": 1.0,
                "wide_w4": 0.5,
                "link_train_batched": 0.4,  # 2x the baseline
            }
        )
        assert check(monkeypatch, baseline, current, cpus=1) == 1

    def test_clean_run_passes_either_way(self, monkeypatch, baseline):
        current = canned(
            {
                "wide_serial": 1.0,
                "wide_w4": 0.5,
                "link_train_batched": 0.2,
            }
        )
        assert check(monkeypatch, baseline, current, cpus=1) == 0
        assert check(monkeypatch, baseline, current, cpus=8) == 0


class TestWorkloadMetadata:
    def test_link_retx_pair_is_cpu_agnostic(self):
        by_name = {w.name: w for w in WORKLOADS}
        slow, fast = SPEEDUP_PAIRS["link_retx_recovery_cost"]
        assert by_name[slow].min_cpus == 1
        assert by_name[fast].min_cpus == 1
