"""Regression-gate logic in ``tools/run_speed_bench.py``.

``check_against_baseline`` fails when a workload runs more than the
tolerance slower than its baseline entry scaled by the calibration
loop's seconds now over its recorded seconds, or when its work checksum
differs (the timed work itself changed).  These tests drive it with
canned timings so no real workload runs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import run_speed_bench  # noqa: E402


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
                "calibration_s": 0.5,
                "workloads": canned({"a": 1.0, "b": 0.2}),
            }
        )
    )
    return path


def check(monkeypatch, baseline, current, calibration_s=0.5):
    monkeypatch.setattr(
        run_speed_bench, "time_workloads",
        lambda repeats, verbose=True, quick_only=False: (
            current, calibration_s
        ),
    )
    return run_speed_bench.check_against_baseline(
        baseline, repeats=1, tolerance=0.25
    )


class TestSpeedGate:
    def test_clean_run_passes(self, monkeypatch, baseline):
        assert check(monkeypatch, baseline, canned({"a": 1.1, "b": 0.2})) == 0

    def test_regression_fails(self, monkeypatch, baseline, capsys):
        current = canned({"a": 1.0, "b": 0.4})  # 2x the baseline
        assert check(monkeypatch, baseline, current) == 1
        assert "FAIL b:" in capsys.readouterr().out

    def test_checksum_mismatch_fails(self, monkeypatch, baseline, capsys):
        """The timed work changing fails the gate even when it is fast."""
        current = canned({"a": 0.5, "b": 0.2}, checksums={"a": 999})
        assert check(monkeypatch, baseline, current) == 1
        assert "checksum 999 != baseline 1" in capsys.readouterr().out

    def test_missing_baseline_is_an_error(self, monkeypatch, tmp_path):
        missing = tmp_path / "absent.json"
        assert check(monkeypatch, missing, canned({"a": 1.0})) == 2

    def test_uncalibrated_baseline_is_an_error(self, monkeypatch, tmp_path):
        path = tmp_path / "BENCH_speed.json"
        path.write_text(json.dumps({"schema": 1, "workloads": canned({})}))
        assert check(monkeypatch, path, canned({"a": 1.0})) == 2


class TestCalibratedLimits:
    """Each limit moves with the calibration loop: a uniformly slower
    machine passes, and a regression still fails on a faster one."""

    def test_slower_machine_passes(self, monkeypatch, baseline):
        current = canned({"a": 1.9, "b": 0.38})  # everything 1.9x
        assert check(monkeypatch, baseline, current, calibration_s=1.0) == 0

    def test_regression_on_a_slower_machine_fails(
        self, monkeypatch, baseline, capsys
    ):
        current = canned({"a": 2.0, "b": 0.6})  # b 1.5x beyond the machine
        assert check(monkeypatch, baseline, current, calibration_s=1.0) == 1
        assert "FAIL b:" in capsys.readouterr().out

    def test_faster_machine_tightens_the_limit(self, monkeypatch, baseline):
        current = canned({"a": 0.7, "b": 0.2})  # a 1.4x beyond the machine
        assert check(monkeypatch, baseline, current, calibration_s=0.25) == 1


class TestCpuAwareGate:
    """The gate does not look at the host's cpu count: a timing
    regression fails on a small host and a large one alike."""

    def test_same_regression_fails_with_enough_cpus(
        self, monkeypatch, baseline
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        current = canned({"a": 1.4, "b": 0.2})  # >25% over baseline
        assert check(monkeypatch, baseline, current) == 1

    def test_serial_workloads_still_gated_on_small_hosts(
        self, monkeypatch, baseline
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        current = canned({"a": 1.4, "b": 0.2})
        assert check(monkeypatch, baseline, current) == 1
