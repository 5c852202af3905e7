"""Tests for the skeptic's escalating hold-downs."""

import pytest

from repro.core.reconfig.skeptic import LinkVerdict, Skeptic


def make(**kwargs):
    defaults = dict(base_wait_us=100.0, max_level=4, decay_interval_us=10_000.0)
    defaults.update(kwargs)
    return Skeptic(**defaults)


def test_starts_working():
    assert make().verdict is LinkVerdict.WORKING


def test_failure_publishes_dead():
    events = []
    skeptic = make(on_verdict=lambda v, t: events.append((v, t)))
    skeptic.report_failure(now=50.0)
    assert skeptic.verdict is LinkVerdict.DEAD
    assert events == [(LinkVerdict.DEAD, 50.0)]


def test_recovery_requires_probation():
    skeptic = make()
    skeptic.report_failure(10.0)
    skeptic.report_recovery(20.0)
    assert skeptic.verdict is LinkVerdict.DEAD  # still on probation
    skeptic.tick(20.0 + 100.0 * 2 - 1)  # level 1 -> wait 200us
    assert skeptic.verdict is LinkVerdict.DEAD
    skeptic.tick(20.0 + 200.0)
    assert skeptic.verdict is LinkVerdict.WORKING


def test_wait_escalates_exponentially():
    skeptic = make()
    waits = []
    now = 0.0
    for _ in range(3):
        skeptic.report_failure(now)
        waits.append(skeptic.current_wait())
        skeptic.report_recovery(now + 1)
        now += 1 + skeptic.current_wait()
        skeptic.tick(now)
        assert skeptic.verdict is LinkVerdict.WORKING
    assert waits == [200.0, 400.0, 800.0]


def test_escalation_caps_at_max_level():
    skeptic = make(max_level=2)
    for i in range(10):
        skeptic.report_failure(float(i * 1000))
        skeptic.report_recovery(float(i * 1000 + 1))
        skeptic.tick(float(i * 1000 + 999))
    assert skeptic.level == 2
    assert skeptic.current_wait() == 400.0


def test_failure_during_probation_escalates_and_restarts():
    skeptic = make()
    skeptic.report_failure(0.0)  # level 1
    skeptic.report_recovery(10.0)
    skeptic.report_failure(50.0)  # during probation -> level 2
    assert skeptic.level == 2
    assert skeptic.verdict is LinkVerdict.DEAD
    skeptic.report_recovery(60.0)
    skeptic.tick(60.0 + 399.0)
    assert skeptic.verdict is LinkVerdict.DEAD
    skeptic.tick(60.0 + 400.0)
    assert skeptic.verdict is LinkVerdict.WORKING


def test_redundant_failure_reports_do_not_escalate():
    skeptic = make()
    skeptic.report_failure(0.0)
    skeptic.report_failure(1.0)
    skeptic.report_failure(2.0)
    assert skeptic.level == 1


def test_decay_reduces_level_after_good_behaviour():
    skeptic = make(decay_interval_us=1_000.0)
    skeptic.report_failure(0.0)
    skeptic.report_recovery(1.0)
    skeptic.tick(500.0)  # probation (200us after recovery) done by now
    assert skeptic.verdict is LinkVerdict.WORKING
    assert skeptic.level == 1
    skeptic.tick(500.0 + 1_000.0)
    assert skeptic.level == 0


def test_flapping_link_produces_few_verdict_changes():
    """The headline property: N rapid flaps produce far fewer published
    verdict transitions than 2N (the escalating hold-down suppresses
    them)."""
    skeptic = make(base_wait_us=1_000.0, max_level=8, decay_interval_us=1e9)
    now = 0.0
    flaps = 50
    for _ in range(flaps):
        skeptic.report_failure(now)
        now += 10.0
        skeptic.report_recovery(now)
        now += 10.0  # recovers quickly, but probation is never finished
        skeptic.tick(now)
    # One DEAD publication; the link never re-qualifies as WORKING.
    assert len(skeptic.verdict_changes) == 1
    assert skeptic.failures_seen == flaps


def test_verdict_history_records_timestamps():
    skeptic = make()
    skeptic.report_failure(5.0)
    skeptic.report_recovery(6.0)
    skeptic.tick(206.0)
    assert [v for _, v in skeptic.verdict_changes] == [
        LinkVerdict.DEAD,
        LinkVerdict.WORKING,
    ]


def test_probation_remaining():
    skeptic = make()
    assert skeptic.probation_remaining(0.0) is None
    skeptic.report_failure(0.0)
    skeptic.report_recovery(10.0)
    assert skeptic.probation_remaining(110.0) == pytest.approx(100.0)


def test_validation():
    with pytest.raises(ValueError):
        Skeptic(base_wait_us=0.0)
    with pytest.raises(ValueError):
        Skeptic(max_level=-1)
