"""Invariant failure -> flight dump -> renderable report, end to end.

The acceptance path for the flight recorder: a scenario that forces an
invariant violation must leave a JSONL dump that ``tools/trace_report.py``
renders as per-component timelines (including the failing switch's).
"""

import sys
from pathlib import Path

from repro.faults import ErrorRateStep, FaultPlan, ScenarioRunner, TrafficLoad
from repro.obs import read_jsonl

from tests.faults.test_runner import ring_net

TOOLS = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import trace_report  # noqa: E402

LOAD = TrafficLoad(
    source="h0", destination="h1", packet_size=200,
    interval_us=2_000.0, count=30,
)


def _force_violation(flight_dir):
    """All-error trunk, never restored: pings all die, skeptics declare
    the link dead, but it is physically working -- the convergence
    invariant's expected view can never match, deterministically."""
    net = ring_net()
    plan = FaultPlan.of(
        ErrorRateStep(at_us=20_000.0, a="s0", b="s2", rate=1.0),
    )
    runner = ScenarioRunner(
        net, plan, (LOAD,), settle_us=60_000.0,
        convergence_timeout_us=300_000.0,
        flight_dir=str(flight_dir) if flight_dir is not None else None,
    )
    return runner.run()


def test_forced_violation_dumps_flight_recorder(tmp_path):
    result = _force_violation(tmp_path)
    assert not result.passed
    assert result.flight_dump is not None
    dump = Path(result.flight_dump)
    assert dump.exists() and dump.parent == tmp_path
    assert str(dump) in result.report()

    rows = read_jsonl(dump)
    meta = rows[0]
    assert meta["cat"] == "flight.meta"
    assert "invariant violation" in meta["data"]["reason"]
    comps = {r["comp"] for r in rows[1:]}
    # the scenario's faults and the affected switches are all in the dump
    assert "faults" in comps
    assert any(c.startswith("switch.") for c in comps)
    names = {r["name"] for r in rows[1:]}
    assert "fault.error_rate.begin" in names
    assert "skeptic.verdict" in names


def test_trace_report_renders_the_dump(tmp_path, capsys):
    result = _force_violation(tmp_path)
    rc = trace_report.main(
        [str(result.flight_dump), "--section", "flight"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Flight recorder" in out
    assert "invariant violation" in out
    assert "skeptic.verdict" in out


def test_dump_renders_as_a_settled_timeline(tmp_path, capsys):
    """A dump is an ordinary trace: its epochs make a timeline."""
    result = _force_violation(tmp_path)
    rc = trace_report.main(
        [str(result.flight_dump), "--section", "timeline"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "no reconfiguration events" not in out
    assert "settled" in out  # a status cell; the header says "settle (us)"


def test_trace_report_component_filter(tmp_path, capsys):
    result = _force_violation(tmp_path)
    rows = read_jsonl(result.flight_dump)
    switch_comp = sorted(
        {r["comp"] for r in rows if r["comp"].startswith("switch.")}
    )[0]
    rc = trace_report.main(
        [str(result.flight_dump), "--section", "flight",
         "--component", switch_comp]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert switch_comp in out
    assert "faults (" not in out  # filtered away


def test_no_flight_dir_means_no_dump(monkeypatch):
    monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
    result = _force_violation(None)
    assert not result.passed
    assert result.flight_dump is None
