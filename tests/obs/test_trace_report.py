"""End-to-end: trace a reconfiguration experiment, render the report.

A bench_e4-style run (converge, crash a switch, reconfigure) with a
:class:`~repro.obs.trace.Tracer` on its simulator must produce a trace that
``tools/trace_report.py`` renders as a reconfiguration timeline.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.obs.trace import Tracer

from tests.conftest import line_with_hosts

TOOLS = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import trace_report  # noqa: E402


@pytest.fixture(scope="module")
def captured_run(tmp_path_factory):
    """Converge a 4-switch line, push traffic, crash an interior switch,
    reconfigure, and write the trace to disk."""
    out = tmp_path_factory.mktemp("trace")
    net = line_with_hosts(4)
    # keep per-cell journeys out so the protocol trace stays small
    tracer = net.sim.tracer = Tracer(categories=["reconfig", "flowcontrol"])
    net.start()
    net.run_until_converged(timeout_us=500_000)
    circuit = net.setup_circuit("h0", "h1")
    net.host("h0").send_raw_cells(circuit.vc, 40)
    net.run(5_000.0)
    net.crash_switch("s1")
    net.run_until(net.fully_reconfigured, timeout_us=1_000_000)
    trace_path = out / "run.trace.jsonl"
    tracer.write_jsonl(trace_path)
    return trace_path


def test_trace_contains_the_reconfiguration_story(captured_run):
    records = [
        json.loads(line) for line in captured_run.read_text().splitlines()
    ]
    names = {r["name"] for r in records}
    assert "epoch.trigger" in names
    assert "epoch.begin" in names
    assert "epoch.end" in names
    assert "skeptic.verdict" in names
    assert "monitor.timeout" in names  # the crashed switch's neighbours
    assert "credit.grant" in names
    # every record in this trace is protocol-level (journeys filtered out)
    assert {r["cat"] for r in records} <= {"reconfig", "flowcontrol"}


def test_report_renders_timeline_and_latency_table(
    captured_run, journey_trace, capsys
):
    rc = trace_report.main([str(captured_run)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Reconfiguration timeline" in out
    assert "epoch tag" in out
    assert "settled" in out
    assert "Skeptic verdicts" in out
    assert "Port-monitor timeouts" in out
    # per-VC latency comes from the journey records: one row per circuit
    rc = trace_report.main([str(journey_trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Cell journeys (critical path)" in out
    assert "Mean end-to-end latency decomposition per VC" in out


def test_report_without_metrics_still_renders_timeline(captured_run, capsys):
    """A protocol-only trace renders its timeline under ``all`` and no
    journey section."""
    rc = trace_report.main([str(captured_run), "--section", "all"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Reconfiguration timeline" in out
    assert "Cell journeys" not in out


def test_report_sections_can_be_selected(journey_trace, capsys):
    trace_report.main([str(journey_trace), "--section", "journey"])
    out = capsys.readouterr().out
    assert "Cell journeys (critical path)" in out
    assert "Reconfiguration timeline" not in out
    trace_report.main([str(journey_trace), "--section", "timeline"])
    out = capsys.readouterr().out
    assert "Reconfiguration timeline" in out
    assert "Cell journeys (critical path)" not in out


# ----------------------------------------------------------------------
# tolerant loading: missing, empty, and truncated inputs
# ----------------------------------------------------------------------
def test_missing_file_exits_2_with_message(tmp_path, capsys):
    rc = trace_report.main([str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_empty_file_exits_0(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = trace_report.main([str(empty)])
    assert rc == 0
    assert "no trace records" in capsys.readouterr().out


def test_truncated_lines_are_skipped_with_warning(tmp_path, capsys):
    path = tmp_path / "truncated.jsonl"
    good = json.dumps(
        {"t": 1.0, "cat": "reconfig", "comp": "s0", "name": "epoch.trigger",
         "data": {"tag": "e1@s0"}}
    )
    # a valid record, a line cut mid-write, and a non-object line
    path.write_text(good + "\n" + good[: len(good) // 2] + "\n42\n")
    rc = trace_report.main([str(path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "skipping malformed line" in captured.err
    assert "1 trace records" in captured.out


def test_fully_truncated_file_exits_0(tmp_path, capsys):
    path = tmp_path / "garbage.jsonl"
    path.write_text('{"t": 1.0, "cat": "reconf\n{"broken\n')
    rc = trace_report.main([str(path)])
    assert rc == 0
    assert "no trace records" in capsys.readouterr().out


# ----------------------------------------------------------------------
# journey section
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def journey_trace(tmp_path_factory):
    """A journey-traced traffic run over a converged line."""
    from repro.net.packet import Packet

    from tests.conftest import converged_line

    out = tmp_path_factory.mktemp("journey")
    net = converged_line(3)
    tracer = Tracer(categories=["journey"])
    net.sim.tracer = tracer
    circuit = net.setup_circuit("h0", "h1")
    host = net.host("h0")
    for _ in range(3):
        host.send_packet(
            circuit.vc,
            Packet(
                source=host.node_id,
                destination=host.senders[circuit.vc].destination,
                payload=bytes(300),
            ),
        )
        net.run(3_000.0)
    net.run(20_000.0)
    path = out / "journey.trace.jsonl"
    tracer.write_jsonl(path)
    return path


def test_journey_section_decomposes_critical_path(journey_trace, capsys):
    rc = trace_report.main([str(journey_trace), "--section", "journey"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Cell journeys (critical path)" in out
    assert "queueing" in out
    assert "matching" in out
    assert "wire" in out
    assert "Slowest cell" in out
    # the hop timeline walks the whole path
    for stage in ("segment", "tx", "wire.arrive", "voq.enqueue",
                  "grant", "deliver"):
        assert stage in out


def test_journey_section_without_journey_records(captured_run, capsys):
    rc = trace_report.main([str(captured_run), "--section", "journey"])
    assert rc == 0
    assert "no journey records" in capsys.readouterr().out
