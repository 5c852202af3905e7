"""One protocol event log: every transition goes through ``Simulator.note``.

The flight recorder and an attached tracer receive the same records, so
a tracer may be attached mid-run and sees every transition from then on,
and a flight dump is an ordinary trace.
"""

from repro.conform.digest import replay_network
from repro.net.packet import Packet
from repro.obs.trace import Tracer

from tests.conftest import converged_line
from tests.switch.test_an1 import hosted_grid

#: what only the tracer takes: per-cell or per-ping rates the recorder's
#: bounded rings must not.
TRACER_ONLY = {"credit.grant", "monitor.timeout"}


def _send_packets(net, vc, count=40, size=960):
    host = net.host("h0")
    for _ in range(count):
        host.send_packet(
            vc,
            Packet(
                source=host.node_id,
                destination=host.senders[vc].destination,
                payload=bytes(size),
            ),
        )


def _key(row):
    return (row["t"], row["cat"], row["comp"], row["name"], row["data"])


def _by_component(rows):
    grouped = {}
    for row in rows:
        grouped.setdefault(row["comp"], []).append(_key(row))
    return grouped


def test_recorder_holds_the_tracer_log_minus_the_high_rate_records():
    net = replay_network(7)
    tracer = net.sim.tracer = Tracer()
    net.start()
    net.run_until(net.converged, timeout_us=40_000.0)
    circuit = net.setup_circuit("h0", "h1")
    _send_packets(net, circuit.vc)
    net.run(10_000.0)
    net.fail_link("h0", "s0")
    net.run(30_000.0)
    recorder = net.recorder
    assert recorder.records_total == len(recorder.snapshot())  # nothing evicted

    expected = [
        record.to_dict() for record in tracer.records
        if record.category != "journey" and record.name not in TRACER_ONLY
    ]
    retained = recorder.snapshot()
    assert _by_component(retained) == _by_component(expected)
    # and the high-rate records did reach the tracer
    names = {record.name for record in tracer.records}
    assert TRACER_ONLY <= names
    assert "journey" in {record.category for record in tracer.records}


def _credit_window(attach_late: bool):
    """Traffic after ``setup_circuit``; the tracer attached before or
    after it.  Returns the protocol records after the attach point
    (journey records number cells process-wide, so two runs differ)."""
    net = replay_network(7)
    net.start()
    net.run_until(net.converged, timeout_us=40_000.0)
    tracer = Tracer()
    if not attach_late:
        net.sim.tracer = tracer
    circuit = net.setup_circuit("h0", "h1")
    if attach_late:
        net.sim.tracer = tracer
    window_from = net.now
    _send_packets(net, circuit.vc)
    net.run(20_000.0)
    return [
        _key(record.to_dict()) for record in tracer.records
        if record.time > window_from and record.category != "journey"
    ]


def test_a_tracer_attached_after_setup_sees_every_credit_record():
    early = _credit_window(attach_late=False)
    late = _credit_window(attach_late=True)
    assert late == early
    credit = [key for key in late if key[3].startswith("credit.")]
    assert {key[3] for key in credit} >= {
        "credit.grant", "credit.stall", "credit.unstall",
    }


def test_host_verdicts_reach_the_recorder():
    net = replay_network(7)
    net.start()
    net.run_until(net.converged, timeout_us=40_000.0)
    net.fail_link("h0", "s0")
    net.run(20_000.0)
    verdicts = [
        row for row in net.recorder.snapshot()
        if row["comp"] == "host.h0" and row["name"] == "skeptic.verdict"
    ]
    assert [(row["data"]["port"], row["data"]["verdict"]) for row in verdicts] == [
        (0, "dead")
    ]


def test_an1_switch_verdicts_reach_the_recorder():
    net = hosted_grid()
    net.fail_link("s0", "s1")
    net.run(30_000.0)
    verdicts = {
        row["comp"] for row in net.recorder.snapshot()
        if row["name"] == "skeptic.verdict" and row["data"]["verdict"] == "dead"
    }
    assert {"switch.s0", "switch.s1"} <= verdicts


def test_superseded_epoch_leaves_begin_without_end():
    """s0 and s1 start epochs at once; s1's larger tag wins, so s0 begins
    its own epoch and never ends it."""
    net = converged_line(3)
    s0, s1 = net.switch("s0"), net.switch("s1")
    lost, won = s0.reconfig.trigger(), s1.reconfig.trigger()
    assert lost < won
    lost, won = str(lost), str(won)
    net.run(100_000.0)
    assert net.converged()
    s0_rows = [
        (row["name"], row["data"].get("tag"))
        for row in net.recorder.snapshot() if row["comp"] == "switch.s0"
    ]
    assert ("epoch.begin", lost) in s0_rows
    assert ("epoch.end", lost) not in s0_rows
    assert ("epoch.end", won) in s0_rows
