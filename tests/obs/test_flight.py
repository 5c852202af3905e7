"""Flight recorder: bounded rings, dumps, and crash autopsy hooks."""

import json

import pytest

from repro.obs.flight import FlightRecorder, next_dump_path
from repro.sim.kernel import Simulator

from tests.conftest import converged_line


# ----------------------------------------------------------------------
# ring mechanics
# ----------------------------------------------------------------------
def test_rings_are_bounded_per_component():
    recorder = FlightRecorder(capacity=4)
    for k in range(10):
        recorder.record(float(k), "reconfig", "switch.s0", "event", k=k)
    recorder.record(0.5, "reconfig", "switch.s1", "other")
    assert recorder.records_total == 11
    rows = recorder.snapshot()
    assert len(rows) == 5  # 4 retained for s0 + 1 for s1
    assert sorted({r["comp"] for r in rows}) == ["switch.s0", "switch.s1"]
    s0_ks = [r["data"]["k"] for r in rows if r["comp"] == "switch.s0"]
    assert s0_ks == [6, 7, 8, 9]  # oldest evicted first


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_snapshot_is_time_ordered():
    recorder = FlightRecorder()
    recorder.record(3.0, "x", "b", "late")
    recorder.record(1.0, "x", "a", "early")
    recorder.record(2.0, "x", "b", "middle")
    names = [r["name"] for r in recorder.snapshot()]
    assert names == ["early", "middle", "late"]


def test_dump_writes_meta_then_rows(tmp_path):
    recorder = FlightRecorder()
    recorder.record(1.0, "reconfig", "switch.s0", "epoch.begin", tag="e1@s0")
    path = recorder.dump(tmp_path / "sub" / "flight.jsonl", reason="unit test")
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["cat"] == "flight.meta"
    assert rows[0]["data"]["reason"] == "unit test"
    assert rows[0]["data"]["retained"] == 1
    # each record keeps its category: a dump is an ordinary trace
    assert rows[1]["cat"] == "reconfig"
    assert rows[1]["name"] == "epoch.begin"


def test_next_dump_path_never_collides(tmp_path):
    first = next_dump_path(tmp_path, "x")
    second = next_dump_path(tmp_path, "x")
    assert first != second


# ----------------------------------------------------------------------
# kernel exception autopsy
# ----------------------------------------------------------------------
def _boom() -> None:
    raise RuntimeError("injected failure")


def test_kernel_exception_is_recorded_and_dumped(tmp_path):
    sim = Simulator()
    recorder = FlightRecorder()
    recorder.auto_dump_dir = str(tmp_path)
    sim.recorder = recorder
    sim.schedule_at(5.0, _boom)
    with pytest.raises(RuntimeError, match="injected failure"):
        sim.run()
    rows = [r for r in recorder.snapshot() if r["comp"] == "kernel"]
    assert rows and rows[0]["name"] == "exception"
    assert rows[0]["cat"] == "kernel"
    assert rows[0]["data"]["type"] == "RuntimeError"
    dumps = sorted(tmp_path.glob("flight-kernel-exception-*.jsonl"))
    assert len(dumps) == 1
    meta = json.loads(dumps[0].read_text().splitlines()[0])
    assert "RuntimeError" in meta["data"]["reason"]


def test_kernel_exception_with_instrumented_loop(tmp_path):
    """The dump trigger must also cover the digest-swapped run loop."""
    from repro.conform.digest import RunDigest

    sim = Simulator()
    recorder = FlightRecorder()
    recorder.auto_dump_dir = str(tmp_path)
    sim.recorder = recorder
    sim.digest = RunDigest()
    sim.schedule_at(5.0, _boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert any(r["comp"] == "kernel" for r in recorder.snapshot())
    assert list(tmp_path.glob("flight-kernel-exception-*.jsonl"))


def test_kernel_exception_without_dump_dir_only_records():
    sim = Simulator()
    recorder = FlightRecorder()
    sim.recorder = recorder
    sim.schedule_at(5.0, _boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert any(r["comp"] == "kernel" for r in recorder.snapshot())


# ----------------------------------------------------------------------
# network integration: protocol transitions land in the rings
# ----------------------------------------------------------------------
def test_network_records_epochs_and_link_state():
    net = converged_line(3)
    assert net.recorder is net.sim.recorder
    components = {r["comp"] for r in net.recorder.snapshot()}
    assert any(c.startswith("switch.") for c in components)
    names = {r["name"] for r in net.recorder.snapshot()}
    assert "epoch.trigger" in names
    assert "epoch.begin" in names
    assert "epoch.end" in names


def test_network_records_skeptic_and_link_transitions():
    net = converged_line(3)
    link = net.link_between("s0", "s1")
    link.fail()
    net.run(60_000.0)
    rows = net.recorder.snapshot()
    names = {r["name"] for r in rows}
    assert "link.state" in names
    assert "skeptic.verdict" in names
    assert "skeptic.failure" in names
    # one name per cable: its ring is the label its journey hops carry
    assert {r["comp"] for r in rows if r["name"] == "link.state"} == {
        link.label
    }
