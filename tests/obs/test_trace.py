"""Tests for the structured tracer."""

import json

import pytest

from repro.obs import Span, Tracer, read_jsonl


class TestEmit:
    def test_records_fields_in_order(self):
        tracer = Tracer()
        tracer.emit(1.0, "fabric", "s0", "match.round", matched=3)
        tracer.emit(2.0, "reconfig", "s1", "epoch.trigger")
        assert len(tracer) == 2
        first = tracer.records[0]
        assert first.time == 1.0
        assert first.category == "fabric"
        assert first.component == "s0"
        assert first.name == "match.round"
        assert first.payload == {"matched": 3}

    def test_category_filter_drops_silently(self):
        tracer = Tracer(categories=["reconfig"])
        tracer.emit(1.0, "journey", "h0", "segment")
        tracer.emit(2.0, "reconfig", "s0", "epoch.trigger")
        assert [r.category for r in tracer.records] == ["reconfig"]
        assert tracer.enabled("reconfig")
        assert not tracer.enabled("journey")

    def test_filter_by_fields(self):
        tracer = Tracer()
        tracer.emit(0.0, "flowcontrol", "s0.p1", "credit.grant", vc=5)
        tracer.emit(1.0, "flowcontrol", "s0.p2", "credit.grant", vc=6)
        tracer.emit(2.0, "flowcontrol", "s0.p1", "credit.stall")
        assert len(tracer.filter(category="flowcontrol")) == 3
        assert len(tracer.filter(component="s0.p1")) == 2
        grants = tracer.filter(name="credit.grant", component="s0.p1")
        assert [r.payload["vc"] for r in grants] == [5]


class TestSpan:
    def test_span_emits_begin_and_end_with_duration(self):
        tracer = Tracer()
        span = tracer.span(10.0, "reconfig", "s0", "epoch", tag="T1")
        assert isinstance(span, Span)
        span.end(35.0, edges=4)
        names = [r.name for r in tracer.records]
        assert names == ["epoch.begin", "epoch.end"]
        end = tracer.records[1]
        assert end.payload["duration"] == pytest.approx(25.0)
        assert end.payload["edges"] == 4

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span(0.0, "reconfig", "s0", "epoch")
        span.end(1.0)
        span.end(2.0)
        assert len(tracer.filter(name="epoch.end")) == 1

    def test_abandoned_span_leaves_begin_without_end(self):
        tracer = Tracer()
        tracer.span(0.0, "reconfig", "s0", "epoch", tag="old")
        assert len(tracer.filter(name="epoch.begin")) == 1
        assert len(tracer.filter(name="epoch.end")) == 0


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.emit(1.5, "fabric", "f", "match.round", matched=2, iterations=3)
        tracer.emit(2.0, "reconfig", "s0", "epoch.trigger", tag="E1")
        path = tmp_path / "trace.jsonl"
        written = tracer.write_jsonl(path)
        assert written == 2
        records = read_jsonl(path)
        assert records[0] == {
            "t": 1.5,
            "cat": "fabric",
            "comp": "f",
            "name": "match.round",
            "data": {"matched": 2, "iterations": 3},
        }
        assert records[1]["data"]["tag"] == "E1"

    def test_non_json_payloads_are_stringified(self, tmp_path):
        class Opaque:
            def __str__(self):
                return "opaque!"

        tracer = Tracer()
        tracer.emit(0.0, "a", "c", "x", obj=Opaque(), seq=(1, 2))
        path = tmp_path / "t.jsonl"
        tracer.write_jsonl(path)
        with open(path) as stream:
            data = json.loads(stream.readline())["data"]
        assert data["obj"] == "opaque!"
        assert data["seq"] == [1, 2]
