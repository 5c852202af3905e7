"""Tests for cells and packets."""

import pytest

from repro._types import host_id
from repro.net.cell import (
    GUARANTEED,
    Cell,
    CellKind,
    TrafficClass,
    make_control_cell,
)
from repro.net.packet import Packet


class TestCell:
    def test_defaults(self):
        cell = Cell(vc=5)
        assert cell.is_data
        assert cell.traffic_class is TrafficClass.BEST_EFFORT
        assert cell.kind is CellKind.DATA

    def test_uids_unique(self):
        assert Cell(vc=1).uid != Cell(vc=1).uid

    def test_control_kinds_flagged(self):
        assert not make_control_cell(1, CellKind.CREDIT, None).is_data
        assert not make_control_cell(1, CellKind.PING, None).is_data
        assert Cell(vc=1).is_data

    def test_make_control_cell_rejects_data(self):
        with pytest.raises(ValueError):
            make_control_cell(1, CellKind.DATA, None)

    def test_guaranteed_flag(self):
        cell = Cell(vc=1, traffic_class=TrafficClass.GUARANTEED)
        assert cell.traffic_class is GUARANTEED

    def test_unknown_attribute_refused(self):
        cell = Cell(vc=1)
        cell.created_at = 4.0
        with pytest.raises(AttributeError):
            cell.hop_count = 1


class TestPacket:
    def test_size_defaults_to_payload_length(self):
        packet = Packet(host_id(0), host_id(1), payload=b"abc")
        assert packet.size == 3

    def test_size_may_exceed_payload(self):
        packet = Packet(host_id(0), host_id(1), payload=b"", size=1500)
        assert packet.size == 1500

    def test_size_below_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(host_id(0), host_id(1), payload=b"abcd", size=2)

    def test_latency_requires_delivery(self):
        packet = Packet(host_id(0), host_id(1), payload=b"x", created_at=5.0)
        with pytest.raises(ValueError):
            packet.latency
        packet.delivered_at = 12.5
        assert packet.latency == pytest.approx(7.5)

    def test_uids_unique(self):
        a = Packet(host_id(0), host_id(1))
        b = Packet(host_id(0), host_id(1))
        assert a.uid != b.uid
