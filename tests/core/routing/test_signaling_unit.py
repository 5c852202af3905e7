"""Unit tests for the signaling agent over a fake transport.

The network-level tests exercise the full path; these pin down the
agent's own decisions (output choice, failure accounting, teardown
forwarding) in isolation.
"""

from typing import Dict, List, Optional, Tuple

import pytest

from repro._types import host_id, switch_id
from repro.core.routing.paths import RouteComputer
from repro.core.routing.signaling import (
    SetupRequest,
    SignalingAgent,
    TeardownRequest,
)
from repro.net.topology import Topology


class FakeSignalingTransport:
    """Records installs and sends; routes over a static view."""

    def __init__(self, view, me, root, attached_hosts=None):
        self.computer = RouteComputer(view, root)
        self.me = me
        self.attached = attached_hosts or {}
        self.installed: List[Tuple[int, int, int]] = []  # vc, in, out
        self.removed: List[int] = []
        self.sent: List[Tuple[int, object]] = []
        self.circuits: Dict[int, int] = {}  # vc -> out port

    def route_computer(self):
        return self.computer

    def port_facing(self, host) -> Optional[int]:
        return self.attached.get(host)

    def install_circuit(self, vc, in_port, out_port, request):
        self.installed.append((vc, in_port, out_port))
        self.circuits[vc] = out_port

    def remove_circuit(self, vc):
        self.removed.append(vc)
        return self.circuits.pop(vc, None)

    def send_signaling(self, port_index, message):
        self.sent.append((port_index, message))


def diamond_view():
    topo = Topology()
    for i in range(4):
        topo.add_switch(i)
    topo.connect("s0", "s1")
    topo.connect("s1", "s3")
    topo.connect("s0", "s2")
    topo.connect("s2", "s3")
    topo.add_host(0)
    topo.add_host(1)
    topo.connect("h0", "s0", port_a=0)
    topo.connect("h1", "s3", port_a=0)
    return topo.view()


def make_agent(me=0, attached=None):
    transport = FakeSignalingTransport(
        diamond_view(), switch_id(me), switch_id(0), attached
    )
    return SignalingAgent(switch_id(me), transport), transport


class TestUnicastSetup:
    def test_forwards_toward_destination(self):
        agent, transport = make_agent(me=0)
        request = SetupRequest(vc=20, source=host_id(0), destination=host_id(1))
        agent.handle(5, request)
        assert len(transport.installed) == 1
        vc, in_port, out_port = transport.installed[0]
        assert (vc, in_port) == (20, 5)
        (sent_port, sent_message), = transport.sent
        assert sent_port == out_port
        assert sent_message.hop_count == 1

    def test_final_hop_delivers_to_host_port(self):
        agent, transport = make_agent(me=3, attached={host_id(1): 7})
        request = SetupRequest(vc=21, source=host_id(0), destination=host_id(1))
        agent.handle(2, request)
        assert transport.installed == [(21, 2, 7)]
        assert transport.sent[0][0] == 7

    def test_unknown_destination_fails(self):
        agent, transport = make_agent(me=0)
        agent.handle(1, SetupRequest(vc=9, source=host_id(0), destination=host_id(9)))
        assert agent.setups_failed == 1
        assert transport.installed == []

    def test_hop_limit(self):
        agent, transport = make_agent(me=0)
        agent.handle(
            1,
            SetupRequest(
                vc=9, source=host_id(0), destination=host_id(1), hop_count=64
            ),
        )
        assert agent.setups_failed == 1

    def test_no_view_fails_cleanly(self):
        agent, transport = make_agent(me=0)
        transport.computer = None
        agent.handle(1, SetupRequest(vc=9, source=host_id(0), destination=host_id(1)))
        assert agent.setups_failed == 1

    def test_unknown_message_rejected(self):
        agent, _ = make_agent()
        with pytest.raises(TypeError):
            agent.handle(0, object())


class TestTeardown:
    def test_forwards_along_installed_path(self):
        agent, transport = make_agent(me=0)
        agent.handle(5, SetupRequest(vc=30, source=host_id(0), destination=host_id(1)))
        transport.sent.clear()
        agent.handle(5, TeardownRequest(vc=30))
        assert transport.removed == [30]
        assert len(transport.sent) == 1
        assert isinstance(transport.sent[0][1], TeardownRequest)

    def test_unknown_vc_not_forwarded(self):
        agent, transport = make_agent(me=0)
        agent.handle(5, TeardownRequest(vc=99))
        assert transport.sent == []

