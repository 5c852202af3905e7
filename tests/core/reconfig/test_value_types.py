"""The contract of the small values every control event builds.

``NodeId``, ``EpochTag``, the ping payloads and the four reconfiguration
messages are named tuples.  What callers rely on, and what these tests
pin:

- ``hash(x) == hash(tuple(x))`` -- the frozen dataclasses they replaced
  hashed the same tuple, so set and dict iteration orders (and with them
  every digest) do not move;
- the orderings, the ``str``/``label``/``repr`` renderings and the
  ``NodeId`` kind check;
- immutability;
- protocol dispatch by ``isinstance``, because a tuple compares equal to
  any tuple with the same fields.
"""

from __future__ import annotations

from typing import List, Set

import pytest

from repro._types import NodeId, host_id, parse_node_id, switch_id
from repro.core.reconfig.algorithm import ReconfigurationAgent
from repro.core.reconfig.epoch import GENESIS, EpochTag
from repro.core.reconfig.messages import (
    Invitation,
    InvitationAck,
    TopologyDistribute,
    TopologyReport,
)
from repro.core.reconfig.monitor import PingAckPayload, PingPayload
from repro.sim.kernel import Simulator

TAG = EpochTag(2, switch_id(3))
EDGES = frozenset({((switch_id(0), 1), (switch_id(1), 0))})

VALUES = [
    switch_id(3),
    host_id(1),
    TAG,
    GENESIS,
    PingPayload(switch_id(0), 2, 7),
    PingAckPayload(switch_id(0), 2, 7, switch_id(1), 0),
    Invitation(TAG),
    Invitation(TAG, 4),
    InvitationAck(TAG, accepted=True),
    TopologyReport(TAG, EDGES),
    TopologyDistribute(TAG, EDGES),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_hash_is_the_field_tuples_hash(value):
    assert hash(value) == hash(tuple(value))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_immutable(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_set_iteration_order_follows_the_field_tuples():
    nodes = [switch_id(n) for n in (9, 2, 31, 5)] + [host_id(4), host_id(0)]
    assert list(set(nodes)) == [
        NodeId(*fields) for fields in set(tuple(n) for n in nodes)
    ]


def test_node_id_kind_checked():
    with pytest.raises(ValueError):
        NodeId("router", 1)
    assert NodeId("switch", 1) == switch_id(1)


def test_node_id_order_is_kind_then_num():
    assert host_id(99) < switch_id(0)
    assert switch_id(2) < switch_id(10)
    assert sorted([switch_id(3), host_id(1), switch_id(1)]) == [
        host_id(1), switch_id(1), switch_id(3),
    ]


def test_node_id_renderings():
    node = switch_id(3)
    assert node.is_switch and not node.is_host
    assert host_id(1).is_host
    assert str(node) == "s3" and f"{node}" == "s3"
    assert node.label == "switch.s3"
    assert host_id(12).label == "host.h12"
    assert repr(node) == "NodeId(kind='switch', num=3)"
    assert parse_node_id("h12") == host_id(12)


def test_epoch_tag_orderings():
    assert all(GENESIS < EpochTag(epoch, switch_id(0)) for epoch in (0, 1, 5))
    assert EpochTag(1, switch_id(99)) < EpochTag(2, switch_id(0))
    assert EpochTag(3, switch_id(1)) < EpochTag(3, switch_id(2))
    assert TAG.successor(switch_id(0)) == EpochTag(3, switch_id(0))
    assert TAG.successor(switch_id(0)) > TAG


def test_epoch_tag_renderings():
    assert str(TAG) == "e2@s3"
    assert str(GENESIS) == "e0@s-1"
    assert repr(TAG) == (
        "EpochTag(epoch=2, initiator=NodeId(kind='switch', num=3))"
    )


def test_message_renderings_and_defaults():
    assert Invitation(TAG).depth == 0
    assert repr(InvitationAck(TAG, accepted=False)) == (
        "InvitationAck(tag=EpochTag(epoch=2, initiator=NodeId(kind='switch',"
        " num=3)), accepted=False)"
    )
    ack = PingAckPayload(switch_id(0), 2, 7, responder=switch_id(1), responder_port=0)
    assert (ack.sender, ack.seq, ack.responder) == (switch_id(0), 7, switch_id(1))


class _Transport:
    def __init__(self) -> None:
        self.sent: List[tuple] = []

    def reconfig_ports(self) -> List[int]:
        return [0]

    def local_edges(self) -> Set:
        return set()

    def send_reconfig(self, port_index: int, message) -> None:
        self.sent.append((port_index, message))


def test_dispatch_is_by_type_not_equality():
    """A declined ack equals an invitation at depth 0, field for field;
    the agent must still treat each as what it is."""
    assert InvitationAck(TAG, False) == Invitation(TAG, 0)
    transport = _Transport()
    agent = ReconfigurationAgent(Simulator(), switch_id(7), transport)
    agent.handle(0, InvitationAck(TAG, False))
    assert agent.stored_tag == GENESIS and transport.sent == []
    agent.handle(0, Invitation(TAG, 0))
    assert agent.stored_tag == TAG
    assert type(transport.sent[0][1]) is InvitationAck
