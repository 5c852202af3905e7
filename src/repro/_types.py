"""Small shared value types and type aliases."""

from __future__ import annotations

from typing import NamedTuple, Union

#: Virtual circuit identifier (the VCI carried in every cell header).
VcId = int

#: Index of a port on a switch (0..15 for a full AN2 switch).
PortIndex = int


class _NodeIdFields(NamedTuple):
    kind: str  # "switch" or "host"
    num: int


class NodeId(_NodeIdFields):
    """Globally unique node identity.

    Switch ids are totally ordered; the reconfiguration algorithm breaks
    epoch-tag ties on them, and up*/down* orientation uses them for links
    between same-level switches.  Ordering is (kind, num) so switches and
    hosts never collide.

    A tuple, so hashing, equality and ordering run in C; its hash is
    ``hash((kind, num))``, the same as the frozen dataclass it replaced,
    which keeps every set and dict iteration order where it was.
    """

    __slots__ = ()

    def __new__(cls, kind: str, num: int) -> "NodeId":
        if kind not in ("switch", "host"):
            raise ValueError(f"unknown node kind {kind!r}")
        return super().__new__(cls, kind, num)

    @property
    def is_switch(self) -> bool:
        return self.kind == "switch"

    @property
    def is_host(self) -> bool:
        return self.kind == "host"

    @property
    def label(self) -> str:
        """The node's component name in protocol records: ``switch.s3``."""
        return f"{self.kind}.{self}"

    def __str__(self) -> str:
        return f"{'s' if self.is_switch else 'h'}{self.num}"


def switch_id(num: int) -> NodeId:
    """The :class:`NodeId` of switch ``num``."""
    return NodeId("switch", num)


def host_id(num: int) -> NodeId:
    """The :class:`NodeId` of host ``num``."""
    return NodeId("host", num)


NodeRef = Union[NodeId, str]


def parse_node_id(ref: NodeRef) -> NodeId:
    """Accept ``NodeId`` or compact strings like ``"s3"`` / ``"h12"``."""
    if isinstance(ref, NodeId):
        return ref
    if isinstance(ref, str) and len(ref) >= 2 and ref[1:].isdigit():
        if ref[0] == "s":
            return switch_id(int(ref[1:]))
        if ref[0] == "h":
            return host_id(int(ref[1:]))
    raise ValueError(f"cannot parse node id {ref!r}")
