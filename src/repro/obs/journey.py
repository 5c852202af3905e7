"""Causal cell-journey tracing: per-hop records for traced cells.

A :class:`JourneyContext` rides on a :class:`~repro.net.cell.Cell` (its
``trace_ctx`` field) from host segmentation to reassembly.  Every
instrumented hop -- host transmit, VOQ enqueue, matcher grant, link
arrival, delivery -- calls :meth:`JourneyContext.record`, which bumps a
Lamport-style hop counter and emits a ``journey``-category trace record
carrying ``(cell, packet, vc, hop)`` plus the hop's own payload.  The
hop counter gives a causal order even when several hops share a
simulated timestamp (segmentation and VOQ enqueue are synchronous with
the triggering event), so the critical-path analyzer in
``tools/trace_report.py`` can walk each cell's journey unambiguously.

Propagation rules:

- Contexts are attached only at the *source host*, by
  :func:`attach_journey`, to every packet sent while the simulator's
  tracer has the ``journey`` category enabled.
- Every downstream instrumentation site guards with a single
  ``cell.trace_ctx is not None`` attribute check; cells of untraced
  runs pay exactly that check and nothing else.

Stages emitted by the built-in instrumentation::

    segment      cell created by AAL segmentation at the source host
    tx           source host put the cell on its access link
    wire.arrive  cell crossed a link (payload: the link's endpoints)
    wire.drop    link dropped it (dead link, drop filter, bit error)
    voq.enqueue  switch accepted it into a VOQ (payload: in/out port)
    grant        crossbar grant let it leave the switch
    deliver      destination host accepted it for reassembly
    packet.done  the whole packet reassembled (last cell only)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer


class JourneyContext:
    """The trace context one traced cell carries hop to hop."""

    __slots__ = ("tracer", "cell_uid", "packet_id", "vc", "hops")

    def __init__(
        self, tracer: "Tracer", cell_uid: int, packet_id: int, vc: int
    ) -> None:
        self.tracer = tracer
        self.cell_uid = cell_uid
        self.packet_id = packet_id
        self.vc = int(vc)
        self.hops = 0

    def record(
        self, t: float, component: str, stage: str, **payload: Any
    ) -> None:
        """Emit one per-hop record and advance the hop counter."""
        self.hops += 1
        self.tracer.emit(
            t,
            "journey",
            component,
            stage,
            cell=self.cell_uid,
            packet=self.packet_id,
            vc=self.vc,
            hop=self.hops,
            **payload,
        )


def attach_journey(
    tracer: "Tracer", cells: List[Any], now: float, component: str
) -> None:
    """Attach journey contexts to one packet's worth of cells: every
    cell gets its own context and an immediate ``segment`` record."""
    for cell in cells:
        ctx = JourneyContext(tracer, cell.uid, cell.packet_id, cell.vc)
        cell.trace_ctx = ctx
        ctx.record(
            now, component, "segment",
            seq=cell.seq, eop=cell.end_of_packet,
        )
