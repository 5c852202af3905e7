"""Credit resynchronization.

"The credit-based scheme is robust in the face of lost flow-control
messages.  With credits, a lost message can only cause reduced
performance.  Performance can be regained by having the upstream switch
periodically trigger a resynchronization of credits.  Devising the
re-synchronization protocol is in itself an interesting problem in
distributed computing..." (section 5).

The protocol implemented here is the classic cumulative-counter exchange
(the same idea as N23/QFC resync):

1. the upstream sends ``ResyncRequest(vc, cells_sent)`` -- its cumulative
   transmit counter -- *in order* with data cells on the link;
2. the downstream, on receiving the request, replies
   ``ResyncReply(vc, cells_sent_echo, buffers_freed)`` with its cumulative
   freed counter, *in order* with credit returns;
3. the upstream sets ``balance = allocation - (cells_sent_echo -
   buffers_freed)`` -- but only if its transmit counter still equals the
   echoed one, i.e. it has sent nothing since the request.  Otherwise it
   just retries later.

Step 3's guard makes the protocol safe even though request, reply, data
and credit cells are all in flight concurrently: because the request and
the reply travel in FIFO order with the data and credit streams, every
cell sent before the request has been counted in ``buffers_freed`` or is
still buffered downstream -- so the computed balance can only *recover*
lost credits, never manufacture new ones.  (A lost request or reply just
means the next periodic attempt tries again.)

This module holds the two messages.  Steps 1 and 3 are
``UpstreamCredits.make_request`` / ``apply_reply``
(:mod:`repro.core.flowcontrol.credits`); putting them on a wire, and
step 2, is :class:`~repro.core.flowcontrol.endpoint.CreditEndpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._types import VcId


@dataclass(frozen=True)
class ResyncRequest:
    vc: VcId
    cells_sent: int


@dataclass(frozen=True)
class ResyncReply:
    vc: VcId
    cells_sent_echo: int
    buffers_freed: int
