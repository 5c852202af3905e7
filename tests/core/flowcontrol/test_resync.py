"""Tests for the credit resynchronization protocol: the upstream half
(``UpstreamCredits.make_request`` / ``apply_reply``) against hand-built
replies.  The exchange over a real link is in ``test_endpoint.py``."""

import pytest

from repro.core.flowcontrol.credits import DownstreamCredits, UpstreamCredits
from repro.core.flowcontrol.resync import ResyncReply, ResyncRequest


def lose_credits(upstream, downstream, sent, forwarded, lost):
    """Drive a little history: ``sent`` cells, ``forwarded`` freed,
    ``lost`` of those credits never arrive."""
    for _ in range(sent):
        upstream.consume()
    for _ in range(forwarded):
        downstream.receive()
        downstream.free()
    for _ in range(forwarded - lost):
        upstream.credit()


def test_recovery_after_lost_credit():
    upstream = UpstreamCredits(5, vc=7)
    downstream = DownstreamCredits(5)
    lose_credits(upstream, downstream, sent=4, forwarded=4, lost=2)
    assert upstream.balance == 3  # two credits lost

    request = upstream.make_request()
    assert request == ResyncRequest(7, 4)
    reply = ResyncReply(7, request.cells_sent, downstream.buffers_freed)
    recovered = upstream.apply_reply(reply)
    assert recovered == 2
    assert upstream.balance == 5
    assert upstream.credits_recovered == 2


def test_stale_reply_discarded():
    """If the upstream sent more cells after the request snapshot, the
    reply must not be applied (it would over-credit)."""
    upstream = UpstreamCredits(5, vc=7)
    downstream = DownstreamCredits(5)
    request = upstream.make_request()
    upstream.consume()  # race: a cell departs after the snapshot
    reply = ResyncReply(7, request.cells_sent, 0)
    assert upstream.apply_reply(reply) == 0
    assert upstream.balance == 4  # unchanged by the stale reply


def test_noop_when_nothing_lost():
    upstream = UpstreamCredits(3, vc=1)
    downstream = DownstreamCredits(3)
    lose_credits(upstream, downstream, sent=2, forwarded=2, lost=0)
    reply = ResyncReply(1, upstream.make_request().cells_sent, downstream.buffers_freed)
    assert upstream.apply_reply(reply) == 0
    assert upstream.balance == 3


def test_cells_still_buffered_downstream_counted():
    """Cells sitting in the downstream buffer are not credited back."""
    upstream = UpstreamCredits(4, vc=2)
    downstream = DownstreamCredits(4)
    for _ in range(3):
        upstream.consume()
        downstream.receive()
    downstream.free()  # only one forwarded; its credit is lost
    request = upstream.make_request()
    reply = ResyncReply(2, request.cells_sent, downstream.buffers_freed)
    assert upstream.apply_reply(reply) == 1
    # 3 sent, 1 freed -> 2 still buffered -> balance = 4 - 2 = 2.
    assert upstream.balance == 2


def test_incoherent_reply_from_old_incarnation_discarded():
    """After a reroute the upstream state is rebuilt fresh, but the
    downstream's cumulative counter still covers the old path.  The
    resulting reply (freed > sent) must be discarded, not crash."""
    upstream = UpstreamCredits(5, vc=7)
    for _ in range(3):
        upstream.consume()
    reply = ResyncReply(7, upstream.cells_sent, 60)  # old-path counter
    assert upstream.apply_reply(reply) == 0
    assert upstream.balance == 2  # untouched
    assert upstream.incoherent_replies == 1
    assert upstream.replies_applied == 0


def test_reply_claiming_impossible_in_flight_discarded():
    """freed so far behind sent that in_flight > allocation can only
    mean the downstream counter was reset (other-side restart)."""
    upstream = UpstreamCredits(3, vc=7)
    upstream.cells_sent = 40  # long-lived upstream incarnation
    reply = ResyncReply(7, 40, 2)  # in_flight = 38 > allocation
    assert upstream.apply_reply(reply) == 0
    assert upstream.incoherent_replies == 1


def test_wrong_vc_rejected():
    upstream = UpstreamCredits(2, vc=2)
    with pytest.raises(ValueError):
        upstream.apply_reply(ResyncReply(3, 0, 0))


def test_repeated_resync_idempotent():
    upstream = UpstreamCredits(5, vc=7)
    downstream = DownstreamCredits(5)
    lose_credits(upstream, downstream, sent=2, forwarded=2, lost=1)
    for _ in range(3):
        request = upstream.make_request()
        reply = ResyncReply(7, request.cells_sent, downstream.buffers_freed)
        upstream.apply_reply(reply)
    assert upstream.balance == 5
    assert upstream.credits_recovered == 1
