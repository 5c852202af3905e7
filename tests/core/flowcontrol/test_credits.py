"""Tests for per-VC credit state machines, including the conservation
invariant under random schedules (hypothesis)."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowcontrol.credits import (
    CreditError,
    DownstreamCredits,
    UpstreamCredits,
    conservation_holds,
)


class TestUpstream:
    def test_starts_with_full_allocation(self):
        upstream = UpstreamCredits(5)
        assert upstream.balance == 5
        assert upstream.can_send

    def test_consume_decrements(self):
        upstream = UpstreamCredits(2)
        upstream.consume()
        upstream.consume()
        assert not upstream.can_send
        assert upstream.cells_sent == 2

    def test_send_without_credit_rejected(self):
        upstream = UpstreamCredits(1)
        upstream.consume()
        with pytest.raises(CreditError):
            upstream.consume()

    def test_credit_restores(self):
        upstream = UpstreamCredits(2)
        upstream.consume()
        upstream.credit()
        assert upstream.balance == 2

    def test_duplicate_credit_clamps_and_counts(self):
        # A duplicated (or post-resync stale) credit cell must degrade
        # gracefully: clamp to the allocation, count the excess.
        upstream = UpstreamCredits(2)
        upstream.credit()
        assert upstream.balance == 2
        assert upstream.excess_credits == 1
        upstream.consume()
        upstream.credit(3)
        assert upstream.balance == 2
        assert upstream.excess_credits == 3

    def test_credit_overflow_clamps_at_allocation(self):
        # A credit beyond the allocation never raises: it can only cost
        # performance, so the balance stays clamped and the excess counts.
        upstream = UpstreamCredits(2)
        assert upstream.credit() is False
        assert upstream.balance == 2
        assert upstream.credits_received == 1
        assert upstream.excess_credits == 1

    def test_stale_credits_corrected_by_resync(self):
        # Inflated balance (clamped duplicates) is restored to the
        # counter-derived exact value by resynchronization.
        upstream = UpstreamCredits(4)
        for _ in range(2):
            upstream.consume()
        upstream.credit(4)  # two real credits + two duplicates, clamped
        assert upstream.balance == 4
        # Downstream actually freed nothing: correct balance is 2.
        assert upstream.resynchronize(downstream_freed_total=0) == 0
        assert upstream.balance == 2
        assert upstream.excess_credits == 4

    def test_resync_lowers_inflated_balance_and_counts_excess(self):
        # A stale credit inflated the balance; resync adopts the exact
        # counter-derived value instead of raising.
        upstream = UpstreamCredits(4)
        upstream.consume()
        upstream.credit(1)
        assert upstream.balance == 4
        assert upstream.resynchronize(downstream_freed_total=0) == 0
        assert upstream.balance == 3
        assert upstream.excess_credits == 1

    def test_invalid_amounts(self):
        with pytest.raises(CreditError):
            UpstreamCredits(0)
        upstream = UpstreamCredits(3)
        upstream.consume()
        with pytest.raises(CreditError):
            upstream.credit(0)

    def test_resynchronize_recovers_lost_credits(self):
        upstream = UpstreamCredits(4)
        for _ in range(3):
            upstream.consume()
        # Downstream forwarded all 3 but 2 credits were lost in transit:
        upstream.credit(1)
        recovered = upstream.resynchronize(downstream_freed_total=3)
        assert recovered == 2
        assert upstream.balance == 4

    def test_resynchronize_noop_when_consistent(self):
        upstream = UpstreamCredits(4)
        upstream.consume()
        assert upstream.resynchronize(downstream_freed_total=0) == 0
        assert upstream.balance == 3

    def test_resynchronize_rejects_impossible_counters(self):
        upstream = UpstreamCredits(4)
        upstream.consume()
        with pytest.raises(CreditError):
            upstream.resynchronize(downstream_freed_total=2)


class TestDownstream:
    def test_receive_and_free(self):
        downstream = DownstreamCredits(2)
        downstream.receive()
        assert downstream.occupied == 1
        downstream.free()
        assert downstream.occupied == 0
        assert downstream.buffers_freed == 1

    def test_overflow_detected(self):
        downstream = DownstreamCredits(1)
        downstream.receive()
        with pytest.raises(CreditError):
            downstream.receive()
        assert downstream.overflows == 1

    def test_free_empty_rejected(self):
        downstream = DownstreamCredits(1)
        with pytest.raises(CreditError):
            downstream.free()


@settings(max_examples=100, deadline=None)
@given(
    allocation=st.integers(min_value=1, max_value=8),
    actions=st.lists(
        st.sampled_from(["send", "deliver", "forward", "return"]),
        max_size=120,
    ),
)
def test_conservation_invariant(allocation, actions):
    """Random interleavings of send / in-flight delivery / downstream
    forwarding / credit return conserve credits exactly, and the receiver
    never overflows (losslessness, section 5)."""
    upstream = UpstreamCredits(allocation)
    downstream = DownstreamCredits(allocation)
    cells_in_flight = deque()
    credits_in_flight = deque()
    for action in actions:
        if action == "send" and upstream.can_send:
            upstream.consume()
            cells_in_flight.append(1)
        elif action == "deliver" and cells_in_flight:
            cells_in_flight.popleft()
            downstream.receive()  # must never raise
        elif action == "forward" and downstream.occupied:
            downstream.free()
            credits_in_flight.append(1)
        elif action == "return" and credits_in_flight:
            credits_in_flight.popleft()
            upstream.credit()
        assert conservation_holds(
            upstream,
            downstream,
            len(cells_in_flight),
            len(credits_in_flight),
        )
        assert downstream.occupied <= allocation
