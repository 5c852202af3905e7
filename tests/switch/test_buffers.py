"""Tests for per-VC input buffering and guaranteed queues."""

from repro.net.cell import Cell
from repro.switch.buffers import GuaranteedQueues, VcQueues


def cell(vc):
    return Cell(vc=vc)


def holds(queues, out_port, vc):
    """Has ``vc`` a queue (possibly empty now) toward ``out_port``?"""
    return vc in queues._queues.get(out_port, ())


def push_ready(queues, out_port, vc, cell_):
    """Queue a cell of a circuit that has credit to send it."""
    queues.push(out_port, vc, cell_)
    return queues.set_ready(out_port, vc, True)


class TestVcQueues:
    def test_push_pop_fifo_within_vc(self):
        queues = VcQueues()
        first, second = cell(20), cell(20)
        push_ready(queues, 1, 20, first)
        push_ready(queues, 1, 20, second)
        assert queues.pop(1) == (20, first)
        assert queues.pop(1) == (20, second)
        assert queues.pop(1) is None

    def test_round_robin_between_vcs(self):
        queues = VcQueues()
        for _ in range(2):
            push_ready(queues, 1, 20, cell(20))
            push_ready(queues, 1, 21, cell(21))
        served = [queues.pop(1)[0] for _ in range(4)]
        assert served == [20, 21, 20, 21]

    def test_blocked_vc_does_not_block_siblings(self):
        """Section 5: "if one virtual circuit is blocked, other virtual
        circuits passing over the same link are not affected"."""
        queues = VcQueues()
        blocked = cell(20)
        open_cell = cell(21)
        push_ready(queues, 1, 20, blocked)
        push_ready(queues, 1, 21, open_cell)
        # VC 20 runs out of credit; the group still requests output 1.
        assert queues.set_ready(1, 20, False)
        vc, popped = queues.pop(1)
        assert vc == 21 and popped is open_cell
        # Only the starved circuit is left: nothing to serve, no request.
        assert queues.pop(1) is None
        assert not queues.set_ready(1, 20, False)
        assert queues.queued_vcs(1) == [20]
        # Its credit returns and it is served from where it waited.
        assert queues.set_ready(1, 20, True)
        assert queues.pop(1) == (20, blocked)

    def test_passed_over_vcs_keep_their_turn_order(self):
        """An unready circuit the round-robin skips moves behind the one
        served, exactly as if it had been asked and declined."""
        queues = VcQueues()
        for vc in (20, 21, 22):
            push_ready(queues, 1, vc, cell(vc))
            push_ready(queues, 1, vc, cell(vc))
        queues.set_ready(1, 20, False)
        assert queues.pop(1)[0] == 21
        assert list(queues._rotation[1]) == [22, 20, 21]
        queues.set_ready(1, 20, True)
        assert [queues.pop(1)[0] for _ in range(3)] == [22, 20, 21]

    def test_request_bit_follows_ready_set(self):
        """The card requests an output iff a queued circuit bound for it
        is sendable -- no head-of-line blocking across outputs."""
        queues = VcQueues()
        queues.push(1, 20, cell(20))
        queues.push(3, 21, cell(21))
        # Queued but never declared sendable: no request.
        assert queues.pop(1) is None and queues.pop(3) is None
        assert queues.set_ready(3, 21, True)
        assert not queues.set_ready(1, 20, False)
        assert queues.pop(1) is None
        assert queues.pop(3)[0] == 21
        # Served dry: the request bit drops without being told.
        assert not queues.set_ready(3, 21, True)
        # A circuit with nothing queued is never ready, credit or not.
        assert not queues.set_ready(5, 22, True)
        assert queues.pop(5) is None

    def test_push_reports_the_first_cell_edge(self):
        queues = VcQueues()
        assert not holds(queues, 1, 20)
        assert queues.push(1, 20, cell(20))  # queue went non-empty
        assert not queues.push(1, 20, cell(20))
        assert queues.push(1, 21, cell(21))
        assert holds(queues, 1, 20) and not holds(queues, 2, 20)
        assert not queues.requests(1)
        queues.set_ready(1, 20, True)
        assert queues.requests(1) and not queues.requests(2)
        queues.pop(1)
        queues.pop(1)
        assert not queues.requests(1)
        assert holds(queues, 1, 20)  # the empty queue keeps its turn
        assert queues.push(1, 20, cell(20))

    def test_set_ready_is_idempotent(self):
        queues = VcQueues()
        queues.push(1, 20, cell(20))
        assert queues.set_ready(1, 20, True)
        assert queues.set_ready(1, 20, True)
        assert queues.pop(1)[0] == 20
        assert queues.pop(1) is None

    def test_occupancy_tracking(self):
        queues = VcQueues()
        assert queues.occupancy == 0
        push_ready(queues, 0, 20, cell(20))
        push_ready(queues, 1, 21, cell(21))
        assert queues.occupancy == 2
        assert sum(map(len, queues._queues[0].values())) == 1
        assert queues.peak_occupancy == 2
        queues.pop(0)
        assert queues.occupancy == 1
        assert queues.peak_occupancy == 2

    def test_drain_vc_removes_everything(self):
        queues = VcQueues()
        push_ready(queues, 1, 20, cell(20))
        push_ready(queues, 1, 20, cell(20))
        push_ready(queues, 1, 21, cell(21))
        drained = queues.drain_vc(20)
        assert len(drained) == 2
        assert queues.occupancy == 1
        assert queues.queued_vcs(1) == [21]
        assert queues.drain_vc(20) == []
        # The drained circuit is no longer ready; its sibling still is.
        assert queues.pop(1)[0] == 21
        assert queues.pop(1) is None

    def test_queued_vcs_excludes_empty(self):
        queues = VcQueues()
        push_ready(queues, 1, 20, cell(20))
        queues.pop(1)
        assert queues.queued_vcs(1) == []


class TestGuaranteedQueues:
    def test_fifo_per_output(self):
        queues = GuaranteedQueues()
        first, second = cell(30), cell(30)
        queues.push(2, first)
        queues.push(2, second)
        assert queues.pop(2) is first
        assert queues.pop(2) is second
        assert queues.pop(2) is None

    def test_occupancy_and_peak(self):
        queues = GuaranteedQueues()
        queues.push(0, cell(30))
        queues.push(1, cell(31))
        assert queues.occupancy == 2
        queues.pop(0)
        assert queues.occupancy == 1
        assert queues.peak_occupancy == 2
