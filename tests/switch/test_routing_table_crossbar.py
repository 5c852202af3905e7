"""Tests for routing tables and the crossbar."""

import random

import pytest

from repro._types import host_id
from repro.core.matching.bitmask import BitmaskIslip, BitmaskPim
from repro.core.routing.signaling import SetupRequest
from repro.net.cell import Cell
from repro.switch.crossbar import Crossbar
from repro.switch.routing_table import RoutingTable


def request(vc=20):
    return SetupRequest(vc=vc, source=host_id(0), destination=host_id(1))


class TestRoutingTable:
    def test_install_and_lookup(self):
        table = RoutingTable()
        entry = table.install(20, 3, request(), now=5.0)
        assert table.lookup(20) is entry
        assert entry.out_port == 3
        assert entry.installed_at == 5.0
        assert 20 in table

    def test_remove(self):
        table = RoutingTable()
        table.install(20, 3, request(), now=0.0)
        removed = table.remove(20)
        assert removed is not None
        assert table.lookup(20) is None
        assert table.remove(20) is None

    def test_pending_buffering_and_flush(self):
        table = RoutingTable()
        cells = [Cell(vc=20) for _ in range(3)]
        for cell in cells:
            assert table.buffer_pending(20, cell)
        assert table.pending_count(20) == 3
        assert table.take_pending(20) == cells
        assert table.pending_count(20) == 0

    def test_pending_cap_drops(self):
        table = RoutingTable(pending_cap=2)
        assert table.buffer_pending(20, Cell(vc=20))
        assert table.buffer_pending(20, Cell(vc=20))
        assert not table.buffer_pending(20, Cell(vc=20))
        assert table.pending_drops == 1

    def test_remove_clears_pending(self):
        table = RoutingTable()
        table.install(20, 1, request(), now=0.0)
        table.buffer_pending(20, Cell(vc=20))
        table.remove(20)
        assert table.take_pending(20) == []

    def test_entries_listing(self):
        table = RoutingTable()
        table.install(20, 1, request(20), now=0.0)
        table.install(21, 2, request(21), now=0.0)
        assert {e.vc for e in table.entries()} == {20, 21}


class TestCrossbar:
    def test_schedule_counts_slots_and_iterations(self):
        crossbar = Crossbar(4, BitmaskPim(4, 4, random.Random(0)))
        crossbar.request(0, 1)
        result = crossbar.schedule()
        assert result.matching == {0: 1}
        assert crossbar.slots == 1
        assert crossbar.iterations_to_maximal.count == 1

    def test_request_and_withdraw_are_idempotent_edges(self):
        crossbar = Crossbar(4, BitmaskPim(4, 4, random.Random(0)))
        for _ in range(2):
            crossbar.request(0, 1)
            crossbar.request(2, 1)
        assert crossbar.rows == [0b0010, 0, 0b0010, 0]
        assert crossbar.cols == [0, 0b0101, 0, 0]
        assert crossbar.want == 0b0010
        for _ in range(2):
            crossbar.withdraw(0, 1)
        assert crossbar.want == 0b0010  # input 2 still asks
        crossbar.withdraw(2, 1)
        assert crossbar.rows == crossbar.cols == [0, 0, 0, 0]
        assert crossbar.want == 0

    def test_unavailable_and_pre_matched_outputs_sit_the_slot_out(self):
        crossbar = Crossbar(4, BitmaskPim(4, 4, random.Random(0)))
        crossbar.request(0, 1)
        crossbar.request(0, 2)
        crossbar.request(3, 2)
        assert crossbar.schedule(available=0b0010).matching == {0: 1}
        assert crossbar.schedule({3: 1}).matching == {3: 1, 0: 2}
        assert crossbar.schedule({1: 2}, available=0b1011).matching == {
            1: 2, 0: 1,
        }
        assert crossbar.rows == [0b0110, 0, 0, 0b0100]  # read, not consumed

    @pytest.mark.parametrize("n", [4, 16, 24])
    @pytest.mark.parametrize("kind", ["pim", "islip"])
    def test_available_limits_free_outputs_as_masked_rows_did(self, kind, n):
        """``schedule(pre, available)`` hands the matcher ``available``
        for the free outputs; it must equal masking every row by it and
        the union with it -- same pairs in the same order, same RNG state
        or pointers -- with pre-matched pairs that keep their rows and
        may sit on outputs outside ``available``.  (Masking the free
        *inputs* by it instead is the easy bug.)"""
        gen = random.Random(n)

        def matcher():
            if kind == "pim":
                return BitmaskPim(n, 3, random.Random(5))
            return BitmaskIslip(n, 3)

        crossbar = Crossbar(n, matcher())
        reference = matcher()
        for _ in range(200):
            for in_port in range(n):
                for out_port in range(n):
                    if gen.random() < 0.4:
                        crossbar.request(in_port, out_port)
                    else:
                        crossbar.withdraw(in_port, out_port)
            pre = {}
            for in_port in gen.sample(range(n), gen.randrange(0, 4)):
                taken = set(pre.values())
                pre[in_port] = gen.choice(
                    [o for o in range(n) if o not in taken]
                )
            available = gen.getrandbits(n)
            expected = reference.match_masks(
                [row & available for row in crossbar.rows],
                pre,
                crossbar.cols,
                None if pre else crossbar.want & available,
            )
            got = crossbar.schedule(pre, available)
            assert list(got.matching.items()) == list(
                expected.matching.items()
            )
            assert got.iterations_to_maximal == expected.iterations_to_maximal
            assert (
                got.new_matches_per_iteration
                == expected.new_matches_per_iteration
            )
            if kind == "pim":
                assert (
                    crossbar.matcher.rng.getstate()
                    == reference.rng.getstate()
                )
            else:
                assert (
                    crossbar.matcher.grant_pointers,
                    crossbar.matcher.accept_pointers,
                ) == (reference.grant_pointers, reference.accept_pointers)
