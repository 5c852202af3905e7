"""Tests for the lazy-cancel heap compaction and O(1) ``pending()``.

``Event.cancel()`` marks events dead in place; the heap sheds them
lazily on pop, and ``Simulator`` compacts wholesale once more than half
of a large heap is cancelled.  ``pending()`` is the heap size less
its cancelled entries, not a heap scan.  These tests pin the counter bookkeeping (including
double-cancel and cancel-after-execution) and the compaction trigger,
ordering preservation, and observability via ``heap_size`` /
``compactions``.
"""

import random

from repro.sim.kernel import Simulator


def test_pending_is_live_counter():
    sim = Simulator()
    events = [sim.schedule(i + 1.0, lambda: None) for i in range(10)]
    assert sim.pending() == 10
    events[3].cancel()
    events[7].cancel()
    assert sim.pending() == 8
    sim.run()
    assert sim.pending() == 0
    assert sim.events_executed == 8


def test_double_cancel_decrements_once():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    event.cancel()
    assert sim.pending() == 1
    sim.run()
    assert sim.events_executed == 1


def test_cancel_after_execution_is_harmless():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.pending() == 0
    event.cancel()  # already executed: must not underflow the counter
    assert sim.pending() == 0
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 1


def test_compaction_triggers_and_shrinks_heap():
    sim = Simulator()
    events = [sim.schedule(i + 1.0, lambda: None) for i in range(200)]
    assert sim.heap_size == 200
    assert sim.compactions == 0
    # Cancel three quarters: crosses the >50%-cancelled threshold
    # mid-loop (at 101 of 200), compacting down to the 99 then-live
    # events; the remaining cancels stay lazily marked below threshold.
    for event in events[:150]:
        event.cancel()
    assert sim.compactions == 1
    assert sim.pending() == 50
    assert sim.heap_size == 99
    sim.run()
    assert sim.events_executed == 50


def test_small_heaps_never_compact():
    sim = Simulator()
    events = [sim.schedule(i + 1.0, lambda: None) for i in range(20)]
    for event in events:
        event.cancel()
    assert sim.compactions == 0


def test_compaction_preserves_execution_order():
    sim = Simulator()
    fired = []
    rng = random.Random(0)
    events = []
    for index in range(500):
        when = rng.random() * 100.0
        events.append(
            sim.schedule_at(when, lambda index=index: fired.append(index))
        )
    keep = {index for index in range(500) if index % 7 == 0}
    for index, event in enumerate(events):
        if index not in keep:
            event.cancel()
    assert sim.compactions >= 1
    sim.run()
    assert sorted(fired) == sorted(keep)
    # Survivors fired in time order despite the heapify.
    times = sorted((events[index].time, index) for index in keep)
    assert fired == [index for _, index in times]


def test_pending_constant_through_storm():
    """pending() stays correct while cancels race scheduled work."""
    sim = Simulator()
    executed = [0]

    def fire():
        executed[0] += 1

    rng = random.Random(1)
    events = [sim.schedule_at(rng.random() * 50.0, fire) for _ in range(1000)]
    live = 1000
    for index, event in enumerate(events):
        if index % 3:
            event.cancel()
            live -= 1
        assert sim.pending() == live
    sim.run()
    assert executed[0] == live


def test_compaction_inside_a_running_loop():
    """An event that cancels most of the heap compacts it while ``run``
    is iterating: the survivors still fire once each, in ``(time, seq)``
    order, and nothing is left behind for a second run."""
    sim = Simulator()
    fired = []
    events = [
        sim.schedule_at(5.0 + index % 3, fired.append, index)
        for index in range(200)
    ]

    def storm():
        for index, event in enumerate(events):
            if index % 4:
                event.cancel()

    sim.schedule_at(1.0, storm)
    sim.run()
    assert sim.compactions >= 1
    survivors = [index for index in range(200) if index % 4 == 0]
    assert fired == sorted(survivors, key=lambda index: (index % 3, index))
    assert sim.heap_size == 0 and sim.pending() == 0
    sim.run()
    assert len(fired) == len(survivors)
