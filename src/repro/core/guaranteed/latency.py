"""Latency and buffer bounds for guaranteed traffic.

Section 4's analytical results:

- buffer requirement per line card: **2 frames** of cells in a globally
  synchronized network, and about **4 frames** in an asynchronous network
  like AN2 ("for a typical local area installation, four frames worth of
  buffers are sufficient"),
- end-to-end delay bound: "the time for a guaranteed cell to reach its
  destination is at most ``p * (2f + l)``, where p is the path length, f
  is the frame time, and l is the maximum link latency",
- per-switch latency/jitter under 1 ms for sub-half-millisecond frames.

The E8 benchmark drives CBR streams through simulated multi-switch paths
(with and without clock drift) and checks measured maxima against these
functions.
"""

from __future__ import annotations

from repro.constants import FRAME_SLOTS


def guaranteed_latency_bound_us(
    path_length: int,
    frame_time: float,
    max_link_latency_us: float,
) -> float:
    """The paper's ``p * (2f + l)`` end-to-end delay bound.

    ``path_length`` counts switches traversed.  Holds for synchronous and
    asynchronous networks (the asynchronous derivation rests on the fact
    that "a cell delayed for a long time in one switch cannot be very much
    delayed in later switches").
    """
    if path_length < 0:
        raise ValueError(f"negative path length {path_length}")
    return path_length * (2.0 * frame_time + max_link_latency_us)


def per_switch_jitter_bound_us(frame_time: float) -> float:
    """"The latency and jitter of a guaranteed cell is less than 1
    millisecond per switch" -- the bound is two frame times per switch."""
    return 2.0 * frame_time


def buffer_requirement_cells(
    frame_slots: int = FRAME_SLOTS, synchronous: bool = False
) -> int:
    """Guaranteed-traffic buffers needed per line card, in cells.

    Synchronous network: twice the frame size ("Buffers for a single
    frame are not enough, because neither the frame boundaries nor the
    transmission order is the same at both switches, and because the
    switches can rearrange their schedules from one frame to the next").

    Asynchronous network (AN2): depends on diameter, latency, and clock
    variation; "for a typical local area installation, four frames worth
    of buffers are sufficient".
    """
    if frame_slots <= 0:
        raise ValueError(f"frame_slots must be positive, got {frame_slots}")
    return (2 if synchronous else 4) * frame_slots
