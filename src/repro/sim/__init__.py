"""Discrete-event simulation kernel.

This subpackage is the substrate on which the AN2 network model runs.  It
provides:

- :class:`~repro.sim.kernel.Simulator` -- the event loop and simulated clock,
- :class:`~repro.sim.signal.Signal` -- broadcast callbacks through which
  components announce events (a completed epoch, a delivered packet),
- :class:`~repro.sim.clock.DriftingClock` -- per-node clocks with rate skew,
  needed for the paper's asynchronous-network buffer/latency analyses,
- :class:`~repro.sim.random.RandomStreams` -- reproducible named RNG
  substreams,
- monitoring probes in :mod:`repro.sim.monitor`.

The software the paper runs on line-card processors (monitors,
reconfiguration, signaling) is modelled as callbacks the kernel
schedules, not as coroutines.

Simulated time is measured in **microseconds** throughout the library; the
paper's constants (2 us cut-through delay, ~0.5 us cell slots at
622 Mbit/s, sub-200 ms reconfiguration) are expressed directly in these
units.
"""
