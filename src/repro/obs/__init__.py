"""Observability: tracing, flight recording, and metrics.

The cooperating pieces:

- :class:`~repro.obs.trace.Tracer` -- timestamped structured events
  (category, component, name, payload), serialized to JSON Lines and
  rendered by ``tools/trace_report.py``;
- :class:`~repro.obs.journey.JourneyContext` -- causal per-hop records
  for every traced cell, segmentation to reassembly, feeding the
  critical-path analyzer (``trace_report.py --section journey``);
- :class:`~repro.obs.flight.FlightRecorder` -- always-on bounded rings
  of recent protocol events per switch/link/host, dumped to JSONL when
  an invariant fails, an exception escapes the kernel, or a digest
  mismatch is detected.  ``Simulator.note`` hands every protocol
  transition to it and to the tracer alike;
- :class:`~repro.obs.registry.MetricsRegistry` -- hierarchical
  ownership of the :class:`~repro.sim.monitor.ProbeSet` tallies and
  gauges that the switch, host, and fault models feed, snapshot-able as
  plain dicts.

Per-event profiling is not here: ``Simulator.profiler`` takes any object
with ``dispatch(callback, args)``, and ``benchmarks/e2e/spans.py`` owns
the one that builds the per-layer table.

A trace is attached in one way: assign a :class:`~repro.obs.trace.Tracer` to one
network's ``sim.tracer`` (``tools/run_scenario.py --trace-out`` does
this for a chaos scenario).
"""
