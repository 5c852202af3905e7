"""Pluggable loss-recovery solutions for fault scenarios.

Section 5 rejects drop-and-retransmit for best-effort traffic in favour
of credits, and EXPERIMENTS A6 measures that ablation with a single
hand-wired ARQ.  This package turns the one-off into a comparative
harness: a :class:`~repro.solutions.base.Solution` is an interchangeable
cure for cell loss that every canned or chaos scenario runs under
(``ScenarioRunner(..., solution=...)``, :class:`DoNothing` by default),
so the same fault plan can be
judged with no recovery, with administrative disable-and-repair, with
LinkGuardian-style link-local retransmission, or with host-level
end-to-end ARQ -- and the penalties compared.

The four implementations:

- :class:`~repro.solutions.do_nothing.DoNothing` -- the baseline and
  the runner's default.  Installs no hooks and schedules no events, so
  a scenario run under it is *digest-identical* to one with no recovery
  machinery (a test pins that digest).
- :class:`~repro.solutions.disable_repair.DisableAndRepair` -- on an
  error-burst threshold, administratively fail the link (triggering a
  reconfiguration that routes around it), then restore it after a
  repair delay.  Only acts when the link is locally safe to remove
  (its endpoints stay connected), the transition-safety discipline of
  consistent-network-update schemes.
- :class:`~repro.solutions.link_retx.LinkRetx` -- sub-RTT link-local
  retransmission between adjacent switches: a bounded retransmit buffer
  keyed by per-link cell sequence, corruption detected at the receiving
  port, NACK/resend over the reverse direction, FIFO order restored by
  a receiver-side resequencer, falling back to loss on buffer overflow.
- :class:`~repro.solutions.e2e_arq.EndToEndArq` -- wraps the existing
  :class:`~repro.traffic.arq.ArqTransfer` go-back-N at the hosts (with
  the bounded-retry / exponential-backoff knobs).

``tools/run_solutions.py`` runs the scenario x solution matrix and
emits the comparison table; per-solution probes (retransmit buffer
occupancy, resend counts, repair epochs consumed) live under the
``solutions.<name>`` node of the network's metrics registry.
"""

from repro.solutions.base import SOLUTIONS, Solution, make_solution
from repro.solutions.disable_repair import DisableAndRepair
from repro.solutions.do_nothing import DoNothing
from repro.solutions.e2e_arq import EndToEndArq
from repro.solutions.link_retx import LinkRetx, LinkRetxGuard

__all__ = [
    "SOLUTIONS",
    "Solution",
    "DisableAndRepair",
    "DoNothing",
    "EndToEndArq",
    "LinkRetx",
    "LinkRetxGuard",
    "make_solution",
]
