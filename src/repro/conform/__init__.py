"""Conformance tooling: run digests, differential oracles, determinism.

The repo's claims (skeptic bounds, reconfiguration convergence, PIM's
3-iteration behaviour) all rest on *seeded, replayable* simulation.  This
package holds the machinery that certifies replayability instead of
assuming it:

- :mod:`repro.conform.digest` -- a streaming hash of kernel event
  dispatch order plus end-of-run component state fingerprints, stable
  across repeated runs and ``PYTHONHASHSEED`` values;
- :mod:`repro.conform.reference` -- the set-based reference renderings
  of PIM and iSLIP, which nothing outside this package and the tests
  imports;
- :mod:`repro.conform.oracle` -- differential checks that drive those
  reference matchers and the bitmask kernel from identical seeds, cell
  by cell, and cross-check AN1 against AN2 routing on shared topologies.

The AST nondeterminism lint lives in ``tools/lint_determinism.py`` (it
inspects source, not runtime state); ``tools/run_conformance.py`` is the
one-shot gate that runs all three.
"""

from repro.conform.digest import (
    RunDigest,
    canonical_bytes,
    digest_scenario,
    fingerprint_network,
    fingerprint_switch,
)
from repro.conform.oracle import (
    Divergence,
    compare_matchers,
    compare_routing,
    matcher_sweep,
    routing_sweep,
)

__all__ = [
    "RunDigest",
    "canonical_bytes",
    "digest_scenario",
    "fingerprint_network",
    "fingerprint_switch",
    "Divergence",
    "compare_matchers",
    "compare_routing",
    "matcher_sweep",
    "routing_sweep",
]
