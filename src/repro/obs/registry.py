"""A hierarchical registry of measurement probes.

Components used to hand-roll their own probe instances, which left every
experiment to rediscover where the numbers lived.  The
:class:`MetricsRegistry` owns one
:class:`~repro.sim.monitor.ProbeSet` per *component node* -- a
dot-separated path such as ``switch.3.crossbar`` or ``host.h0`` -- and
every probe inside a node is addressed as ``<node path>.<probe name>``
(``switch.3.crossbar.iterations_to_maximal``).

The registry is pull-based: components register tallies, or gauges over
their existing plain-int counters, at construction time and mutate them
on their hot paths exactly as before; :meth:`snapshot` walks the tree
only when an experiment asks for it, so registration costs nothing per
cell.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.monitor import ProbeSet, Tally


def _validate_path(path: str) -> str:
    if not path or any(not segment for segment in path.split(".")):
        raise ValueError(f"invalid registry path {path!r}")
    return path


class MetricsRegistry:
    """Hierarchical, snapshot-able probe ownership."""

    def __init__(self) -> None:
        self._nodes: Dict[str, ProbeSet] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def node(self, path: str) -> ProbeSet:
        """The :class:`ProbeSet` at ``path``, created on first use."""
        probes = self._nodes.get(path)
        if probes is None:
            probes = self._nodes[_validate_path(path)] = ProbeSet()
        return probes

    # ------------------------------------------------------------------
    # probe addressing: "<node path>.<probe name>"
    # ------------------------------------------------------------------
    def _split(self, path: str) -> tuple:
        _validate_path(path)
        node_path, _, name = path.rpartition(".")
        if not node_path:
            raise ValueError(
                f"probe path {path!r} needs at least 'node.probe'"
            )
        return node_path, name

    def tally(self, path: str) -> Tally:
        node_path, name = self._split(path)
        return self.node(node_path).tally(name)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict state of every node, keyed by node path."""
        return {
            path: probes.snapshot()
            for path, probes in sorted(self._nodes.items())
        }
