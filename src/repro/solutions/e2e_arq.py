"""End-to-end go-back-N ARQ as a pluggable solution.

This is the "drop and let higher levels retransmit" posture section 5
rejects for best-effort traffic, packaged so the A6 ablation can run it
against the same fault plans as the link-local alternatives.  Each
scenario load becomes one :class:`~repro.traffic.arq.ArqTransfer`: the
raw paced stream is replaced by a windowed reliable transfer over the
same circuit, with a reverse ack circuit opened alongside, and recovery
happens at host timescales -- an end-to-end RTT plus timeout slack per
loss, retransmitting the whole outstanding window.

The bounded-retry knobs added to :class:`ArqTransfer` matter here:
a chaos plan may sever a data circuit permanently, and without
``max_retries`` the sender would retransmit its window every timeout
until the scenario horizon -- an event storm that measures nothing.
A transfer that exhausts its retries parks in the terminal ``failed``
state and is reported as such in the comparison table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.solutions.base import Solution, SolutionError, register
from repro.traffic.arq import ArqTransfer


class EndToEndArq(Solution):
    """One go-back-N transfer per scenario load."""

    name = "e2e_arq"

    def __init__(
        self,
        window: int = 8,
        timeout_us: float = 3_000.0,
        max_retries: Optional[int] = 25,
        backoff: float = 1.5,
    ) -> None:
        super().__init__()
        self.window = window
        self.timeout_us = timeout_us
        self.max_retries = max_retries
        self.backoff = backoff
        self._ack_vcs: List[int] = []
        self.transfers: List[ArqTransfer] = []

    # ------------------------------------------------------------------
    def on_circuits_open(self, runner) -> None:
        """Open the reverse ack circuit for every load (the kernel is
        between ``run`` calls here, so ``setup_circuit`` may block)."""
        for load in runner.loads:
            circuit = runner.net.setup_circuit(load.destination, load.source)
            self._ack_vcs.append(circuit.vc)

    def schedule_traffic(self, runner, t0: float, vcs: List[int]) -> bool:
        """Replace the raw paced loads with ARQ transfers.

        ``runner.sent`` keeps its empty per-circuit lists: the
        mis-assembly invariant compares recorded payloads, and the ARQ
        frames (sequence-numbered, self-checked by cumulative acks) are
        accounted by the transfers themselves instead.
        """
        if len(self._ack_vcs) != len(vcs):
            raise SolutionError(
                "ack circuits were not opened; the runner must call "
                "on_circuits_open before schedule_traffic"
            )
        net = runner.net
        for vc, ack_vc, load in zip(vcs, self._ack_vcs, runner.loads):
            transfer = ArqTransfer(
                sim=net.sim,
                sender=net.host(load.source),
                receiver=net.host(load.destination),
                data_vc=vc,
                ack_vc=ack_vc,
                n_packets=load.count,
                packet_bytes=load.packet_size,
                window=self.window,
                timeout_us=self.timeout_us,
                max_retries=self.max_retries,
                backoff=self.backoff,
                # Same offered load over the same span as the raw paced
                # stream it replaces -- without this the whole transfer
                # blasts through before the fault window even opens.
                pacing_us=load.interval_us,
            )
            self.transfers.append(transfer)
            net.sim.schedule_at(t0, transfer.start)
        return True

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        transfers = self.transfers
        done = sum(1 for t in transfers if t.done)
        failed = sum(1 for t in transfers if t.failed)
        transmitted = sum(t.packets_transmitted for t in transfers)
        useful = sum(t.delivered for t in transfers)
        completions = [
            t.completed_at for t in transfers if t.completed_at is not None
        ]
        return {
            "transfers": len(transfers),
            "transfers_done": done,
            "transfers_failed": failed,
            "e2e_retransmissions": sum(t.retransmissions for t in transfers),
            "timeouts": sum(t.timeouts for t in transfers),
            "packets_transmitted": transmitted,
            "efficiency": (useful / transmitted) if transmitted else 0.0,
            "last_completion_us": max(completions) if completions else 0.0,
        }

    def invariants(self, net) -> List:
        from repro.faults.invariants import InvariantResult

        stuck = [
            t for t in self.transfers
            if not t.done and not t.failed
        ]
        if stuck:
            return [
                InvariantResult(
                    "arq transfers terminated", False,
                    f"{len(stuck)} transfer(s) neither done nor failed "
                    f"at scenario end (first: base={stuck[0].base}/"
                    f"{stuck[0].n_packets})",
                )
            ]
        done = sum(1 for t in self.transfers if t.done)
        failed = sum(1 for t in self.transfers if t.failed)
        return [
            InvariantResult(
                "arq transfers terminated", True,
                f"{done} completed, {failed} failed terminally",
            )
        ]


register(EndToEndArq.name, EndToEndArq)
