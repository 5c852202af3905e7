"""Host-level packet workloads.

The paper's examples of best-effort applications: "File transfers and
remote-procedure call are examples of applications where best-effort
scheduling is most appropriate" (section 1).  These drivers run on top of
established circuits and produce the packet streams the integration tests
and examples measure.
"""

from __future__ import annotations

import random
from typing import Optional

from repro._types import NodeId, VcId
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.kernel import Simulator
from repro.sim.random import derived_stream


class RpcWorkload:
    """Closed-loop request/response pairs: the paper's RPC example.

    The client sends a request packet on the forward circuit; when the
    server host delivers it, the server side immediately answers on the
    reverse circuit; the client measures the round trip and (after
    ``think_time_us``) issues the next call.
    """

    def __init__(
        self,
        sim: Simulator,
        client: Host,
        server: Host,
        request_vc: VcId,
        response_vc: VcId,
        n_calls: int = 50,
        request_bytes: int = 96,
        response_bytes: int = 480,
        think_time_us: float = 0.0,
    ) -> None:
        if n_calls < 1:
            raise ValueError(f"n_calls must be >= 1, got {n_calls}")
        self.sim = sim
        self.client = client
        self.server = server
        self.request_vc = request_vc
        self.response_vc = response_vc
        self.n_calls = n_calls
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.think_time_us = think_time_us
        self.calls_completed = 0
        self.rtts: list = []
        self._call_started_at: Optional[float] = None
        self._started = False

    @property
    def done(self) -> bool:
        return self.calls_completed >= self.n_calls

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.server.packet_delivered.subscribe(self._serve)
        self.client.packet_delivered.subscribe(self._complete)
        self._issue()

    def _issue(self) -> None:
        self._call_started_at = self.sim.now
        self.client.send_packet(
            self.request_vc,
            Packet(
                source=self.client.node_id,
                destination=self.server.node_id,
                size=self.request_bytes,
            ),
        )

    def _serve(self, packet: Packet) -> None:
        if packet.source != self.client.node_id:
            return
        self.server.send_packet(
            self.response_vc,
            Packet(
                source=self.server.node_id,
                destination=self.client.node_id,
                size=self.response_bytes,
            ),
        )

    def _complete(self, packet: Packet) -> None:
        if packet.source != self.server.node_id:
            return
        if self._call_started_at is None:
            return
        self.rtts.append(self.sim.now - self._call_started_at)
        self._call_started_at = None
        self.calls_completed += 1
        if not self.done:
            self.sim.schedule(self.think_time_us, self._issue)


class PoissonPacketWorkload:
    """Open-loop packets with exponential inter-arrival times."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        vc: VcId,
        destination: NodeId,
        mean_interval_us: float = 1_000.0,
        packet_bytes: int = 576,
        rng: Optional[random.Random] = None,
        duration_us: Optional[float] = None,
    ) -> None:
        if mean_interval_us <= 0:
            raise ValueError("mean interval must be positive")
        self.sim = sim
        self.host = host
        self.vc = vc
        self.destination = destination
        self.mean_interval_us = mean_interval_us
        self.packet_bytes = packet_bytes
        # Deprecation note: the old fallback was a shared random.Random(0)
        # -- every default-constructed Poisson source emitted the *same*
        # inter-arrival sequence.  Now a per-source substream keyed by
        # (host, vc); pass an explicit ``rng`` to control seeding.
        self.rng = (
            rng
            if rng is not None
            else derived_stream(f"workload.poisson/{host.node_id}/{vc}")
        )
        self.duration_us = duration_us
        self.packets_sent = 0
        self._stop_at: Optional[float] = None

    def start(self) -> None:
        if self.duration_us is not None:
            self._stop_at = self.sim.now + self.duration_us
        self.sim.schedule(
            self.rng.expovariate(1.0 / self.mean_interval_us), self._emit
        )

    def stop(self) -> None:
        self._stop_at = self.sim.now

    def _emit(self) -> None:
        if self._stop_at is not None and self.sim.now >= self._stop_at:
            return
        self.host.send_packet(
            self.vc,
            Packet(
                source=self.host.node_id,
                destination=self.destination,
                size=self.packet_bytes,
            ),
        )
        self.packets_sent += 1
        self.sim.schedule(
            self.rng.expovariate(1.0 / self.mean_interval_us), self._emit
        )
