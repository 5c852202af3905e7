"""Tests for CBR sources and host-level workloads."""

import pytest

from repro._types import host_id
from repro.traffic.cbr import CbrSource, interarrival_jitter, latency_jitter
from repro.traffic.workload import PoissonPacketWorkload


class TestCbr:
    def test_stream_feeds_circuit(self, small_net):
        circuit, _ = small_net.reserve_bandwidth("h0", "h1", 4)
        small_net.run(2_000)
        source = CbrSource(small_net.host("h0"), circuit.vc)
        source.stream(20)
        small_net.run(200_000)
        assert small_net.host("h1").cells_received == 20
        assert source.cells_requested == 20

    def test_stream_validation(self, small_net):
        circuit, _ = small_net.reserve_bandwidth("h0", "h1", 4)
        source = CbrSource(small_net.host("h0"), circuit.vc)
        with pytest.raises(ValueError):
            source.stream(0)

    def test_jitter_helpers(self):
        assert interarrival_jitter([0.0, 10.0]) is None
        assert interarrival_jitter([0.0, 10.0, 20.0]) == pytest.approx(0.0)
        assert interarrival_jitter([0.0, 10.0, 30.0]) == pytest.approx(5.0)
        assert latency_jitter([5.0]) is None
        assert latency_jitter([5.0, 9.0, 6.0]) == pytest.approx(4.0)


class TestRpc:
    def test_closed_loop_round_trips(self, small_net):
        from repro.traffic.workload import RpcWorkload

        request = small_net.setup_circuit("h0", "h1")
        response = small_net.setup_circuit("h1", "h0")
        rpc = RpcWorkload(
            small_net.sim,
            small_net.host("h0"),
            small_net.host("h1"),
            request.vc,
            response.vc,
            n_calls=8,
            think_time_us=100.0,
        )
        rpc.start()
        small_net.run(400_000)
        assert rpc.done
        assert len(rpc.rtts) == 8
        # A round trip must cost at least two one-way transits.
        assert min(rpc.rtts) > 10.0
        assert rpc.calls_completed == 8

    def test_validation(self, small_net):
        from repro.traffic.workload import RpcWorkload

        with pytest.raises(ValueError):
            RpcWorkload(
                small_net.sim,
                small_net.host("h0"),
                small_net.host("h1"),
                1,
                2,
                n_calls=0,
            )


class TestPoisson:
    def test_open_loop_arrivals_delivered(self, small_net):
        circuit = small_net.setup_circuit("h0", "h1")
        workload = PoissonPacketWorkload(
            small_net.sim,
            small_net.host("h0"),
            circuit.vc,
            host_id(1),
            mean_interval_us=2_000.0,
            packet_bytes=96,
            duration_us=40_000.0,
        )
        workload.start()
        small_net.run(300_000)
        assert workload.packets_sent >= 5
        assert len(small_net.host("h1").delivered) == workload.packets_sent

    def test_stop_halts_emission(self, small_net):
        circuit = small_net.setup_circuit("h0", "h1")
        workload = PoissonPacketWorkload(
            small_net.sim,
            small_net.host("h0"),
            circuit.vc,
            host_id(1),
            mean_interval_us=1_000.0,
        )
        workload.start()
        small_net.run(10_000)
        workload.stop()
        sent = workload.packets_sent
        small_net.run(20_000)
        assert workload.packets_sent == sent

    def test_validation(self, small_net):
        with pytest.raises(ValueError):
            PoissonPacketWorkload(
                small_net.sim,
                small_net.host("h0"),
                1,
                host_id(1),
                mean_interval_us=0.0,
            )
