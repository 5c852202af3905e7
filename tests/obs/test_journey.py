"""Cell-journey tracing: per-hop causal records for traced cells."""

from repro.obs.trace import Tracer

from tests.conftest import converged_line


def _journey_records(tracer):
    return [r for r in tracer.records if r.category == "journey"]


def _run_traffic(net, tracer, packets=4):
    net.sim.tracer = tracer
    circuit = net.setup_circuit("h0", "h1")
    host = net.host("h0")
    from repro.net.packet import Packet

    for k in range(packets):
        host.send_packet(
            circuit.vc,
            Packet(
                source=host.node_id,
                destination=host.senders[circuit.vc].destination,
                payload=bytes(120),
            ),
        )
        net.run(2_000.0)
    net.run(20_000.0)
    return circuit


def test_journey_records_full_path():
    net = converged_line(3)
    tracer = Tracer()
    _run_traffic(net, tracer, packets=2)
    records = _journey_records(tracer)
    assert records, "no journey records captured"
    stages = {r.name for r in records}
    # the full host -> switch -> link -> host story, every stage present
    assert {"segment", "tx", "wire.arrive", "voq.enqueue", "grant",
            "deliver", "packet.done"} <= stages
    # every packet traced, every delivered packet reassembled
    assert len({r.payload["packet"] for r in records}) == 2
    assert len(net.host("h1").delivered) == 2


def test_journey_hop_counter_gives_causal_order():
    net = converged_line(3)
    tracer = Tracer()
    _run_traffic(net, tracer, packets=1)
    by_cell = {}
    for record in _journey_records(tracer):
        by_cell.setdefault(record.payload["cell"], []).append(record)
    assert by_cell
    for cell, records in by_cell.items():
        hops = [r.payload["hop"] for r in records]
        assert hops == sorted(hops), f"cell {cell} hops out of order"
        assert hops == list(range(1, len(hops) + 1))
        times = [r.time for r in records]
        assert times == sorted(times)
        # first hop is segmentation, last is delivery or packet completion
        assert records[0].name == "segment"
        assert records[-1].name in ("deliver", "packet.done")


def test_journey_disabled_category_attaches_nothing():
    net = converged_line(3)
    tracer = Tracer(categories=["reconfig"])  # journey NOT enabled
    _run_traffic(net, tracer, packets=2)
    assert not _journey_records(tracer)
    assert len(net.host("h1").delivered) == 2
