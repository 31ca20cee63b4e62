"""Tests for the host stack's inbound path (the paper's code path)."""

from repro.core.bsd import BSDDemux
from repro.core.sendrecv import SendRecvDemux
from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.obs.trace import RingBufferSink, Tracer
from repro.packet.addresses import FourTuple
from repro.packet.builder import make_ack, make_data
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.tcpstack.stack import HostStack


def build(algorithm=None):
    sim = Simulator()
    net = Network(sim, default_delay=0.0005)
    # Note: empty demux structures are falsy (len() == 0), so an
    # ``algorithm or BSDDemux()`` default would silently discard them.
    if algorithm is None:
        algorithm = BSDDemux()
    server = HostStack(sim, net, "10.0.0.1", algorithm)
    client = HostStack(sim, net, "10.0.1.1", BSDDemux())
    return sim, net, server, client


class TestDemuxPath:
    def test_every_inbound_packet_runs_one_lookup(self):
        sim, net, server, client = build()
        server.listen(80, on_data=lambda ep, data: None)
        client.connect("10.0.0.1", 80, on_establish=lambda e: e.send(b"q"))
        sim.run(until=1.0)
        assert server.demux.stats.lookups == server.packets_received

    def test_packet_kind_classification(self):
        """Data segments count as DATA, pure acks as ACK."""
        sim, net, server, client = build()
        server.listen(80, on_data=lambda ep, data: ep.send(b"r"))
        client.connect("10.0.0.1", 80, on_establish=lambda e: e.send(b"q"))
        sim.run(until=1.0)
        stats = server.demux.stats
        # Server inbound: SYN (data), handshake-ack (ack), query (data),
        # client's ack of the response (ack).
        assert stats.kind(PacketKind.DATA).lookups == 2
        assert stats.kind(PacketKind.ACK).lookups == 2

    def test_syn_misses_then_creates_connection(self):
        sim, net, server, client = build()
        server.listen(80)
        client.connect("10.0.0.1", 80)
        sim.run(until=1.0)
        assert server.demux_misses_to_listener == 1
        assert len(server.table) == 1

    def test_stray_segment_gets_reset(self):
        sim, net, server, client = build()
        tup = FourTuple.create("10.0.0.1", 80, "10.0.1.1", 45000)
        net.send(make_data(tup, b"stray", seq=1, ack=1))
        sim.run(until=1.0)
        assert server.demux_drops == 1
        assert server.resets_sent == 1

    def test_stray_pure_ack_gets_reset_without_loop(self):
        sim, net, server, client = build()
        tup = FourTuple.create("10.0.0.1", 80, "10.0.1.1", 45000)
        net.send(make_ack(tup, seq=7, ack=9))
        sim.run(until=1.0)
        assert server.resets_sent == 1
        # The RST to the client must not bounce back as another RST
        # storm: the client sends nothing in response to a RST for an
        # unknown connection... (client drops it, one reset total).
        assert server.packets_sent == 1

    def test_syn_to_unbound_port_reset(self):
        sim, net, server, client = build()
        client.connect("10.0.0.1", 81)  # nobody listening
        sim.run(until=1.0)
        assert server.resets_sent == 1
        assert len(server.table) == 0

    def test_note_send_reaches_algorithm(self):
        algo = SendRecvDemux()
        sim, net, server, client = build(algorithm=algo)
        server.listen(80, on_data=lambda ep, data: None)
        client.connect("10.0.0.1", 80, on_establish=lambda e: e.send(b"q"))
        sim.run(until=1.0)
        assert algo.send_cached_pcb is not None

    def test_pluggable_algorithm(self):
        algo = SequentDemux(5)
        sim, net, server, client = build(algorithm=algo)
        server.listen(80)
        client.connect("10.0.0.1", 80)
        sim.run(until=1.0)
        assert server.demux is algo
        assert len(algo) == 1


class TestPortAllocation:
    def test_ephemeral_ports_distinct(self):
        sim, net, server, client = build()
        ports = {client.allocate_port() for _ in range(100)}
        assert len(ports) == 100
        assert all(p >= 49152 for p in ports)

    def test_port_wraparound(self):
        sim, net, server, client = build()
        client._port_counter = iter(range(65534, 65537))
        imported = [client.allocate_port() for _ in range(3)]
        assert imported[0] == 65534
        assert imported[1] == 65535
        assert imported[2] == 49152  # wrapped

    def test_iss_distinct_per_connection(self):
        sim, net, server, client = build()
        assert client.next_iss() != client.next_iss()


class TestTracing:
    def test_demux_events_traced(self):
        sim, net, server, client = build()
        sink = RingBufferSink()
        server.demux.tracer = Tracer(sink)
        server.listen(80)
        client.connect("10.0.0.1", 80)
        sim.run(until=1.0)
        lookups = [event for event in sink.events if event.kind == "lookup"]
        assert len(lookups) == server.packets_received > 0

    def test_repr(self):
        sim, net, server, client = build()
        assert "10.0.0.1" in repr(server)
        assert "bsd" in repr(server)
