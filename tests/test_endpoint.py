"""Tests for the TCP endpoint state machine, driven over a real network.

Each test builds two HostStacks on a simulated LAN and observes the
endpoints' behaviour -- handshakes, data, retransmission, close.
"""

import pytest

from repro.core.bsd import BSDDemux
from repro.faults.injector import FaultInjector, FaultyLink
from repro.faults.models import IIDLoss
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.tcpstack.stack import HostStack
from repro.tcpstack.states import TCPState


class Pair:
    """A client and a server stack on one network."""

    def __init__(self, *, loss_rate=0.0, delay=0.0005, seed=1):
        self.sim = Simulator()
        self.net = Network(self.sim, default_delay=delay)
        self.server = HostStack(self.sim, self.net, "10.0.0.1", BSDDemux())
        if loss_rate:
            # Lossy path toward the client only (acks/data to client drop).
            self.client = HostStack.__new__(HostStack)
            HostStack.__init__(
                self.client, self.sim, self.net, "10.0.1.1", BSDDemux()
            )
            self.net.detach("10.0.1.1")
            injector = FaultInjector(self.sim, [IIDLoss(loss_rate)], seed=seed)
            lossy = FaultyLink(self.sim, delay, injector=injector)
            self.net.attach(self.client, lossy)
        else:
            self.client = HostStack(self.sim, self.net, "10.0.1.1", BSDDemux())


def test_three_way_handshake():
    pair = Pair()
    accepted = []
    pair.server.listen(80, on_accept=accepted.append)
    ep = pair.client.connect("10.0.0.1", 80)
    assert ep.state is TCPState.SYN_SENT
    pair.sim.run(until=1.0)
    assert ep.state is TCPState.ESTABLISHED
    assert len(accepted) == 1
    assert accepted[0].state is TCPState.ESTABLISHED
    # Both sides installed exactly one PCB.
    assert len(pair.server.table) == 1
    assert len(pair.client.table) == 1


def test_mss_negotiated_to_minimum():
    pair = Pair()
    pair.server._mss = 1460
    pair.client._mss = 536
    accepted = []
    pair.server.listen(80, on_accept=accepted.append)
    ep = pair.client.connect("10.0.0.1", 80)
    pair.sim.run(until=1.0)
    assert accepted[0].pcb.mss == 536
    assert ep.pcb.mss <= 536


def test_data_transfer_both_directions():
    pair = Pair()
    server_rx, client_rx = [], []
    pair.server.listen(
        80,
        on_data=lambda ep, data: (server_rx.append(data), ep.send(b"pong")),
    )
    ep = pair.client.connect(
        "10.0.0.1", 80,
        on_data=lambda e, data: client_rx.append(data),
        on_establish=lambda e: e.send(b"ping"),
    )
    pair.sim.run(until=2.0)
    assert server_rx == [b"ping"]
    assert client_rx == [b"pong"]
    assert ep.pcb.bytes_out == 4
    assert ep.pcb.bytes_in == 4


def test_large_send_segmented_by_mss():
    pair = Pair()
    received = []
    pair.server.listen(80, on_data=lambda ep, data: received.append(data))
    payload = bytes(range(256)) * 10  # 2560 bytes, MSS 536 -> 5 segments
    pair.client.connect(
        "10.0.0.1", 80, on_establish=lambda e: e.send(payload)
    )
    pair.sim.run(until=2.0)
    assert b"".join(received) == payload
    assert len(received) == 5
    assert all(len(chunk) <= 536 for chunk in received)


def test_sequence_numbers_advance():
    pair = Pair()
    pair.server.listen(80)
    ep = pair.client.connect("10.0.0.1", 80)
    pair.sim.run(until=1.0)
    start = ep.pcb.snd_nxt
    ep.send(b"12345")
    pair.sim.run(until=2.0)
    assert ep.pcb.snd_nxt == (start + 5) & 0xFFFFFFFF
    assert ep.pcb.snd_una == ep.pcb.snd_nxt  # fully acked


def test_orderly_close_from_client():
    pair = Pair()
    server_eps = []
    pair.server.listen(
        80,
        on_accept=server_eps.append,
        on_data=lambda ep, data: None,
    )
    ep = pair.client.connect("10.0.0.1", 80)
    pair.sim.run(until=1.0)
    ep.close()
    pair.sim.run(until=1.5)
    # Server saw the FIN: CLOSE_WAIT until the app closes.
    assert server_eps[0].state is TCPState.CLOSE_WAIT
    server_eps[0].close()
    pair.sim.run(until=5.0)  # covers TIME_WAIT
    assert ep.state is TCPState.CLOSED
    assert server_eps[0].state is TCPState.CLOSED
    # PCBs removed from both demux tables.
    assert len(pair.server.table) == 0
    assert len(pair.client.table) == 0


def test_close_callback_fires():
    pair = Pair()
    closed = []
    pair.server.listen(80, on_data=lambda ep, data: None)
    ep = pair.client.connect("10.0.0.1", 80, on_close=closed.append)
    pair.sim.run(until=1.0)
    ep.close()
    pair.sim.run(until=1.5)
    # Server never closes its side, so the client sits in FIN_WAIT_2 --
    # not closed, and the close callback must not have fired.
    assert closed == []
    assert ep.state is TCPState.FIN_WAIT_2


def test_abort_sends_rst_and_peer_drops():
    pair = Pair()
    server_eps = []
    pair.server.listen(80, on_accept=server_eps.append)
    ep = pair.client.connect("10.0.0.1", 80)
    pair.sim.run(until=1.0)
    ep.abort()
    assert ep.state is TCPState.CLOSED
    assert ep.aborted
    pair.sim.run(until=2.0)
    assert server_eps[0].state is TCPState.CLOSED
    assert server_eps[0].aborted
    assert len(pair.server.table) == 0


def test_retransmission_recovers_from_loss():
    pair = Pair(loss_rate=0.35, seed=11)
    client_rx = []
    pair.server.listen(
        80, on_data=lambda ep, data: ep.send(b"response")
    )
    ep = pair.client.connect(
        "10.0.0.1", 80,
        on_data=lambda e, data: client_rx.append(data),
        on_establish=lambda e: e.send(b"query"),
    )
    pair.sim.run(until=60.0)
    assert ep.state is TCPState.ESTABLISHED
    assert client_rx and client_rx[0] == b"response"


def test_rtt_estimation_converges():
    pair = Pair(delay=0.05)  # 100 ms RTT
    pair.server.listen(80, on_data=lambda ep, data: None)
    ep = pair.client.connect("10.0.0.1", 80)
    pair.sim.run(until=1.0)
    for i in range(10):
        pair.sim.schedule(i * 0.5, ep.send, b"x")
    pair.sim.run(until=10.0)
    assert ep.pcb.srtt == pytest.approx(0.1, rel=0.2)
    assert ep.pcb.rto >= 0.1


def test_send_in_wrong_state_rejected():
    pair = Pair()
    pair.server.listen(80)
    ep = pair.client.connect("10.0.0.1", 80)
    with pytest.raises(ValueError, match="cannot send"):
        ep.send(b"too early")  # still SYN_SENT


def test_empty_send_is_noop():
    pair = Pair()
    pair.server.listen(80)
    ep = pair.client.connect("10.0.0.1", 80)
    pair.sim.run(until=1.0)
    sent_before = pair.client.packets_sent
    ep.send(b"")
    pair.sim.run(until=1.5)
    assert pair.client.packets_sent == sent_before


def test_duplicate_data_reacked_not_redelivered():
    pair = Pair()
    received = []
    server_eps = []
    pair.server.listen(
        80, on_accept=server_eps.append,
        on_data=lambda ep, data: received.append(data),
    )
    ep = pair.client.connect("10.0.0.1", 80)
    pair.sim.run(until=1.0)
    ep.send(b"hello")
    pair.sim.run(until=2.0)
    # Force a duplicate by replaying the same segment.
    from repro.packet.builder import make_data

    dup = make_data(
        server_eps[0].pcb.four_tuple, b"hello",
        seq=(ep.pcb.snd_nxt - 5) & 0xFFFFFFFF, ack=server_eps[0].pcb.snd_nxt,
    )
    pair.net.send(dup)
    pair.sim.run(until=3.0)
    assert received == [b"hello"]  # delivered exactly once


def test_delayed_ack_piggybacks_on_response():
    """With delayed acks, an immediate response means the server sends
    no separate pure ack -- footnote 2's 4-to-3 packet reduction."""

    def run(delayed):
        sim = Simulator()
        net = Network(sim, default_delay=0.0005)
        server = HostStack(
            sim, net, "10.0.0.1", BSDDemux(), delayed_ack=delayed
        )
        client = HostStack(sim, net, "10.0.1.1", BSDDemux())
        server.listen(80, on_data=lambda ep, data: ep.send(b"resp"))
        client.connect(
            "10.0.0.1", 80, on_establish=lambda e: e.send(b"query")
        )
        sim.run(until=5.0)
        return server.packets_sent

    # Immediate acks: SYN|ACK + query-ack + response = 3 packets.
    # Delayed acks: the response carries the ack -> 2 packets.
    assert run(delayed=False) == 3
    assert run(delayed=True) == 2
