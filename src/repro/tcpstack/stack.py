"""The host TCP stack: the inbound path the paper measures.

A :class:`HostStack` owns one IP address, one PCB table (with a
pluggable demultiplexing algorithm -- the paper's variable), and the
endpoints of its connections.  Its :meth:`deliver` method is the code
path the whole reproduction is about:

1. classify the inbound segment (data vs. pure transport-level ack);
2. run the demux algorithm's cost-accounted PCB lookup;
3. on a miss, consult the listener table (SYNs for new connections);
4. hand the segment to the endpoint state machine.

Outbound packets update the algorithm's send-side knowledge
(:meth:`~repro.core.base.DemuxAlgorithm.note_send`), which is what the
Partridge/Pink cache keys on.

Robustness contract (exercised by :mod:`repro.faults`): ``deliver``
never lets a parsing error escape into the simulator event loop.  Raw
bytes that fail IP/TCP parsing or checksum verification are counted
and dropped, and every drop is classified into a small taxonomy
(:data:`DROP_REASONS`) that :meth:`HostStack.metrics` reports to the
observability registry.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Union

from ..core.base import DemuxAlgorithm
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..lifecycle.reaper import ConnectionReaper
from ..packet.addresses import FourTuple, IPv4Address
from ..packet.builder import Packet, parse_packet
from ..packet.ip import IPv4Header, PacketError
from ..packet.tcp import TCPFlags, TCPSegment
from ..sim.engine import Simulator
from ..sim.network import Network
from .endpoint import TCPEndpoint
from .listener import Listener
from .pcb_table import PCBTable
from .states import TCPState

__all__ = ["DROP_REASONS", "DROPS_FAMILY", "HostStack", "packet_families"]

_EPHEMERAL_BASE = 49152

#: The inbound drop taxonomy.  "corrupt": bytes that failed parsing or
#: checksum; "no-listener": SYN with no (or refusing) listener;
#: "table-full": SYN shed because the bounded PCB table was at
#: capacity; "bad-state": non-SYN segment matching no connection.
DROP_REASONS = ("corrupt", "no-listener", "table-full", "bad-state")

#: ``packet_drops_total``'s name, type and help: the drop taxonomy,
#: which the fault injector's ``reason="injected-loss"`` joins so one
#: metric answers "where did my packets go?".
DROPS_FAMILY = (
    "packet_drops_total", "counter",
    "inbound packets dropped, by taxonomy reason",
)


def packet_families(
    drops: Dict[str, int], received: int, **labels: str
) -> List[tuple]:
    """``packet_drops_total`` by reason and ``packets_received_total``,
    each sample carrying ``labels``: the pair the watchdog's drop-rate
    rule divides."""
    return [
        DROPS_FAMILY + ([
            ({**labels, "reason": reason}, count)
            for reason, count in drops.items()
        ],),
        ("packets_received_total", "counter",
         "inbound packets accepted by the stack", [(labels, received)]),
    ]


class HostStack:
    """One simulated host's TCP implementation."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: Union[str, IPv4Address],
        algorithm: DemuxAlgorithm,
        *,
        mss: int = 536,
        delayed_ack: bool = False,
        max_connections: Optional[int] = None,
        overflow_policy: str = "reject-new",
        idle_timeout: Optional[float] = None,
        time_wait_timeout: Optional[float] = None,
        reap_interval: Optional[float] = None,
        spans: Optional[object] = None,
    ):
        self.sim = sim
        self.network = network
        self._address = IPv4Address(address)
        self.table = PCBTable(
            algorithm,
            max_connections=max_connections,
            overflow_policy=overflow_policy,
        )
        #: Optional :class:`repro.obs.SpanCollector`: ``deliver`` opens
        #: one packet context per inbound segment, the demux lookup and
        #: drop taxonomy add stages inside it, and reaper evictions are
        #: recorded as standalone ``reap`` spans.  Attaching here also
        #: hooks the demux algorithm and binds the virtual clock.
        self.spans = spans
        if spans is not None:
            algorithm.spans = spans
            if spans.clock is None:
                spans.clock = lambda: self.sim.now
        self._mss = mss
        self._delayed_ack = delayed_ack
        self._iss_counter = itertools.count(1000, 64000)
        self._port_counter = itertools.count(_EPHEMERAL_BASE)
        # Inbound-path counters.
        self.packets_received = 0
        self.packets_sent = 0
        self.demux_misses_to_listener = 0
        self.demux_drops = 0
        self.resets_sent = 0
        self.out_of_order = 0
        #: Inbound drops classified by :data:`DROP_REASONS`.
        self.drops = {reason: 0 for reason in DROP_REASONS}
        #: Connections evicted by the lifecycle reaper, by reason.
        self.reaped = {"idle": 0, "time-wait": 0}
        #: Lifecycle reaper, or ``None`` when no timeout is configured.
        self.reaper: Optional[ConnectionReaper] = None
        if idle_timeout is not None or time_wait_timeout is not None:
            self.reaper = ConnectionReaper(
                self.table.algorithm,
                idle_timeout=idle_timeout,
                time_wait=time_wait_timeout,
                on_reap=self._reap_connection,
                clock=lambda: self.sim.now,
            )
            shortest = min(
                value
                for value in (idle_timeout, time_wait_timeout)
                if value is not None
            )
            self._reap_interval = (
                reap_interval if reap_interval is not None
                else max(shortest / 4.0, 4 * self.reaper.wheel.tick)
            )
            # NOTE: the periodic tick keeps the simulator's event queue
            # non-empty, so lifecycle-enabled runs must use
            # ``sim.run(until=...)``, never a bare drain-the-queue run.
            self.sim.schedule(self._reap_interval, self._reap_tick)
        network.attach(self)

    # -- Host protocol ------------------------------------------------------

    @property
    def address(self) -> IPv4Address:
        return self._address

    @property
    def demux(self) -> DemuxAlgorithm:
        """The pluggable PCB-lookup algorithm under study."""
        return self.table.algorithm

    def drop(self, reason: str) -> None:
        """Count one inbound drop under the given taxonomy reason."""
        if reason not in self.drops:
            raise ValueError(f"unknown drop reason {reason!r}")
        self.drops[reason] += 1
        if self.spans is not None:
            # Attaches to the current packet's span, if one is open and
            # sampled; corrupt drops happen before any context exists
            # (no four-tuple is known) and are a collector no-op.
            self.spans.stage("drop", reason=reason)

    def deliver(self, packet: Union[Packet, bytes, bytearray, memoryview]) -> None:
        """The inbound path: demultiplex, then run the state machine.

        Accepts either an in-memory :class:`Packet` (the fast path the
        simulations use) or raw bytes off the wire, which are parsed
        with full checksum verification.  Malformed or corrupted bytes
        are counted (``drops["corrupt"]``) and dropped -- a
        ``PacketError`` never propagates into the simulator event loop.
        """
        self.packets_received += 1
        if isinstance(packet, (bytes, bytearray, memoryview)):
            try:
                packet = parse_packet(bytes(packet))
            except PacketError:
                self.drop("corrupt")
                return
        segment = packet.tcp
        kind = PacketKind.ACK if segment.is_pure_ack else PacketKind.DATA
        tup = packet.four_tuple
        spans = self.spans
        if spans is None:
            self._deliver_segment(packet, segment, tup, kind)
            return
        spans.open_packet(tup, kind, owner="stack")
        try:
            self._deliver_segment(packet, segment, tup, kind)
        finally:
            spans.close_packet("stack")

    def _deliver_segment(
        self, packet: Packet, segment: TCPSegment, tup: FourTuple,
        kind: PacketKind,
    ) -> None:
        """Demux and dispatch one parsed segment (span context open)."""
        result = self.table.lookup(tup, kind)
        if result.found:
            endpoint = result.pcb.user_data
            if isinstance(endpoint, TCPEndpoint):
                if self.spans is not None:
                    self.spans.stage("deliver", target="endpoint")
                endpoint.handle(packet)
            return
        # No established connection: a SYN may create one.
        if segment.is_syn and not segment.is_ack:
            self._handle_listener_syn(packet, tup)
            return
        self.demux_drops += 1
        self.drop("bad-state")
        if not segment.is_rst:
            self._send_reset(packet)

    # -- passive open ------------------------------------------------------

    def _handle_listener_syn(self, packet: Packet, tup: FourTuple) -> None:
        listener = self.table.find_listener(tup.local_addr, tup.local_port)
        if listener is None:
            self.demux_drops += 1
            self.drop("no-listener")
            self._send_reset(packet)
            return
        if self.table.is_full and not self._make_room():
            # Shed the SYN silently (no RST): under a SYN flood an
            # answer per refused SYN would double the attack's cost.
            self.demux_drops += 1
            self.drop("table-full")
            return
        if not listener.admit():
            self.demux_drops += 1
            self.drop("no-listener")
            self._send_reset(packet)
            return
        self.demux_misses_to_listener += 1
        if self.spans is not None:
            self.spans.stage("deliver", target="listener")
        pcb = PCB(tup, mss=self._mss)

        def on_establish(endpoint: TCPEndpoint) -> None:
            listener.established(endpoint)

        def on_close(endpoint: TCPEndpoint) -> None:
            if endpoint.state is not TCPState.ESTABLISHED and endpoint.aborted:
                listener.handshake_failed()
            self._close_callback(listener, endpoint)

        endpoint = TCPEndpoint(
            self,
            pcb,
            on_data=listener.on_data,
            on_establish=on_establish,
            on_close=on_close,
            delayed_ack=self._delayed_ack,
        )
        self.table.insert(pcb)
        endpoint.open_passive(packet)

    @staticmethod
    def _close_callback(listener: Listener, endpoint: TCPEndpoint) -> None:
        if listener.on_close:
            listener.on_close(endpoint)

    def _make_room(self) -> bool:
        """Try to free one table slot for a new connection.

        Under ``evict-oldest-embryonic``, the oldest handshake-phase
        connection is aborted (RST to its peer, timers cancelled, PCB
        removed via the normal teardown path).  Established connections
        are never evicted.  Returns True if a slot is now free.
        """
        if self.table.overflow_policy != "evict-oldest-embryonic":
            return False
        victim = self.table.embryonic_victim()
        if victim is None:
            return False
        self.table.embryonic_evictions += 1
        endpoint = victim.user_data
        if isinstance(endpoint, TCPEndpoint):
            endpoint.abort()  # teardown removes the PCB via forget()
        else:
            self.table.remove(victim.four_tuple)
        return not self.table.is_full

    def listen(
        self,
        port: int,
        *,
        address: Optional[IPv4Address] = None,
        on_accept: Optional[Callable[[TCPEndpoint], None]] = None,
        on_data: Optional[Callable[[TCPEndpoint, bytes], None]] = None,
        on_close: Optional[Callable[[TCPEndpoint], None]] = None,
        backlog: int = 0,
    ) -> Listener:
        """Open a passive socket; returns the :class:`Listener`."""
        listener = Listener(
            self,
            port,
            address=address,
            on_accept=on_accept,
            on_data=on_data,
            on_close=on_close,
            backlog=backlog,
        )
        self.table.add_listener(port, listener, address)
        return listener

    # -- active open ---------------------------------------------------------

    def connect(
        self,
        remote_addr: Union[str, IPv4Address],
        remote_port: int,
        *,
        local_port: Optional[int] = None,
        on_data: Optional[Callable[[TCPEndpoint, bytes], None]] = None,
        on_establish: Optional[Callable[[TCPEndpoint], None]] = None,
        on_close: Optional[Callable[[TCPEndpoint], None]] = None,
    ) -> TCPEndpoint:
        """Open a connection; the returned endpoint is in SYN_SENT."""
        tup = FourTuple.create(
            self._address,
            self.allocate_port() if local_port is None else local_port,
            IPv4Address(remote_addr),
            remote_port,
        )
        pcb = PCB(tup, mss=self._mss)
        endpoint = TCPEndpoint(
            self,
            pcb,
            on_data=on_data,
            on_establish=on_establish,
            on_close=on_close,
            delayed_ack=self._delayed_ack,
        )
        self.table.insert(pcb)
        endpoint.open_active()
        return endpoint

    def allocate_port(self) -> int:
        """Next ephemeral port (wraps back to the base at 65535)."""
        port = next(self._port_counter)
        if port > 0xFFFF:
            self._port_counter = itertools.count(_EPHEMERAL_BASE)
            port = next(self._port_counter)
        return port

    def next_iss(self) -> int:
        """Deterministic initial send sequence (RFC-793-style clock)."""
        return next(self._iss_counter) & 0xFFFFFFFF

    # -- outbound and bookkeeping -------------------------------------------

    def transmit(self, endpoint: TCPEndpoint, packet: Packet) -> None:
        """Send an endpoint's packet; updates send-side demux state."""
        self.packets_sent += 1
        endpoint.pcb.note_send(len(packet.tcp.payload))
        self.table.note_send(endpoint.pcb)
        self.network.send(packet)

    def _send_reset(self, offending: Packet) -> None:
        """RST for a segment with no home (RFC 793 rules, simplified)."""
        self.resets_sent += 1
        seg = offending.tcp
        if seg.is_ack:
            seq, ack, flags = seg.ack, 0, TCPFlags.RST
        else:
            seq = 0
            ack = (seg.seq + seg.segment_length) & 0xFFFFFFFF
            flags = TCPFlags.RST | TCPFlags.ACK
        reset = TCPSegment(
            src_port=seg.dst_port,
            dst_port=seg.src_port,
            seq=seq,
            ack=ack,
            flags=flags,
        )
        packet = Packet(
            ip=IPv4Header(src=offending.ip.dst, dst=offending.ip.src), tcp=reset
        )
        self.packets_sent += 1
        self.network.send(packet)

    def forget(self, endpoint: TCPEndpoint) -> None:
        """Remove a closed endpoint's PCB from the demux table."""
        tup = endpoint.pcb.four_tuple
        try:
            self.table.remove(tup)
        except KeyError:
            pass  # already removed (abort during teardown)

    # -- connection lifecycle (reaper-driven) -------------------------------

    def _reap_tick(self) -> None:
        self.reaper.advance(self.sim.now)
        self.sim.schedule(self._reap_interval, self._reap_tick)

    def _reap_connection(self, pcb: PCB, reason: str) -> None:
        """The reaper decided ``pcb`` must go; tear it down properly.

        TIME-WAIT connections finish their quarantine through the
        normal close path; everything else is aborted (RST to the
        peer, timers cancelled) so idle eviction is visible on the
        wire, as a real stack's keepalive failure would be.
        """
        self.reaped[reason] += 1
        if self.spans is not None:
            self.spans.note_reap(pcb.four_tuple, reason)
        endpoint = pcb.user_data
        if isinstance(endpoint, TCPEndpoint):
            if endpoint.state is TCPState.TIME_WAIT:
                endpoint.expire_time_wait()
            else:
                endpoint.abort()  # teardown removes the PCB via forget()
        else:
            try:
                self.table.remove(pcb.four_tuple)
            except KeyError:
                pass

    def count_out_of_order(self) -> None:
        self.out_of_order += 1

    def metrics(self) -> List[tuple]:
        """Drops, accepted packets and bounded-table pressure, labelled
        ``host=`` this stack's address."""
        host = {"host": str(self._address)}
        table = self.table
        return packet_families(self.drops, self.packets_received, **host) + [
            ("pcb_overflow_rejections_total", "counter",
             "connection attempts refused by a full bounded PCB table",
             [(host, table.overflow_rejections)]),
            ("pcb_embryonic_evictions_total", "counter",
             "embryonic connections evicted to admit new ones",
             [(host, table.embryonic_evictions)]),
            ("pcb_table_size", "gauge",
             "current established-connection PCB count",
             [(host, len(table))]),
        ]

    def __repr__(self) -> str:
        return (
            f"<HostStack {self._address} {self.demux.name}"
            f" pcbs={len(self.table)}>"
        )
