"""A TCP connection endpoint: handshake, data transfer, orderly close.

Implements the RFC 793 paths the workloads exercise, over the simulated
network: active/passive open, in-order data delivery with immediate or
delayed acknowledgements, retransmission with exponential backoff, RTT
estimation per Jacobson's algorithm [Jac88] (the congestion-avoidance
paper this one cites), and four-way close from either side.

Delayed acknowledgements exist because the paper's footnote 2 observes
they "can eliminate the need for the second packet" of the four-packet
TPC/A exchange -- an ablation bench measures exactly that effect on the
server's demultiplexing load.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core.pcb import PCB
from ..packet.builder import Packet
from ..packet.ip import IPv4Header
from ..packet.tcp import TCPFlags, TCPSegment
from .states import SYNCHRONIZED_STATES, TCPState, check_transition

__all__ = ["TCPEndpoint"]

#: Retransmission limits.
_MAX_RETRIES = 8
_MIN_RTO = 0.2
_MAX_RTO = 60.0

#: 2*MSL for TIME_WAIT, scaled down for simulation practicality.
_TIME_WAIT_SECONDS = 1.0


class TCPEndpoint:
    """One endpoint of one connection, owned by a
    :class:`~repro.tcpstack.stack.HostStack`."""

    def __init__(
        self,
        stack,
        pcb: PCB,
        *,
        on_data: Optional[Callable[["TCPEndpoint", bytes], None]] = None,
        on_establish: Optional[Callable[["TCPEndpoint"], None]] = None,
        on_close: Optional[Callable[["TCPEndpoint"], None]] = None,
        delayed_ack: bool = False,
        delayed_ack_timeout: float = 0.2,
    ):
        self._stack = stack
        self.pcb = pcb
        pcb.user_data = self
        self.on_data = on_data
        self.on_establish = on_establish
        self.on_close = on_close
        self._delayed_ack = delayed_ack
        self._delack_timeout = delayed_ack_timeout
        self._delack_event = None
        #: True while inbound data awaits acknowledgement; any outbound
        #: segment carrying ACK clears it (the piggyback).
        self._ack_pending = False
        self._state = TCPState.CLOSED
        pcb.state = self._state.value
        #: (seq, segment, first_sent_at, retransmitted) awaiting ack.
        self._unacked: List[Tuple[int, TCPSegment, float, bool]] = []
        self._retries = 0
        self._rto_event = None
        self._fin_sent = False
        self._fin_acked = False
        self._peer_fin_seen = False
        self.aborted = False

    # -- state -----------------------------------------------------------

    @property
    def state(self) -> TCPState:
        return self._state

    def _set_state(self, target: TCPState) -> None:
        check_transition(self._state, target)
        self._state = target
        self.pcb.state = target.value
        if target is TCPState.ESTABLISHED and self.on_establish:
            self.on_establish(self)
        if target is TCPState.TIME_WAIT:
            reaper = getattr(self._stack, "reaper", None)
            if reaper is not None and reaper.handles_time_wait:
                # The lifecycle reaper owns TIME-WAIT expiry: it sees
                # the state change and arms its (configurable) timer,
                # replacing the fixed per-endpoint 2*MSL event.
                reaper.note_state(self.pcb)
            else:
                self._stack.sim.schedule(
                    _TIME_WAIT_SECONDS, self._enter_closed
                )
        if target is TCPState.CLOSED:
            self._teardown()

    def _enter_closed(self) -> None:
        if self._state is not TCPState.CLOSED:
            self._set_state(TCPState.CLOSED)

    def expire_time_wait(self) -> None:
        """Finish the TIME-WAIT quarantine now (reaper-driven close)."""
        if self._state is TCPState.TIME_WAIT:
            self._enter_closed()

    def _teardown(self) -> None:
        self._cancel_rto()
        self._cancel_delack()
        self._stack.forget(self)
        if self.on_close:
            self.on_close(self)

    # -- opening -----------------------------------------------------------

    def open_active(self) -> None:
        """Client side: send SYN, enter SYN_SENT."""
        if self._state is not TCPState.CLOSED:
            raise ValueError(f"cannot open from {self._state}")
        pcb = self.pcb
        pcb.iss = self._stack.next_iss()
        pcb.snd_una = pcb.iss
        pcb.snd_nxt = pcb.iss
        self._set_state(TCPState.SYN_SENT)
        self._transmit(TCPFlags.SYN, b"", mss=pcb.mss)

    def open_passive(self, syn: Packet) -> None:
        """Server side: a SYN arrived for our listener; answer SYN|ACK."""
        if self._state is not TCPState.CLOSED:
            raise ValueError(f"cannot accept from {self._state}")
        pcb = self.pcb
        pcb.irs = syn.tcp.seq
        pcb.rcv_nxt = (syn.tcp.seq + 1) & 0xFFFFFFFF
        if syn.tcp.mss is not None:
            pcb.mss = min(pcb.mss, syn.tcp.mss)
        pcb.iss = self._stack.next_iss()
        pcb.snd_una = pcb.iss
        pcb.snd_nxt = pcb.iss
        # CLOSED -> LISTEN -> SYN_RCVD is the diagram path; the listener
        # object held the LISTEN state, so step through it.
        self._set_state(TCPState.LISTEN)
        self._set_state(TCPState.SYN_RCVD)
        self._transmit(TCPFlags.SYN | TCPFlags.ACK, b"", mss=pcb.mss)

    # -- sending -----------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Send application data, segmented to the connection MSS."""
        if self._state not in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            raise ValueError(f"cannot send in {self._state}")
        if not data:
            return
        mss = self.pcb.mss
        for start in range(0, len(data), mss):
            self._transmit(
                TCPFlags.ACK | TCPFlags.PSH, data[start : start + mss]
            )

    def close(self) -> None:
        """Orderly close: send FIN."""
        if self._state is TCPState.ESTABLISHED:
            self._set_state(TCPState.FIN_WAIT_1)
        elif self._state is TCPState.CLOSE_WAIT:
            self._set_state(TCPState.LAST_ACK)
        elif self._state in (TCPState.CLOSED, TCPState.LISTEN):
            self._set_state(TCPState.CLOSED)
            return
        else:
            raise ValueError(f"cannot close in {self._state}")
        self._fin_sent = True
        self._transmit(TCPFlags.FIN | TCPFlags.ACK, b"")

    def abort(self) -> None:
        """Send RST and drop the connection immediately."""
        if self._state in SYNCHRONIZED_STATES or self._state is TCPState.SYN_SENT:
            self._emit(TCPFlags.RST | TCPFlags.ACK, b"", track=False)
        self.aborted = True
        if self._state is not TCPState.CLOSED:
            self._set_state(TCPState.CLOSED)

    # -- segment transmission ---------------------------------------------

    def _transmit(self, flags: int, payload: bytes, mss: Optional[int] = None):
        """Send a tracked segment (subject to retransmission)."""
        segment = self._emit(flags, payload, mss=mss, track=True)
        return segment

    def _emit(
        self,
        flags: int,
        payload: bytes,
        *,
        mss: Optional[int] = None,
        track: bool,
    ) -> TCPSegment:
        pcb = self.pcb
        tup = pcb.four_tuple
        segment = TCPSegment(
            src_port=tup.local_port,
            dst_port=tup.remote_port,
            seq=pcb.snd_nxt,
            ack=pcb.rcv_nxt if flags & TCPFlags.ACK else 0,
            flags=flags,
            window=pcb.rcv_wnd,
            payload=payload,
            mss=mss,
        )
        consumed = segment.segment_length
        if consumed:
            pcb.snd_nxt = (pcb.snd_nxt + consumed) & 0xFFFFFFFF
            if track:
                self._unacked.append(
                    (segment.seq, segment, self._stack.sim.now, False)
                )
                self._arm_rto()
        if flags & TCPFlags.ACK:
            self._ack_pending = False
            self._cancel_delack()
        packet = Packet(
            ip=IPv4Header(src=tup.local_addr, dst=tup.remote_addr),
            tcp=segment,
        )
        self._stack.transmit(self, packet)
        return segment

    def _send_pure_ack(self) -> None:
        self._emit(TCPFlags.ACK, b"", track=False)

    def _schedule_ack(self) -> None:
        """Immediate ack, or start the delayed-ack timer."""
        if not self._delayed_ack:
            self._send_pure_ack()
            return
        if self._delack_event is None:
            self._delack_event = self._stack.sim.schedule(
                self._delack_timeout, self._delack_fire
            )

    def _delack_fire(self) -> None:
        self._delack_event = None
        if self._state in SYNCHRONIZED_STATES:
            self._send_pure_ack()

    def _cancel_delack(self) -> None:
        if self._delack_event is not None:
            self._stack.sim.cancel(self._delack_event)
            self._delack_event = None

    # -- retransmission ------------------------------------------------------

    def _arm_rto(self) -> None:
        if self._rto_event is None and self._unacked:
            self._rto_event = self._stack.sim.schedule(
                self.pcb.rto, self._rto_fire
            )

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._stack.sim.cancel(self._rto_event)
            self._rto_event = None

    def _rto_fire(self) -> None:
        self._rto_event = None
        if not self._unacked or self._state is TCPState.CLOSED:
            return
        self._retries += 1
        if self._retries > _MAX_RETRIES:
            self.abort()
            return
        pcb = self.pcb
        pcb.rto = min(pcb.rto * 2.0, _MAX_RTO)
        seq, segment, first_sent, _ = self._unacked[0]
        self._unacked[0] = (seq, segment, first_sent, True)
        tup = pcb.four_tuple
        packet = Packet(
            ip=IPv4Header(src=tup.local_addr, dst=tup.remote_addr), tcp=segment
        )
        self._stack.transmit(self, packet)
        self._arm_rto()

    def _update_rtt(self, sample: float) -> None:
        """Jacobson/Karels srtt + rttvar estimation."""
        pcb = self.pcb
        if pcb.srtt is None:
            pcb.srtt = sample
            pcb.rttvar = sample / 2.0
        else:
            delta = sample - pcb.srtt
            pcb.srtt += delta / 8.0
            pcb.rttvar += (abs(delta) - pcb.rttvar) / 4.0
        pcb.rto = min(max(pcb.srtt + 4.0 * pcb.rttvar, _MIN_RTO), _MAX_RTO)

    def _process_ack(self, ack: int) -> None:
        pcb = self.pcb
        if not _seq_gt(ack, pcb.snd_una):
            return
        pcb.snd_una = ack
        now = self._stack.sim.now
        while self._unacked:
            seq, segment, first_sent, retransmitted = self._unacked[0]
            end = (seq + segment.segment_length) & 0xFFFFFFFF
            if _seq_leq(end, ack):
                self._unacked.pop(0)
                if not retransmitted:  # Karn's rule
                    self._update_rtt(now - first_sent)
            else:
                break
        self._retries = 0
        self._cancel_rto()
        self._arm_rto()
        if self._fin_sent and not self._unacked:
            self._fin_acked = True

    # -- receiving -----------------------------------------------------------

    def handle(self, packet: Packet) -> None:
        """Process an inbound segment already demultiplexed to us."""
        segment = packet.tcp
        if segment.is_rst:
            self._handle_rst()
            return
        handler = {
            TCPState.SYN_SENT: self._handle_syn_sent,
            TCPState.SYN_RCVD: self._handle_syn_rcvd,
            TCPState.ESTABLISHED: self._handle_synchronized,
            TCPState.FIN_WAIT_1: self._handle_synchronized,
            TCPState.FIN_WAIT_2: self._handle_synchronized,
            TCPState.CLOSE_WAIT: self._handle_synchronized,
            TCPState.CLOSING: self._handle_synchronized,
            TCPState.LAST_ACK: self._handle_synchronized,
            TCPState.TIME_WAIT: self._handle_time_wait,
        }.get(self._state)
        if handler is None:
            return
        handler(segment)

    def _handle_rst(self) -> None:
        self.aborted = True
        if self._state is not TCPState.CLOSED:
            self._set_state(TCPState.CLOSED)

    def _handle_syn_sent(self, segment: TCPSegment) -> None:
        if not segment.is_syn:
            return
        pcb = self.pcb
        pcb.irs = segment.seq
        pcb.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
        if segment.mss is not None:
            pcb.mss = min(pcb.mss, segment.mss)
        if segment.is_ack:
            self._process_ack(segment.ack)
            self._set_state(TCPState.ESTABLISHED)
            self._send_pure_ack()
        else:  # simultaneous open
            self._set_state(TCPState.SYN_RCVD)
            self._send_pure_ack()

    def _handle_syn_rcvd(self, segment: TCPSegment) -> None:
        if segment.is_syn and not segment.is_ack:
            # Duplicate SYN: retransmission path will re-answer.
            return
        if segment.is_ack:
            self._process_ack(segment.ack)
            if _seq_gt(self.pcb.snd_una, self.pcb.iss):
                self._set_state(TCPState.ESTABLISHED)
                # The handshake ACK may carry data; fall through.
                if segment.payload or segment.is_fin:
                    self._handle_synchronized(segment)

    def _handle_synchronized(self, segment: TCPSegment) -> None:
        pcb = self.pcb
        if segment.is_ack:
            self._process_ack(segment.ack)
            self._maybe_advance_close_states()
        if segment.payload:
            if segment.seq == pcb.rcv_nxt:
                pcb.rcv_nxt = (pcb.rcv_nxt + len(segment.payload)) & 0xFFFFFFFF
                pcb.note_receive(len(segment.payload))
                if self._delayed_ack:
                    # Let the application respond first; only if nothing
                    # it sent carried the ack do we arm the delack timer
                    # (the footnote-2 piggyback).
                    self._ack_pending = True
                    if self.on_data:
                        self.on_data(self, segment.payload)
                    if self._ack_pending:
                        self._schedule_ack()
                else:
                    # BSD ACKNOW ordering: the ack leaves at input
                    # processing time, before the application runs.
                    self._send_pure_ack()
                    if self.on_data:
                        self.on_data(self, segment.payload)
            elif _seq_gt(pcb.rcv_nxt, segment.seq):
                # Duplicate data (retransmission we already have): re-ack.
                self._send_pure_ack()
            else:
                # Out-of-order: this FIFO network should never produce it.
                self._stack.count_out_of_order()
                self._send_pure_ack()
        if segment.is_fin and not self._peer_fin_seen:
            expected = segment.seq
            if segment.payload:
                expected = (segment.seq + len(segment.payload)) & 0xFFFFFFFF
            if expected == pcb.rcv_nxt:
                self._peer_fin_seen = True
                pcb.rcv_nxt = (pcb.rcv_nxt + 1) & 0xFFFFFFFF
                self._send_pure_ack()
                self._advance_on_peer_fin()

    def _advance_on_peer_fin(self) -> None:
        if self._state is TCPState.ESTABLISHED:
            self._set_state(TCPState.CLOSE_WAIT)
        elif self._state is TCPState.FIN_WAIT_1:
            if self._fin_acked:
                self._set_state(TCPState.TIME_WAIT)
            else:
                self._set_state(TCPState.CLOSING)
        elif self._state is TCPState.FIN_WAIT_2:
            self._set_state(TCPState.TIME_WAIT)

    def _maybe_advance_close_states(self) -> None:
        if not self._fin_acked:
            return
        if self._state is TCPState.FIN_WAIT_1:
            if self._peer_fin_seen:
                self._set_state(TCPState.TIME_WAIT)
            else:
                self._set_state(TCPState.FIN_WAIT_2)
        elif self._state is TCPState.CLOSING:
            self._set_state(TCPState.TIME_WAIT)
        elif self._state is TCPState.LAST_ACK:
            self._set_state(TCPState.CLOSED)

    def _handle_time_wait(self, segment: TCPSegment) -> None:
        if segment.is_fin:
            self._send_pure_ack()  # peer missed our last ack

    def __repr__(self) -> str:
        return f"<TCPEndpoint {self.pcb.four_tuple} {self._state}>"


def _seq_gt(a: int, b: int) -> bool:
    """Serial-number arithmetic: a > b modulo 2^32."""
    diff = (a - b) & 0xFFFFFFFF
    return diff != 0 and diff < 0x80000000


def _seq_leq(a: int, b: int) -> bool:
    return a == b or _seq_gt(b, a)
