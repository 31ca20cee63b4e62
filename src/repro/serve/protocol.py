"""The serving wire protocol and the logical flow keys.

Real TCP gives the server a four-tuple for free, but an *ephemeral*
one: the client's source port differs on every run, so two identically
seeded runs would install different 96-bit keys, land on different
hash chains, and record different decision traces -- killing
record/replay determinism before it starts.

The fix is a one-frame handshake.  Each frame on the wire is::

    magic(1) kind(1) client_id(4, BE) seq(4, BE) length(2, BE) payload

A connection opens with a ``HELLO`` frame carrying the client's stable
integer id; the server derives the connection's *logical* four-tuple
from that id (:func:`logical_tuple`, the same address discipline the
TPC/A workload uses) and demultiplexes every subsequent frame under
it.  Clients that skip the handshake (foreign tools, netcat) fall back
to the socket's real peer address -- they serve fine, they just are
not reproducible across runs.

``DATA`` and ``ACK`` frames map onto the paper's two packet classes
(:class:`repro.core.stats.PacketKind`); the server answers every one
with an ``ACK`` echo of the sequence number, which keeps each
connection self-clocked (the client's send window is its unacked
frames) and gives the load generator a completion signal.
"""

from __future__ import annotations

import asyncio
import dataclasses
import struct
from typing import Optional

from ..core.stats import PacketKind
from ..packet.addresses import FourTuple, IPv4Address

__all__ = [
    "FRAME_ACK",
    "FRAME_DATA",
    "FRAME_HELLO",
    "Frame",
    "FrameError",
    "HEADER",
    "MAGIC",
    "MAX_PAYLOAD",
    "SERVE_LOCAL_ADDR",
    "SERVE_LOCAL_PORT",
    "encode_frame",
    "decode_header",
    "kind_of",
    "logical_tuple",
    "peer_tuple",
    "read_frame",
]

#: First byte of every frame; anything else is a framing error.
MAGIC = 0xD5

#: Frame kinds on the wire.
FRAME_HELLO = 0x00
FRAME_DATA = 0x01
FRAME_ACK = 0x02

_KINDS = (FRAME_HELLO, FRAME_DATA, FRAME_ACK)

#: ``magic kind client_id seq length`` -- 12 bytes before the payload.
HEADER = struct.Struct("!BBIIH")

#: Payload bytes a single frame may carry (length field is 16-bit).
MAX_PAYLOAD = 0xFFFF

#: The *logical* server endpoint every serving flow terminates at.
#: Fixed (rather than the socket's real address) so captures recorded
#: on different hosts/ports replay under identical 96-bit keys.
SERVE_LOCAL_ADDR = IPv4Address("10.9.0.1")
SERVE_LOCAL_PORT = 9009

#: Handshaken clients' logical addresses count up from here.
_CLIENT_BASE = IPv4Address("10.9.0.0")

#: Client-id ceiling: ids map into a /16 of client subnets below.
MAX_CLIENT_ID = 0xFFFFFFFF


class FrameError(ValueError):
    """Raised for malformed frames (bad magic, kind, or length)."""


@dataclasses.dataclass(frozen=True)
class Frame:
    """One decoded wire frame."""

    kind: int
    client_id: int
    seq: int
    payload: bytes = b""

    @property
    def is_hello(self) -> bool:
        return self.kind == FRAME_HELLO


def encode_frame(
    kind: int, client_id: int, seq: int, payload: bytes = b""
) -> bytes:
    """Serialize one frame; validates kind and payload length."""
    if kind not in _KINDS:
        raise FrameError(f"unknown frame kind {kind:#x}")
    if len(payload) > MAX_PAYLOAD:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}"
        )
    if not 0 <= client_id <= MAX_CLIENT_ID:
        raise FrameError(f"client id out of range: {client_id}")
    return HEADER.pack(MAGIC, kind, client_id, seq, len(payload)) + payload


def decode_header(header: bytes) -> "tuple[Frame, int]":
    """Decode the 12 header bytes into ``(frame, payload_length)``."""
    magic, kind, client_id, seq, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic:#x} (expected {MAGIC:#x})")
    if kind not in _KINDS:
        raise FrameError(f"unknown frame kind {kind:#x}")
    return Frame(kind=kind, client_id=client_id, seq=seq), length


async def read_frame(reader: asyncio.StreamReader) -> Optional[Frame]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF *inside* a frame (header or payload cut short) raises
    :class:`FrameError`: the peer died mid-write, which callers count
    as a protocol error rather than a clean close.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(
            f"connection closed {len(exc.partial)} bytes into a header"
        ) from None
    frame, length = decode_header(header)
    if not length:
        return frame
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed {len(exc.partial)}/{length} bytes"
            " into a payload"
        ) from None
    return dataclasses.replace(frame, payload=payload)


def kind_of(frame: Frame) -> PacketKind:
    """The demux packet class of a routable frame."""
    return PacketKind.ACK if frame.kind == FRAME_ACK else PacketKind.DATA


def logical_tuple(client_id: int) -> FourTuple:
    """The stable four-tuple for handshaken client ``client_id``.

    Mirrors the TPC/A address discipline -- clients spread over
    /24-sized subnets with sequential high ports -- but in a disjoint
    block (10.9/16) so live flows never collide with synthetic ones in
    mixed captures.
    """
    if not 0 <= client_id <= MAX_CLIENT_ID:
        raise FrameError(f"client id out of range: {client_id}")
    host = _CLIENT_BASE + (
        256 + (client_id // 250) * 256 + client_id % 250 + 1
    )
    port = 40000 + client_id % 20000
    return FourTuple(SERVE_LOCAL_ADDR, SERVE_LOCAL_PORT, host, port)


def peer_tuple(
    local: object, peer: object
) -> FourTuple:
    """Fallback key for clients that never sent a ``HELLO``.

    Built from the socket's real addresses (``get_extra_info``
    sockname/peername pairs), so it is correct but run-dependent.
    """
    local_addr, local_port = local[0], local[1]
    peer_addr, peer_port = peer[0], peer[1]
    return FourTuple(local_addr, local_port, peer_addr, peer_port)
