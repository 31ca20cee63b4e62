"""Ethernet II framing.

The OLTP clients the paper models attach over local-area networks
(Section 1: "thousands of concurrent users connected by local-area
networks"), so the simulated wire format is Ethernet II: destination and
source MAC addresses, an EtherType, and a payload with the standard
46-byte minimum (frames are padded, and the parser exposes the padding
so upper layers can trim via the IP total-length field).  The frame
check sequence is modelled as a CRC-32 trailer that builds and verifies.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from .addresses import IPv4Address
from .ip import PacketError

__all__ = ["MACAddress", "EtherType", "EthernetFrame", "crc32_ieee"]

_ETHERNET_MIN_PAYLOAD = 46
_ETHERNET_MAX_PAYLOAD = 1500
_HEADER_LEN = 14
_FCS_LEN = 4


def _build_crc32_table():
    table = []
    for byte in range(256):
        value = byte
        for _ in range(8):
            if value & 1:
                value = (value >> 1) ^ 0xEDB88320
            else:
                value >>= 1
        table.append(value)
    return tuple(table)


_CRC32_TABLE = _build_crc32_table()


def crc32_ieee(data: bytes) -> int:
    """IEEE 802.3 CRC-32 (reflected, as used by the Ethernet FCS)."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


class MACAddress:
    """An immutable 48-bit MAC address."""

    __slots__ = ("_value",)

    def __init__(self, value: Union[str, int, bytes, "MACAddress"]):
        if isinstance(value, MACAddress):
            self._value = value._value
        elif isinstance(value, str):
            parts = value.replace("-", ":").split(":")
            if len(parts) != 6:
                raise PacketError(f"malformed MAC address: {value!r}")
            try:
                octets = [int(p, 16) for p in parts]
            except ValueError:
                raise PacketError(f"malformed MAC address: {value!r}") from None
            if any(not 0 <= o <= 0xFF for o in octets):
                raise PacketError(f"MAC octet out of range: {value!r}")
            self._value = int.from_bytes(bytes(octets), "big")
        elif isinstance(value, bytes):
            if len(value) != 6:
                raise PacketError(f"MAC address must be 6 bytes, got {len(value)}")
            self._value = int.from_bytes(value, "big")
        elif isinstance(value, int) and not isinstance(value, IPv4Address):
            if not 0 <= value <= 0xFFFFFFFFFFFF:
                raise PacketError(f"MAC address out of range: {value:#x}")
            self._value = value
        else:
            raise PacketError(f"cannot build MACAddress from {type(value).__name__}")

    @property
    def packed(self) -> bytes:
        return self._value.to_bytes(6, "big")

    def is_broadcast(self) -> bool:
        return self._value == 0xFFFFFFFFFFFF

    def is_multicast(self) -> bool:
        """True when the group bit (LSB of the first octet) is set."""
        return bool((self._value >> 40) & 0x01)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MACAddress):
            return self._value == other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.packed)

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"


#: The all-ones broadcast address.
BROADCAST = MACAddress(0xFFFFFFFFFFFF)


class EtherType:
    """EtherType values this substrate recognizes."""

    IPV4 = 0x0800
    ARP = 0x0806


@dataclasses.dataclass
class EthernetFrame:
    """An Ethernet II frame with explicit FCS handling."""

    dst: MACAddress
    src: MACAddress
    ethertype: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        self.dst = MACAddress(self.dst)
        self.src = MACAddress(self.src)
        if not 0x0600 <= self.ethertype <= 0xFFFF:
            raise PacketError(f"EtherType out of range: {self.ethertype:#x}")
        if len(self.payload) > _ETHERNET_MAX_PAYLOAD:
            raise PacketError(
                f"payload of {len(self.payload)} bytes exceeds Ethernet MTU"
            )

    @property
    def padding_length(self) -> int:
        """Bytes of zero padding a minimum-size frame will carry."""
        return max(0, _ETHERNET_MIN_PAYLOAD - len(self.payload))

    @property
    def wire_length(self) -> int:
        """Total on-wire bytes: header + padded payload + FCS."""
        return (
            _HEADER_LEN
            + max(len(self.payload), _ETHERNET_MIN_PAYLOAD)
            + _FCS_LEN
        )

    def build(self) -> bytes:
        """Serialize with zero padding and trailing CRC-32 FCS."""
        body = (
            self.dst.packed
            + self.src.packed
            + self.ethertype.to_bytes(2, "big")
            + self.payload
            + b"\x00" * self.padding_length
        )
        return body + crc32_ieee(body).to_bytes(4, "little")

    @classmethod
    def parse(cls, data: Union[bytes, bytearray, memoryview]) -> "EthernetFrame":
        """Parse and verify the FCS.

        The returned payload includes any padding; IP's total-length
        field is the authority for trimming it.
        """
        data = bytes(data)
        if len(data) < _HEADER_LEN + _FCS_LEN:
            raise PacketError(f"Ethernet frame truncated: {len(data)} bytes")
        body, fcs = data[:-_FCS_LEN], data[-_FCS_LEN:]
        if crc32_ieee(body) != int.from_bytes(fcs, "little"):
            raise PacketError("Ethernet FCS mismatch")
        return cls(
            dst=MACAddress(body[0:6]),
            src=MACAddress(body[6:12]),
            ethertype=int.from_bytes(body[12:14], "big"),
            payload=body[_HEADER_LEN:],
        )
