"""Tests for Ethernet II framing."""

import pytest

from repro.packet.addresses import IPv4Address
from repro.packet.ethernet import (
    BROADCAST,
    EthernetFrame,
    EtherType,
    MACAddress,
    crc32_ieee,
)
from repro.packet.ip import PacketError


class TestMACAddress:
    def test_from_string_colon_and_dash(self):
        a = MACAddress("00:11:22:33:44:55")
        b = MACAddress("00-11-22-33-44-55")
        assert a == b

    def test_from_bytes_and_int(self):
        a = MACAddress(b"\x00\x11\x22\x33\x44\x55")
        assert int(a) == 0x001122334455
        assert MACAddress(0x001122334455) == a

    def test_packed_round_trip(self):
        a = MACAddress("de:ad:be:ef:00:01")
        assert MACAddress(a.packed) == a

    def test_str_format(self):
        assert str(MACAddress(0xDEADBEEF0001)) == "de:ad:be:ef:00:01"

    def test_broadcast_and_multicast(self):
        assert BROADCAST.is_broadcast()
        assert BROADCAST.is_multicast()
        assert MACAddress("01:00:5e:00:00:01").is_multicast()
        assert not MACAddress("00:11:22:33:44:55").is_multicast()

    @pytest.mark.parametrize(
        "bad", ["", "00:11:22:33:44", "00:11:22:33:44:55:66", "zz:11:22:33:44:55"]
    )
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(PacketError):
            MACAddress(bad)

    def test_out_of_range_rejected(self):
        with pytest.raises(PacketError):
            MACAddress(1 << 48)
        with pytest.raises(PacketError):
            MACAddress(b"\x00" * 5)

    def test_ip_address_rejected(self):
        # An IPv4Address is an int, but never a MAC address.
        with pytest.raises(PacketError):
            MACAddress(IPv4Address("10.0.0.1"))

    def test_hashable(self):
        assert len({MACAddress(1), MACAddress(1), MACAddress(2)}) == 2


class TestCRC32:
    def test_known_vector(self):
        # The classic check value: CRC32("123456789") = 0xCBF43926.
        assert crc32_ieee(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32_ieee(b"") == 0

    def test_differs_on_corruption(self):
        assert crc32_ieee(b"hello") != crc32_ieee(b"hellp")


def make_frame(payload=b"\x45" + b"\x00" * 59):
    return EthernetFrame(
        dst=MACAddress("00:11:22:33:44:55"),
        src=MACAddress("66:77:88:99:aa:bb"),
        ethertype=EtherType.IPV4,
        payload=payload,
    )


class TestEthernetFrame:
    def test_round_trip(self):
        frame = make_frame()
        parsed = EthernetFrame.parse(frame.build())
        assert parsed.dst == frame.dst
        assert parsed.src == frame.src
        assert parsed.ethertype == EtherType.IPV4
        assert parsed.payload == frame.payload

    def test_minimum_frame_padded(self):
        frame = make_frame(payload=b"ab")
        wire = frame.build()
        # 14 header + 46 padded payload + 4 FCS.
        assert len(wire) == 64
        assert frame.padding_length == 44
        parsed = EthernetFrame.parse(wire)
        assert parsed.payload == b"ab" + b"\x00" * 44

    def test_wire_length_property(self):
        assert make_frame(payload=b"x" * 100).wire_length == 14 + 100 + 4
        assert make_frame(payload=b"x").wire_length == 64

    def test_fcs_corruption_detected(self):
        wire = bytearray(make_frame().build())
        wire[20] ^= 0x10
        with pytest.raises(PacketError, match="FCS"):
            EthernetFrame.parse(bytes(wire))

    def test_truncated_rejected(self):
        with pytest.raises(PacketError, match="truncated"):
            EthernetFrame.parse(b"\x00" * 17)

    def test_oversize_payload_rejected(self):
        with pytest.raises(PacketError, match="MTU"):
            make_frame(payload=b"x" * 1501)

    def test_low_ethertype_rejected(self):
        # Values below 0x0600 are 802.3 lengths, not EtherTypes.
        with pytest.raises(PacketError):
            EthernetFrame(
                dst=MACAddress(1), src=MACAddress(2), ethertype=0x05FF
            )
