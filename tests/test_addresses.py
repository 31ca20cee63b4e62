"""Tests for repro.packet.addresses: IPv4Address and FourTuple."""

import copy
import pickle

import pytest

from repro.packet.addresses import (
    MAX_PORT,
    AddressError,
    FourTuple,
    IPv4Address,
    ip,
)


class TestIPv4AddressConstruction:
    def test_from_dotted_quad(self):
        assert IPv4Address("10.0.0.1").value == 0x0A000001

    def test_from_int(self):
        assert str(IPv4Address(0xC0A80101)) == "192.168.1.1"

    def test_from_bytes(self):
        assert IPv4Address(b"\x7f\x00\x00\x01").is_loopback()

    def test_from_other_address_copies(self):
        original = IPv4Address("1.2.3.4")
        assert IPv4Address(original) == original

    def test_all_zeros_and_all_ones(self):
        assert IPv4Address("0.0.0.0").value == 0
        assert IPv4Address("255.255.255.255").value == 0xFFFFFFFF

    @pytest.mark.parametrize(
        "bad",
        ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "-1.0.0.0"],
    )
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    @pytest.mark.parametrize("bad", [-1, 1 << 32])
    def test_out_of_range_ints_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_wrong_byte_count_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(b"\x01\x02\x03")

    def test_wrong_type_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(1.5)

    def test_ip_shorthand(self):
        assert ip("10.0.0.1") == IPv4Address("10.0.0.1")


class TestIPv4AddressBehaviour:
    def test_round_trip_string(self):
        for text in ("0.0.0.0", "10.250.3.77", "255.255.255.255"):
            assert str(IPv4Address(text)) == text

    def test_str_matches_octet_join(self):
        values = [0, 0xFFFFFFFF, 0x0A000001, 0x00FF0080, 0xFF00FF00,
                  0x7F000001, 0x01020304, 0xC0A80164]
        values += [(i * 0x9E3779B1) & 0xFFFFFFFF for i in range(1000)]
        for value in values:
            addr = IPv4Address(value)
            assert str(addr) == ".".join(str(o) for o in addr.octets)

    def test_packed_round_trip(self):
        addr = IPv4Address("172.16.254.3")
        assert IPv4Address(addr.packed) == addr
        assert len(addr.packed) == 4

    def test_octets(self):
        assert IPv4Address("1.2.3.4").octets == (1, 2, 3, 4)

    def test_equality_and_hash(self):
        a, b = IPv4Address("10.0.0.1"), IPv4Address(0x0A000001)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hashes_in_c_as_its_integer(self):
        assert IPv4Address.__hash__ is int.__hash__
        for value in (0, 1, 0x0A000001, 0x7FFFFFFF, 0xFFFFFFFF):
            assert hash(IPv4Address(value)) == hash(value)

    def test_not_equal_to_other_types(self):
        assert IPv4Address("10.0.0.1") != "10.0.0.1"
        assert IPv4Address("10.0.0.1") != 0x0A000001
        # An address is an int underneath; neither operand order may
        # fall back to int's value compare.
        assert IPv4Address(5) != 5
        assert 5 != IPv4Address(5)
        assert (5 == IPv4Address(5)) is False
        assert (IPv4Address(5) == 5) is False
        assert {IPv4Address(5): "address"}.get(5) is None
        assert {5: "int"}.get(IPv4Address(5)) is None

    def test_always_truthy(self):
        assert IPv4Address("0.0.0.0")
        assert bool(IPv4Address(0)) is True

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
        assert IPv4Address("10.0.0.2") >= IPv4Address("10.0.0.2")
        assert sorted([IPv4Address(3), IPv4Address(1)]) == [
            IPv4Address(1), IPv4Address(3)
        ]

    @pytest.mark.parametrize(
        "compare",
        [
            lambda a: a < 5,
            lambda a: 5 < a,
            lambda a: a <= 5,
            lambda a: a > 5,
            lambda a: a >= 5,
            lambda a: a < "1.2.3.5",
        ],
    )
    def test_orders_only_against_addresses(self, compare):
        with pytest.raises(TypeError):
            compare(IPv4Address("1.2.3.4"))

    def test_format_gives_dotted_quad(self):
        addr = IPv4Address("10.250.3.77")
        assert f"{addr}" == "10.250.3.77"
        assert f"{addr:>13}" == "  10.250.3.77"
        assert "%s" % addr == "10.250.3.77"

    def test_value_is_a_plain_int(self):
        value = IPv4Address("10.0.0.1").value
        assert type(value) is int and value == 0x0A000001

    def test_from_address_shares_the_object(self):
        addr = IPv4Address("10.0.0.1")
        assert IPv4Address(addr) is addr

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_keeps_the_type(self, protocol):
        addr = IPv4Address("192.168.1.1")
        back = pickle.loads(pickle.dumps(addr, protocol))
        assert type(back) is IPv4Address and back == addr
        tup = FourTuple(addr, 80, "10.0.0.2", 40000)
        back = pickle.loads(pickle.dumps(tup, protocol))
        assert type(back.remote_addr) is IPv4Address and back == tup

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copy_keeps_the_type(self, clone):
        addr = IPv4Address("192.168.1.1")
        assert type(clone(addr)) is IPv4Address and clone(addr) == addr

    def test_addition_and_wraparound(self):
        assert IPv4Address("10.0.0.255") + 1 == IPv4Address("10.0.1.0")
        assert IPv4Address("255.255.255.255") + 1 == IPv4Address("0.0.0.0")

    def test_int_conversion(self):
        assert int(IPv4Address("0.0.1.0")) == 256

    def test_classification_loopback(self):
        assert IPv4Address("127.0.0.1").is_loopback()
        assert not IPv4Address("128.0.0.1").is_loopback()

    def test_classification_multicast(self):
        assert IPv4Address("224.0.0.1").is_multicast()
        assert IPv4Address("239.255.255.255").is_multicast()
        assert not IPv4Address("223.255.255.255").is_multicast()

    @pytest.mark.parametrize(
        "addr,expected",
        [
            ("10.1.2.3", True),
            ("172.16.0.1", True),
            ("172.31.255.255", True),
            ("172.32.0.0", False),
            ("192.168.100.1", True),
            ("192.169.0.1", False),
            ("8.8.8.8", False),
        ],
    )
    def test_classification_private(self, addr, expected):
        assert IPv4Address(addr).is_private() is expected

    def test_repr_is_evaluable_shape(self):
        assert repr(IPv4Address("1.2.3.4")) == "IPv4Address('1.2.3.4')"


class TestFourTuple:
    def make(self):
        return FourTuple.create("10.0.0.1", 80, "10.0.0.2", 40000)

    def test_create_validates_ports(self):
        with pytest.raises(AddressError):
            FourTuple.create("10.0.0.1", -1, "10.0.0.2", 40000)
        with pytest.raises(AddressError):
            FourTuple.create("10.0.0.1", 80, "10.0.0.2", MAX_PORT + 1)
        with pytest.raises(AddressError):
            FourTuple.create("10.0.0.1", 80.5, "10.0.0.2", 40000)

    def test_create_accepts_strings_and_ints(self):
        tup = FourTuple.create(0x0A000001, 80, "10.0.0.2", 40000)
        assert tup.local_addr == IPv4Address("10.0.0.1")

    def test_reversed_swaps_sides(self):
        tup = self.make()
        rev = tup.reversed
        assert rev.local_addr == tup.remote_addr
        assert rev.local_port == tup.remote_port
        assert rev.reversed == tup

    def test_matches_is_exact_equality(self):
        tup = self.make()
        assert tup.matches(FourTuple.create("10.0.0.1", 80, "10.0.0.2", 40000))
        assert not tup.matches(tup.reversed)

    def test_key_bits_is_96_bits_and_injective_on_fields(self):
        tup = self.make()
        bits = tup.key_bits()
        assert bits < (1 << 96)
        # Each field occupies its own bit range.
        assert (bits >> 64) == int(tup.local_addr)
        assert (bits >> 48) & 0xFFFF == tup.local_port
        assert (bits >> 16) & 0xFFFFFFFF == int(tup.remote_addr)
        assert bits & 0xFFFF == tup.remote_port

    def test_words16_reassemble_key(self):
        tup = self.make()
        words = list(tup.words16())
        assert len(words) == 6
        assert all(0 <= w <= 0xFFFF for w in words)
        value = 0
        for word in words:
            value = (value << 16) | word
        assert value == tup.key_bits()

    def test_words32_reassemble_key(self):
        tup = self.make()
        words = list(tup.words32())
        assert len(words) == 3
        value = 0
        for word in words:
            value = (value << 32) | word
        assert value == tup.key_bits()

    def test_distinct_tuples_distinct_keys(self):
        a = FourTuple.create("10.0.0.1", 80, "10.0.0.2", 40000)
        b = FourTuple.create("10.0.0.1", 80, "10.0.0.2", 40001)
        c = FourTuple.create("10.0.0.1", 81, "10.0.0.2", 40000)
        assert len({a.key_bits(), b.key_bits(), c.key_bits()}) == 3

    def test_usable_as_dict_key(self):
        table = {self.make(): "pcb"}
        assert table[FourTuple.create("10.0.0.1", 80, "10.0.0.2", 40000)] == "pcb"

    def test_str_contains_both_endpoints(self):
        text = str(self.make())
        assert "10.0.0.1:80" in text
        assert "10.0.0.2:40000" in text


class TestFourTupleConstructorValidation:
    """The plain constructor validates (PR 5 bugfix).

    ``FourTuple`` used to be a bare ``NamedTuple`` that stored raw
    strings silently; the error only surfaced much later, inside
    ``key_bits()`` on the lookup path.  Now every construction route
    -- positional, ``create``, ``_replace``, ``_make`` -- coerces
    addresses and range-checks ports at the call site.
    """

    def test_positional_construction_coerces_strings(self):
        tup = FourTuple("10.0.0.1", 80, "10.0.0.2", 40000)
        assert isinstance(tup.local_addr, IPv4Address)
        assert isinstance(tup.remote_addr, IPv4Address)
        tup.key_bits()  # must not explode: fields are real addresses

    def test_positional_construction_rejects_bad_values(self):
        with pytest.raises(AddressError):
            FourTuple("not-an-address", 80, "10.0.0.2", 40000)
        with pytest.raises(AddressError):
            FourTuple("10.0.0.1", 80, "10.0.0.2", MAX_PORT + 1)
        with pytest.raises(AddressError):
            FourTuple("10.0.0.1", "80", "10.0.0.2", 40000)
        with pytest.raises(AddressError):
            FourTuple("10.0.0.1", True, "10.0.0.2", 40000)
        with pytest.raises(AddressError):  # an int, but not a port
            FourTuple("10.0.0.1", IPv4Address(80), "10.0.0.2", 40000)

    def test_replace_validates(self):
        tup = FourTuple("10.0.0.1", 80, "10.0.0.2", 40000)
        replaced = tup._replace(remote_port=50000)
        assert replaced.remote_port == 50000
        coerced = tup._replace(remote_addr="10.9.9.9")
        assert coerced.remote_addr == IPv4Address("10.9.9.9")
        with pytest.raises(AddressError):
            tup._replace(remote_port=-5)
        with pytest.raises(AddressError):
            tup._replace(local_addr="999.0.0.1")

    def test_make_validates(self):
        tup = FourTuple._make(("10.0.0.1", 80, "10.0.0.2", 40000))
        assert isinstance(tup.local_addr, IPv4Address)
        with pytest.raises(AddressError):
            FourTuple._make(("10.0.0.1", 80, "10.0.0.2", 99999))

    def test_still_a_tuple(self):
        tup = FourTuple("10.0.0.1", 80, "10.0.0.2", 40000)
        assert isinstance(tup, tuple)
        local_addr, local_port, remote_addr, remote_port = tup
        assert local_port == 80 and remote_port == 40000
        assert tup == FourTuple(local_addr, 80, remote_addr, 40000)

    def test_existing_address_objects_pass_through_unwrapped(self):
        addr = IPv4Address("10.0.0.1")
        tup = FourTuple(addr, 80, IPv4Address("10.0.0.2"), 40000)
        assert tup.local_addr is addr
