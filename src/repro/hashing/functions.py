"""Hash functions over the 96-bit TCP demultiplexing key.

The Sequent algorithm (paper Section 3.4) distributes PCBs across ``H``
hash chains.  The paper leaves the hash function itself to the
literature -- "efficient hash functions for protocol addresses are well
known [Jai89, McK91]" -- so this module implements the standard
candidates from that literature and exposes them behind one uniform
callable signature ``fn(tuple, nbuckets) -> bucket``:

* :func:`xor_fold` -- XOR of the key's 16-bit words, folded mod H.
* :func:`add_fold` -- one's-complement-style additive fold (checksum
  flavoured).
* :func:`multiplicative` -- Knuth multiplicative hashing on the mixed
  64-bit fold of the key.
* :func:`crc16_hash` / :func:`crc32_hash` -- CRC over the packed key,
  Jain's best performer.
* :func:`remote_port_only` -- a deliberately poor function (many OLTP
  clients share a source-port allocation pattern) used by the balance
  ablation to show what a bad hash does to the Sequent algorithm.
* :func:`python_builtin` -- Python's tuple hash, as the "random
  function" reference point.

All return a bucket in ``range(nbuckets)`` and are deterministic across
runs and processes (no per-process seeding), so simulations reproduce.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..packet.addresses import FourTuple
from .crc import crc16_ccitt, crc32c

__all__ = [
    "HashFunction",
    "xor_fold",
    "add_fold",
    "multiplicative",
    "crc16_hash",
    "crc32_hash",
    "remote_port_only",
    "python_builtin",
    "HASH_FUNCTIONS",
    "get_hash_function",
    "default_hash",
]

#: Signature every demux hash function follows.
HashFunction = Callable[[FourTuple, int], int]

_KNUTH_64 = 0x9E3779B97F4A7C15  # 2**64 / golden ratio


def _check_buckets(nbuckets: int) -> None:
    if nbuckets <= 0:
        raise ValueError(f"nbuckets must be positive, got {nbuckets}")


def xor_fold(tup: FourTuple, nbuckets: int) -> int:
    """XOR the six 16-bit words of the key, then reduce mod ``nbuckets``.

    Cheap and historically common; weak when the varying bits of the key
    (often just the low bits of the remote port) cancel under XOR.
    """
    _check_buckets(nbuckets)
    acc = 0
    for word in tup.words16():
        acc ^= word
    return acc % nbuckets


def add_fold(tup: FourTuple, nbuckets: int) -> int:
    """Sum the six 16-bit words with end-around carry, reduce mod H.

    The fold the Internet checksum uses; slightly better mixing than XOR
    because carries propagate information between bit positions.
    """
    _check_buckets(nbuckets)
    acc = 0
    for word in tup.words16():
        acc += word
        if acc > 0xFFFF:
            acc = (acc & 0xFFFF) + 1
    return acc % nbuckets


def _mix64(tup: FourTuple) -> int:
    """Fold the 96-bit key to 64 bits with rotation so no field is lost."""
    bits = tup.key_bits()
    high = bits >> 64  # top 32 bits
    low = bits & 0xFFFFFFFFFFFFFFFF
    rotated = ((high << 27) | (high >> 5)) & 0xFFFFFFFFFFFFFFFF
    return low ^ rotated


def multiplicative(tup: FourTuple, nbuckets: int) -> int:
    """Knuth multiplicative hashing of the folded key.

    Multiplies by 2^64/phi and takes the high bits, which spreads
    low-entropy keys (sequential addresses, clustered ports) well.
    """
    _check_buckets(nbuckets)
    mixed = (_mix64(tup) * _KNUTH_64) & 0xFFFFFFFFFFFFFFFF
    return (mixed >> 32) % nbuckets


def _position_tables(crc: Callable[[bytes], int]):
    """Twelve 256-entry tables: each key byte's share of its ``crc``.

    A CRC is affine over a fixed-length message, so the CRC of a
    12-byte key is the CRC of twelve zero bytes XOR, for every byte
    position, a term that depends only on that position and byte --
    and each term is itself linear in the byte's bits.  The terms are
    read off the reference ``crc`` (:mod:`repro.hashing.crc`) one bit
    at a time; position 0's table absorbs the zero-key constant.
    """
    zero = crc(bytes(12))
    tables = []
    for position in range(12):
        table = [0] * 256
        for bit in range(8):
            message = bytearray(12)
            message[position] = 1 << bit
            table[1 << bit] = crc(bytes(message)) ^ zero
        for byte in range(1, 256):
            low = byte & -byte
            if byte != low:
                table[byte] = table[low] ^ table[byte ^ low]
        tables.append(table)
    tables[0] = [term ^ zero for term in tables[0]]
    return [tuple(table) for table in tables]


(
    _CRC16_B0, _CRC16_B1, _CRC16_B2, _CRC16_B3, _CRC16_B4, _CRC16_B5,
    _CRC16_B6, _CRC16_B7, _CRC16_B8, _CRC16_B9, _CRC16_B10, _CRC16_B11,
) = _position_tables(crc16_ccitt)

(
    _CRC32_B0, _CRC32_B1, _CRC32_B2, _CRC32_B3, _CRC32_B4, _CRC32_B5,
    _CRC32_B6, _CRC32_B7, _CRC32_B8, _CRC32_B9, _CRC32_B10, _CRC32_B11,
) = _position_tables(crc32c)


def crc16_hash(tup: FourTuple, nbuckets: int) -> int:
    """CRC-16/CCITT of the packed 12-byte key, reduced mod H.

    Equal to ``crc16_ccitt(key_bits().to_bytes(12, "big")) % nbuckets``,
    computed straight from the four fields with one table read per
    key byte (see :func:`_position_tables`).
    """
    _check_buckets(nbuckets)
    local, local_port, remote, remote_port = tup
    return (
        _CRC16_B0[local >> 24] ^ _CRC16_B1[local >> 16 & 255]
        ^ _CRC16_B2[local >> 8 & 255] ^ _CRC16_B3[local & 255]
        ^ _CRC16_B4[local_port >> 8] ^ _CRC16_B5[local_port & 255]
        ^ _CRC16_B6[remote >> 24] ^ _CRC16_B7[remote >> 16 & 255]
        ^ _CRC16_B8[remote >> 8 & 255] ^ _CRC16_B9[remote & 255]
        ^ _CRC16_B10[remote_port >> 8] ^ _CRC16_B11[remote_port & 255]
    ) % nbuckets


def crc32_hash(tup: FourTuple, nbuckets: int) -> int:
    """CRC-32C of the packed 12-byte key, reduced mod H.

    Equal to ``crc32c(key_bits().to_bytes(12, "big")) % nbuckets``,
    computed the same way as :func:`crc16_hash`.
    """
    _check_buckets(nbuckets)
    local, local_port, remote, remote_port = tup
    return (
        _CRC32_B0[local >> 24] ^ _CRC32_B1[local >> 16 & 255]
        ^ _CRC32_B2[local >> 8 & 255] ^ _CRC32_B3[local & 255]
        ^ _CRC32_B4[local_port >> 8] ^ _CRC32_B5[local_port & 255]
        ^ _CRC32_B6[remote >> 24] ^ _CRC32_B7[remote >> 16 & 255]
        ^ _CRC32_B8[remote >> 8 & 255] ^ _CRC32_B9[remote & 255]
        ^ _CRC32_B10[remote_port >> 8] ^ _CRC32_B11[remote_port & 255]
    ) % nbuckets


def remote_port_only(tup: FourTuple, nbuckets: int) -> int:
    """Hash on the remote port alone -- a known-bad function.

    Many client OSes allocate ephemeral ports sequentially from the same
    base, so distinct hosts collide heavily.  Exists to quantify the
    Sequent algorithm's sensitivity to hash quality.
    """
    _check_buckets(nbuckets)
    return tup.remote_port % nbuckets


def python_builtin(tup: FourTuple, nbuckets: int) -> int:
    """Python's own tuple hash, as an idealized reference point.

    Deterministic because every field hashes as an integer (an address
    hashes as its value), and int hashing is not randomized by
    ``PYTHONHASHSEED``: the tuple hashes as its four-int form.
    """
    _check_buckets(nbuckets)
    return hash(tup) % nbuckets


#: Registry used by the CLI, experiments, and the Sequent constructor.
HASH_FUNCTIONS: Dict[str, HashFunction] = {
    "xor_fold": xor_fold,
    "add_fold": add_fold,
    "multiplicative": multiplicative,
    "crc16": crc16_hash,
    "crc32": crc32_hash,
    "remote_port_only": remote_port_only,
    "python_builtin": python_builtin,
}

#: The default used by :class:`repro.core.sequent.SequentDemux`.
default_hash = crc32_hash


def get_hash_function(name: str) -> HashFunction:
    """Look up a registered hash function by name.

    Raises ``KeyError`` listing the available names on a miss.
    """
    try:
        return HASH_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(HASH_FUNCTIONS))
        raise KeyError(f"unknown hash function {name!r}; known: {known}") from None
