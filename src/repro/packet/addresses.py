"""Protocol addresses and the TCP demultiplexing key.

The paper's opening observation (Section 1) is that a TCP demultiplexing
algorithm must map a packet's source and destination IP addresses and TCP
ports -- 96 bits in total -- to a protocol control block, and that 96 bits
rule out simple direct indexing.  This module provides the 96-bit key
(:class:`FourTuple`) plus a small IPv4 address value type used throughout
the packet, stack, and workload layers.

Handling the key is a fixed cost of every lookup: each dict keyed by a
:class:`FourTuple` (the fast path's intern table, the sharded home
table, serve's sessions, the reaper, the telemetry sketches) hashes
the tuple, and compares it whenever the probing tuple is not the stored
object.  So the key is built from C-level parts:

* :class:`IPv4Address` is an ``int`` subclass whose hash is
  ``int.__hash__``, so hashing a four-tuple runs no Python code (the
  hash values equal those of the plain integers);
* a tuple compare skips fields that are the *same object*, so code
  that builds many tuples shares their address objects -- the capture
  reader parses each distinct address text once, the synthetic
  generators (``TPCAConfig.user_tuple``, ``churn_tuple``,
  ``logical_tuple``) keep their fixed addresses as module constants,
  and ``IPv4Address(addr)`` returns ``addr`` itself, so headers built
  from a connection's addresses carry the same objects.  Two equal
  tuples with distinct address objects still compare correctly,
  through ``IPv4Address.__eq__`` in Python.

No table anywhere interns every address the program sees: memory stays
bounded by live state (docs/fastpath.md, "Memory bounds").
"""

from __future__ import annotations

import collections
import re
from typing import Iterator, List, Tuple, Union

__all__ = [
    "AddressError",
    "IPv4Address",
    "FourTuple",
    "ip",
    "MAX_PORT",
]

#: Largest valid TCP/UDP port number.
MAX_PORT = 0xFFFF

_DOTTED_QUAD_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


class AddressError(ValueError):
    """Raised for malformed IP addresses, ports, or four-tuples."""


class IPv4Address(int):
    """An immutable IPv4 address, stored as a 32-bit ``int``.

    An ``int`` subclass, so hashing runs in C (``__hash__`` is
    ``int.__hash__``: an address hashes exactly as its integer value
    does) and the shifts and masks the hash functions apply read the
    value directly.  The rest of the contract is explicit, so an
    address never passes for a number:

    * it equals only another address with the same value -- never a
      bare ``int`` or ``str``, in either operand order;
    * it orders only against other addresses (``TypeError`` otherwise);
    * it is always truthy, ``0.0.0.0`` included;
    * ``str``, ``repr`` and ``format`` give the dotted quad;
    * ``+ offset`` gives the address ``offset`` hosts later; every
      other arithmetic operator returns a plain ``int``.

    Constructing from an address returns that same object: addresses
    are immutable, and four-tuples that share their address objects
    compare on identity in C.

    Parameters
    ----------
    value:
        Either a dotted-quad string (``"10.0.0.1"``), a 32-bit integer,
        another :class:`IPv4Address`, or 4 raw bytes.

    Examples
    --------
    >>> IPv4Address("10.0.0.1") == IPv4Address(0x0A000001)
    True
    >>> str(IPv4Address(0x0A000001))
    '10.0.0.1'
    >>> IPv4Address("10.0.0.1") == 0x0A000001
    False
    """

    __slots__ = ()

    def __new__(cls, value: Union[str, int, bytes, "IPv4Address"]):
        if isinstance(value, IPv4Address):
            if type(value) is cls:
                return value
            return _int_new(cls, value)
        if isinstance(value, str):
            return _int_new(cls, _parse_dotted_quad(value))
        if isinstance(value, bytes):
            if len(value) != 4:
                raise AddressError(
                    f"IPv4 address must be exactly 4 bytes, got {len(value)}"
                )
            return _int_new(cls, int.from_bytes(value, "big"))
        if isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise AddressError(f"IPv4 address out of range: {value:#x}")
            return _int_new(cls, value)
        raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The address as an unsigned 32-bit integer (a plain ``int``)."""
        return int(self)

    @property
    def packed(self) -> bytes:
        """The address as 4 network-order bytes."""
        return self.to_bytes(4, "big")

    @property
    def octets(self) -> Tuple[int, int, int, int]:
        """The four octets, most significant first."""
        return (self >> 24, self >> 16 & 0xFF, self >> 8 & 0xFF, self & 0xFF)

    def is_loopback(self) -> bool:
        """True for 127.0.0.0/8."""
        return (self >> 24) == 127

    def is_multicast(self) -> bool:
        """True for 224.0.0.0/4."""
        return (self >> 28) == 0xE

    def is_private(self) -> bool:
        """True for RFC 1918 space (10/8, 172.16/12, 192.168/16)."""
        return (
            (self >> 24) == 10
            or (self >> 20) == 0xAC1  # 172.16.0.0/12
            or (self >> 16) == 0xC0A8  # 192.168.0.0/16
        )

    def __add__(self, offset: int) -> "IPv4Address":
        """Return the address ``offset`` hosts later (wraps at 2**32)."""
        if not isinstance(offset, int):
            return NotImplemented
        return _int_new(IPv4Address, _int_add(self, offset) & 0xFFFFFFFF)

    # Comparisons: an operand that is not an address is never equal
    # and never ordered.  Each method answers for a bare int itself
    # instead of returning NotImplemented, because Python would then
    # ask ``int``, which compares the values.  Equality XORs the two
    # values -- int's own operator, run in C -- which costs half of a
    # call to ``int.__eq__`` through its slot wrapper.

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return not (self ^ other)
        if isinstance(other, int):
            return False
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return (self ^ other) != 0
        if isinstance(other, int):
            return True
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        _require_address(self, other, "<")
        return int.__lt__(self, other)

    def __le__(self, other: "IPv4Address") -> bool:
        _require_address(self, other, "<=")
        return int.__le__(self, other)

    def __gt__(self, other: "IPv4Address") -> bool:
        _require_address(self, other, ">")
        return int.__gt__(self, other)

    def __ge__(self, other: "IPv4Address") -> bool:
        _require_address(self, other, ">=")
        return int.__ge__(self, other)

    __hash__ = int.__hash__

    def __bool__(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self >> 24}.{self >> 16 & 0xFF}.{self >> 8 & 0xFF}.{self & 0xFF}"

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)

    def __repr__(self) -> str:
        return f"IPv4Address('{self!s}')"


_int_new = int.__new__
_int_add = int.__add__


def _require_address(address: IPv4Address, other: object, op: str) -> None:
    if not isinstance(other, IPv4Address):
        raise TypeError(
            f"'{op}' not supported between instances of"
            f" {type(address).__name__!r} and {type(other).__name__!r}"
        )


def _parse_dotted_quad(text: str) -> int:
    """Parse ``"a.b.c.d"`` into a 32-bit integer, validating each octet."""
    match = _DOTTED_QUAD_RE.match(text.strip())
    if match is None:
        raise AddressError(f"malformed IPv4 address: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise AddressError(f"IPv4 octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def ip(value: Union[str, int, bytes, IPv4Address]) -> IPv4Address:
    """Shorthand constructor: ``ip("10.0.0.1")``."""
    return IPv4Address(value)


def _check_port(port: int, label: str) -> int:
    if not isinstance(port, int) or isinstance(port, (bool, IPv4Address)):
        raise AddressError(f"{label} port must be an int, got {type(port).__name__}")
    if not 0 <= port <= MAX_PORT:
        raise AddressError(f"{label} port out of range: {port}")
    return port


_FourTupleBase = collections.namedtuple(
    "FourTuple", ("local_addr", "local_port", "remote_addr", "remote_port")
)


class FourTuple(_FourTupleBase):
    """The 96-bit TCP demultiplexing key.

    ``(local addr, local port, remote addr, remote port)`` *as seen by the
    receiving host*: ``local`` is the destination of an inbound packet and
    ``remote`` its source.  This is the quantity Section 1 of the paper
    says totals 96 bits (two 32-bit addresses + two 16-bit ports) and
    therefore cannot be used as a direct array index.

    Construction validates: addresses are coerced through
    :class:`IPv4Address` (so dotted-quad strings and raw ints are
    accepted positionally) and ports range-checked, raising
    :class:`AddressError` immediately.  A plain ``NamedTuple`` silently
    stored whatever it was handed, and a tuple built from raw strings
    only exploded much later, inside :meth:`key_bits` on the lookup
    path -- far from the call site that made it.
    """

    __slots__ = ()

    def __new__(
        cls,
        local_addr: Union[str, int, bytes, IPv4Address],
        local_port: int,
        remote_addr: Union[str, int, bytes, IPv4Address],
        remote_port: int,
    ) -> "FourTuple":
        # The isinstance guards keep the common case -- fields that are
        # already IPv4Address, e.g. via ``reversed`` or ``_replace`` --
        # free of re-wrapping allocations on the hot path.
        if not isinstance(local_addr, IPv4Address):
            local_addr = IPv4Address(local_addr)
        if not isinstance(remote_addr, IPv4Address):
            remote_addr = IPv4Address(remote_addr)
        return super().__new__(
            cls,
            local_addr,
            _check_port(local_port, "local"),
            remote_addr,
            _check_port(remote_port, "remote"),
        )

    @classmethod
    def _make(cls, iterable) -> "FourTuple":
        # namedtuple's _make (which _replace uses) calls tuple.__new__
        # directly, skipping validation; route it back through ours.
        return cls(*iterable)

    @classmethod
    def create(
        cls,
        local_addr: Union[str, int, IPv4Address],
        local_port: int,
        remote_addr: Union[str, int, IPv4Address],
        remote_port: int,
    ) -> "FourTuple":
        """Validating constructor; kept as an alias now that the class
        constructor itself validates."""
        return cls(local_addr, local_port, remote_addr, remote_port)

    @property
    def reversed(self) -> "FourTuple":
        """The same connection as seen from the other endpoint."""
        return FourTuple(
            self.remote_addr, self.remote_port, self.local_addr, self.local_port
        )

    def matches(self, other: "FourTuple") -> bool:
        """Exact-match comparison (the predicate every list scan uses)."""
        return self == other

    def key_bits(self) -> int:
        """The tuple packed into a single 96-bit integer.

        Layout (most significant first): local addr, local port,
        remote addr, remote port.  Hash functions in
        :mod:`repro.hashing` operate on this value.
        """
        local_addr, local_port, remote_addr, remote_port = self
        return (
            (local_addr << 64)
            | (local_port << 48)
            | (remote_addr << 16)
            | remote_port
        )

    def to_wire(self) -> List[Union[str, int]]:
        """The JSON wire form every artifact writes: ``[local dotted
        quad, local port, remote dotted quad, remote port]``."""
        return [
            str(self.local_addr), self.local_port,
            str(self.remote_addr), self.remote_port,
        ]

    def words16(self) -> Iterator[int]:
        """Yield the key as six 16-bit words (for folding hash functions)."""
        bits = self.key_bits()
        for shift in range(80, -1, -16):
            yield (bits >> shift) & 0xFFFF

    def words32(self) -> Iterator[int]:
        """Yield the key as three 32-bit words."""
        bits = self.key_bits()
        for shift in range(64, -1, -32):
            yield (bits >> shift) & 0xFFFFFFFF

    def __str__(self) -> str:
        return (
            f"{self.local_addr!s}:{self.local_port}"
            f" <- {self.remote_addr!s}:{self.remote_port}"
        )
