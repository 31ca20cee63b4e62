"""Record a workload's inbound packet stream for later replay.

The SMP experiments (:mod:`repro.smp`) need the *same* packet sequence
replayed through many configurations -- sharded vs. not, batched vs.
not -- so that every comparison is paired: common random numbers, down
to the individual packet.  :class:`PacketRecorder` is a demux algorithm
that stores nothing but the arrival sequence; driving the ordinary
TPC/A simulation with it yields a :class:`RecordedStream` that any
configuration can replay deterministically, in any process.

Streams also persist to disk as *capture files*
(:func:`save_stream` / :func:`load_stream`): versioned JSON with a
SHA-256 content digest over the tuples and packets.  The live-serving
front end (:mod:`repro.serve`) records real socket traffic into the
same format, so a capture's provenance -- synthetic TPC/A or a live
run -- is carried in its header (``kind``) while every consumer
(the canary's replays, golden decision traces) reads both
identically.  ``load_stream`` re-verifies the digest and
the structure, so a truncated or hand-edited capture is rejected at
the door rather than silently replaying garbage.  The digest is
checked over the ``tuples`` and ``packets`` fields exactly as read,
which are the bytes ``save_stream`` hashed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.base import DemuxAlgorithm, DuplicateConnectionError, LookupResult
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..packet.addresses import AddressError, FourTuple, IPv4Address
from .thinktime import ThinkTimeModel
from .tpca import TPCAConfig, TPCADemuxSimulation

__all__ = [
    "CAPTURE_FORMAT",
    "CAPTURE_VERSION",
    "CaptureFormatError",
    "PacketRecorder",
    "RecordedStream",
    "load_stream",
    "record_tpca_stream",
    "save_stream",
    "stream_digest",
    "stream_info",
]

#: Format tag every capture file carries; anything else is rejected.
CAPTURE_FORMAT = "repro-recorded-stream"

#: Current capture format version.  Readers accept exactly the versions
#: in :data:`SUPPORTED_CAPTURE_VERSIONS`; bump this when the payload
#: layout changes so old tools fail loudly on new files (and vice
#: versa) instead of misreading them.
CAPTURE_VERSION = 1

SUPPORTED_CAPTURE_VERSIONS = (1,)


class CaptureFormatError(ValueError):
    """A capture file is malformed, unsupported, or corrupt."""


class PacketRecorder(DemuxAlgorithm):
    """A demux 'algorithm' that records arrivals instead of searching.

    Lookups are dictionary hits (examined is reported as 0: nothing is
    scanned, and the recorder's statistics are never the experiment's
    subject); the payoff is the ``packets`` list -- every
    ``(four_tuple, kind)`` the workload delivered, in arrival order.
    """

    name = "recorder"

    def __init__(self) -> None:
        super().__init__()
        self._pcbs: Dict[FourTuple, PCB] = {}
        self.packets: List[Tuple[FourTuple, PacketKind]] = []

    def _insert(self, pcb: PCB) -> None:
        if pcb.four_tuple in self._pcbs:
            raise DuplicateConnectionError(
                f"duplicate connection {pcb.four_tuple}"
            )
        self._pcbs[pcb.four_tuple] = pcb

    def _remove(self, tup: FourTuple) -> PCB:
        return self._pcbs.pop(tup)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        self.packets.append((tup, kind))
        return LookupResult(
            self._pcbs.get(tup), examined=0, cache_hit=False, kind=kind
        )

    def __len__(self) -> int:
        return len(self._pcbs)

    def __iter__(self) -> Iterator[PCB]:
        return iter(self._pcbs.values())


@dataclasses.dataclass(frozen=True)
class RecordedStream:
    """One workload run, flattened to connections + packet arrivals."""

    #: Server-side four-tuple of every installed connection.
    tuples: Tuple[FourTuple, ...]
    #: Inbound packets in arrival order.
    packets: Tuple[Tuple[FourTuple, PacketKind], ...]
    n_users: int
    duration: float
    seed: int
    #: Provenance: ``"synthetic-tpca"`` for streams manufactured by
    #: :func:`record_tpca_stream`, ``"live-capture"`` for traffic the
    #: serving front end recorded off real sockets.
    kind: str = "synthetic-tpca"

    def __len__(self) -> int:
        return len(self.packets)


def record_tpca_stream(
    n_users: int,
    duration: float,
    seed: int,
    *,
    packets_per_exchange: int = 1,
    think_model: Optional[ThinkTimeModel] = None,
    max_packets: Optional[int] = None,
) -> RecordedStream:
    """Run the demux-level TPC/A workload and keep only its packets.

    No warm-up phase: replays measure whole streams, and dropping a
    prefix here would only shrink the paired sample.  The result is a
    pure function of the arguments -- byte-identical in any process.
    """
    kwargs = {}
    if think_model is not None:
        kwargs["think_model"] = think_model
    config = TPCAConfig(
        n_users=n_users,
        duration=duration,
        warmup=0.0,
        seed=seed,
        packets_per_exchange=packets_per_exchange,
        **kwargs,
    )
    recorder = PacketRecorder()
    TPCADemuxSimulation(config, recorder).run()
    packets = recorder.packets
    if max_packets is not None:
        packets = packets[:max_packets]
    return RecordedStream(
        # The installed tuples themselves, which the packets hold too.
        tuples=tuple(pcb.four_tuple for pcb in recorder),
        packets=tuple(packets),
        n_users=n_users,
        duration=duration,
        seed=seed,
    )


# -- the capture file format -------------------------------------------


def _stream_payload(stream: RecordedStream) -> Dict[str, Any]:
    """The digestable body: tuples plus index-compressed packets."""
    index = {tup: position for position, tup in enumerate(stream.tuples)}
    packets = []
    for tup, kind in stream.packets:
        slot = index.get(tup)
        if slot is None:
            # A packet for a never-installed connection (live strays);
            # carried inline so replay sees the same miss.
            packets.append([tup.to_wire(), kind.value])
        else:
            packets.append([slot, kind.value])
    return {
        "tuples": [tup.to_wire() for tup in stream.tuples],
        "packets": packets,
    }


def _payload_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 over a payload's canonical JSON."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def stream_digest(stream: RecordedStream) -> str:
    """SHA-256 over the canonical JSON body.

    Two streams with equal digests replay identically through every
    structure -- the byte-identity check the record/replay determinism
    tests (and ``record-info``) rely on.
    """
    return _payload_digest(_stream_payload(stream))


def save_stream(stream: RecordedStream, path: str) -> str:
    """Write ``stream`` as a versioned capture file; returns the digest."""
    digest = stream_digest(stream)
    document = {
        "format": CAPTURE_FORMAT,
        "version": CAPTURE_VERSION,
        "kind": stream.kind,
        "seed": stream.seed,
        "n_users": stream.n_users,
        "duration": stream.duration,
        "packet_count": len(stream.packets),
        "digest": digest,
    }
    document.update(_stream_payload(stream))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ": "), indent=0)
        handle.write("\n")
    return digest


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CaptureFormatError(message)


def _parse_capture(
    document: Any, *, source: str
) -> Tuple[RecordedStream, str]:
    """The stream a capture document holds, and the digest of its
    ``tuples`` and ``packets`` fields as read."""
    _require(isinstance(document, dict), f"{source}: not a JSON object")
    fmt = document.get("format")
    _require(
        fmt == CAPTURE_FORMAT,
        f"{source}: format {fmt!r} is not {CAPTURE_FORMAT!r}",
    )
    version = document.get("version")
    _require(
        version in SUPPORTED_CAPTURE_VERSIONS,
        f"{source}: unsupported capture version {version!r}"
        f" (supported: {list(SUPPORTED_CAPTURE_VERSIONS)})",
    )
    for field, kind_ in (("seed", int), ("n_users", int),
                         ("duration", (int, float)), ("kind", str),
                         ("tuples", list), ("packets", list)):
        _require(
            isinstance(document.get(field), kind_)
            and not isinstance(document.get(field), bool),
            f"{source}: missing or malformed {field!r} field",
        )

    # One address object per distinct text, so that every tuple naming
    # an address shares it (and tuple compares stop at identity).  The
    # table lives as long as this parse.
    addresses: Dict[str, IPv4Address] = {}

    def parse_address(text: object) -> IPv4Address:
        if type(text) is not str:
            return IPv4Address(text)
        address = addresses.get(text)
        if address is None:
            address = addresses[text] = IPv4Address(text)
        return address

    def parse_tuple(payload: object, what: str) -> FourTuple:
        _require(
            isinstance(payload, list) and len(payload) == 4,
            f"{source}: malformed {what} {payload!r}",
        )
        try:
            return FourTuple(
                parse_address(payload[0]), payload[1],
                parse_address(payload[2]), payload[3],
            )
        except (AddressError, TypeError) as exc:
            raise CaptureFormatError(
                f"{source}: bad {what} {payload!r}: {exc}"
            ) from None

    tuples = tuple(
        parse_tuple(payload, "connection tuple")
        for payload in document["tuples"]
    )
    kinds = {kind.value: kind for kind in PacketKind}
    packets: List[Tuple[FourTuple, PacketKind]] = []
    for entry in document["packets"]:
        _require(
            isinstance(entry, list) and len(entry) == 2,
            f"{source}: malformed packet entry {entry!r}",
        )
        target, kind_text = entry
        _require(
            kind_text in kinds,
            f"{source}: unknown packet kind {kind_text!r}",
        )
        if isinstance(target, int) and not isinstance(target, bool):
            _require(
                0 <= target < len(tuples),
                f"{source}: packet references tuple {target},"
                f" but only {len(tuples)} are installed",
            )
            tup = tuples[target]
        else:
            tup = parse_tuple(target, "stray packet tuple")
        packets.append((tup, kinds[kind_text]))

    stream = RecordedStream(
        tuples=tuples,
        packets=tuple(packets),
        n_users=document["n_users"],
        duration=float(document["duration"]),
        seed=document["seed"],
        kind=document["kind"],
    )
    declared_count = document.get("packet_count")
    if declared_count is not None:
        _require(
            declared_count == len(packets),
            f"{source}: header says {declared_count} packets,"
            f" body has {len(packets)}",
        )
    actual = _payload_digest(
        {"tuples": document["tuples"], "packets": document["packets"]}
    )
    declared_digest = document.get("digest")
    if declared_digest is not None:
        _require(
            actual == declared_digest,
            f"{source}: content digest mismatch"
            f" (header {declared_digest[:12]}..., body {actual[:12]}...)"
            " -- the capture was truncated or edited",
        )
    return stream, actual


def _read_capture(path: str) -> Tuple[RecordedStream, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CaptureFormatError(f"{path}: not valid JSON: {exc}") from None
    return _parse_capture(document, source=path)


def load_stream(path: str) -> RecordedStream:
    """Read and validate a capture file written by :func:`save_stream`.

    Raises :class:`CaptureFormatError` for anything that is not a
    well-formed, digest-clean capture of a supported version.
    """
    return _read_capture(path)[0]


def stream_info(path: str) -> Dict[str, Any]:
    """Validated header facts of a capture (the ``record-info`` view),
    with the digest it verified."""
    stream, digest = _read_capture(path)
    return {
        "path": path,
        "format": CAPTURE_FORMAT,
        "version": CAPTURE_VERSION,
        "kind": stream.kind,
        "seed": stream.seed,
        "digest": digest,
        "connections": len(stream.tuples),
        "packet_count": len(stream.packets),
        "duration": stream.duration,
    }
