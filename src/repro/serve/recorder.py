"""The recorder tap: served traffic into the recorded-stream format.

The bridge half of record/replay.  While the server runs, the tap
accumulates every installed connection and every routed frame; at
shutdown it flattens them into a
:class:`repro.workload.record.RecordedStream` (``kind="live-capture"``)
that the golden decision-trace machinery and the canary gate replay
exactly as they replay synthetic TPC/A streams.

Two orderings are offered, because live capture has a tension
synthetic recording does not:

``canonical`` (the default)
    Packets sorted by ``(seq, client_id)`` and connections by client
    id -- a stable round-robin interleaving that depends only on
    *what* each client sent, never on how the kernel happened to
    schedule 100 concurrent sockets.  Two runs of the same seeded
    swarm produce byte-identical captures (equal digests), which is
    what makes live traffic usable for regression gating.

``arrival``
    The order frames actually reached the demux engine.  Truthful
    about locality and interleaving -- the thing destination-locality
    studies care about -- but unique to the run that produced it.

Frames from non-handshaken peers carry no ``(client_id, seq)``
coordinates; under ``canonical`` ordering they sort after all
handshaken traffic, by arrival.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.stats import PacketKind
from ..packet.addresses import FourTuple
from ..workload.record import RecordedStream, save_stream

__all__ = ["RecorderTap"]

#: Sort rank for frames without handshake coordinates.
_LATE = (1 << 62)


class RecorderTap:
    """Accumulates served traffic; finalizes to a RecordedStream."""

    ORDERS = ("canonical", "arrival")

    def __init__(self, *, order: str = "canonical", seed: int = 0):
        if order not in self.ORDERS:
            raise ValueError(
                f"unknown capture order {order!r};"
                f" expected one of {list(self.ORDERS)}"
            )
        self.order = order
        self.seed = seed
        # (tup, client_id) in install order; client_id None = raw peer.
        self._installs: List[Tuple[FourTuple, Optional[int]]] = []
        self._seen_tuples = set()
        # (sort_seq, sort_client, arrival_index, tup, kind)
        self._packets: List[
            Tuple[int, int, int, FourTuple, PacketKind]
        ] = []

    # -- taps ----------------------------------------------------------

    def note_install(
        self, tup: FourTuple, *, client_id: Optional[int] = None
    ) -> None:
        """A connection was accepted and installed."""
        if tup in self._seen_tuples:
            return
        self._seen_tuples.add(tup)
        self._installs.append((tup, client_id))

    def note_packet(
        self,
        tup: FourTuple,
        kind: PacketKind,
        *,
        client_id: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> None:
        """A frame was routed through the demux engine."""
        arrival = len(self._packets)
        if client_id is None or seq is None:
            self._packets.append((_LATE, _LATE, arrival, tup, kind))
        else:
            self._packets.append((seq, client_id, arrival, tup, kind))

    # -- finalization --------------------------------------------------

    @property
    def packet_count(self) -> int:
        return len(self._packets)

    @property
    def connection_count(self) -> int:
        return len(self._installs)

    def finalize(self, *, duration: float) -> RecordedStream:
        """Flatten the capture under the configured ordering.

        ``duration`` is the serving window in (adapter-virtual) wall
        seconds -- the field replay consumers report, never replay
        against.
        """
        installs = list(self._installs)
        packets = list(self._packets)
        if self.order == "canonical":
            installs.sort(
                key=lambda entry: (
                    _LATE if entry[1] is None else entry[1],
                    entry[0],
                )
            )
            packets.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        return RecordedStream(
            tuples=tuple(tup for tup, _ in installs),
            packets=tuple((tup, kind) for _, _, _, tup, kind in packets),
            n_users=len(installs),
            duration=duration,
            seed=self.seed,
            kind="live-capture",
        )

    def save(self, path: str, *, duration: float) -> str:
        """Finalize and persist; returns the capture's content digest."""
        return save_stream(self.finalize(duration=duration), path)
