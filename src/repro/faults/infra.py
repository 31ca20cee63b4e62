"""Infrastructure fault models: the *host* misbehaves, not the link.

The models in :mod:`repro.faults.models` corrupt traffic in flight;
these corrupt the demultiplexing machinery itself -- the failure domain
:mod:`repro.recovery` exists to survive:

* :class:`ShardCrash` -- ``crash=K:W``: K distinct shards lose their
  index structures at seeded packet offsets within the first W
  packets.  Drives :meth:`~repro.recovery.ShardSupervisor.crash_shard`.
* :class:`ShardStall` -- ``stall=K:W:D``: K shards go unresponsive for
  D packets each (steered packets dropped), then resume with state
  intact -- a wedged worker, not a dead one.  Drives
  :meth:`~repro.recovery.ShardSupervisor.stall_shard`.
* :class:`SnapshotCorruption` -- ``snapcorrupt=P[:bits]``: each
  checkpoint written is, with probability P, hit by ``bits`` random
  bit flips -- storage rot the snapshot checksum must catch at
  restore time.

Like the link models, every stochastic decision is seeded and
deterministic: an identical (seed, spec) pair replays an identical
crash/stall/corruption schedule.  The terms extend the link grammar of
:mod:`repro.faults.config` -- :func:`parse_mixed_spec` splits one
comma-separated string (``"ge=0.05:0.45,crash=1:500,snapcorrupt=0.2"``)
into its link and infrastructure pipelines, sharing
:class:`~repro.faults.config.FaultSpecError` for malformed terms.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from ..sim.rng import derive_seed
from .config import FaultSpecError, _floats, _MAKERS, _parse_terms
from .models import FaultModel

__all__ = [
    "InfraFault",
    "ShardCrash",
    "ShardStall",
    "SnapshotCorruption",
    "parse_mixed_spec",
]


class InfraFault:
    """Base class for infrastructure (host-side) fault models."""

    #: Machine-readable fault name (spec key, rng stream suffix).
    name = "infra"

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise FaultSpecError(f"{name} must be >= 1, got {value}")


class ShardCrash(InfraFault):
    """K shard crashes at seeded packet offsets within a window.

    :meth:`schedule` materializes the concrete ``(packet_index,
    shard)`` events for a given shard count and seed; the scenario
    driver (the drill, the CLI) fires
    :meth:`~repro.recovery.ShardSupervisor.crash_shard` when the
    packet counter passes each offset.
    """

    name = "crash"

    def __init__(self, count: int = 1, window: int = 1000) -> None:
        _check_positive("crash count", count)
        _check_positive("crash window", window)
        self.count = count
        self.window = window

    def schedule(self, nshards: int, seed: int) -> List[Tuple[int, int]]:
        """Deterministic ``(packet_index, shard)`` events, time-ordered.

        Shards are sampled without replacement (a shard crashes at
        most once per schedule); at most ``nshards - 1`` crash so the
        structure always keeps a survivor.  With a single shard there
        is no survivor to keep, so no crash is scheduled at all.
        """
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        if nshards == 1:
            return []
        rng = random.Random(derive_seed(seed, f"infra:{self.name}"))
        ncrashes = min(self.count, nshards - 1)
        shards = rng.sample(range(nshards), ncrashes)
        return sorted(
            (rng.randrange(1, self.window + 1), shard) for shard in shards
        )

    def describe(self) -> str:
        return f"{self.name}(count={self.count}, window={self.window})"


class ShardStall(InfraFault):
    """K temporary shard stalls: D dropped packets each, then resume."""

    name = "stall"

    def __init__(
        self, count: int = 1, window: int = 1000, duration: int = 100
    ) -> None:
        _check_positive("stall count", count)
        _check_positive("stall window", window)
        _check_positive("stall duration", duration)
        self.count = count
        self.window = window
        self.duration = duration

    def schedule(
        self, nshards: int, seed: int
    ) -> List[Tuple[int, int, int]]:
        """Deterministic ``(packet_index, shard, duration)`` events."""
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        rng = random.Random(derive_seed(seed, f"infra:{self.name}"))
        shards = rng.sample(range(nshards), min(self.count, nshards))
        return sorted(
            (rng.randrange(1, self.window + 1), shard, self.duration)
            for shard in shards
        )

    def describe(self) -> str:
        return (
            f"{self.name}(count={self.count}, window={self.window},"
            f" duration={self.duration})"
        )


class SnapshotCorruption(InfraFault):
    """Seeded bit rot applied to checkpoint blobs as they are written.

    The supervisor passes every checkpoint through :meth:`mangle`;
    with probability ``probability`` the blob comes back with ``bits``
    random bit flips.  The point is not the flips -- it is that the
    snapshot layer's checksum *must* reject the blob at restore time
    instead of silently rebuilding a wrong structure.
    """

    name = "snapcorrupt"

    def __init__(self, probability: float, bits: int = 1) -> None:
        if not 0.0 <= probability <= 1.0:
            raise FaultSpecError(
                f"corruption probability must be in [0, 1], got {probability}"
            )
        _check_positive("corruption bits", bits)
        self.probability = probability
        self.bits = bits
        self._rng = random.Random(0)
        self.corrupted = 0

    def bind_seed(self, seed: int) -> None:
        """Re-seed the corruption stream (call once per scenario)."""
        self._rng = random.Random(derive_seed(seed, f"infra:{self.name}"))
        self.corrupted = 0

    def mangle(self, blob: bytes) -> bytes:
        """The blob as storage returns it: usually intact, sometimes not."""
        if not blob or self._rng.random() >= self.probability:
            return blob
        mutable = bytearray(blob)
        for _ in range(self.bits):
            position = self._rng.randrange(len(mutable) * 8)
            mutable[position // 8] ^= 1 << (position % 8)
        self.corrupted += 1
        return bytes(mutable)

    def describe(self) -> str:
        return f"{self.name}(p={self.probability}, bits={self.bits})"


def _make_crash(text: str) -> InfraFault:
    values = _floats("crash", text, 1, 2)
    window = int(values[1]) if len(values) == 2 else 1000
    return ShardCrash(int(values[0]), window)


def _make_stall(text: str) -> InfraFault:
    values = _floats("stall", text, 1, 3)
    window = int(values[1]) if len(values) >= 2 else 1000
    duration = int(values[2]) if len(values) == 3 else 100
    return ShardStall(int(values[0]), window, duration)


def _make_snapcorrupt(text: str) -> InfraFault:
    values = _floats("snapcorrupt", text, 1, 2)
    bits = int(values[1]) if len(values) == 2 else 1
    return SnapshotCorruption(values[0], bits)


_INFRA_MAKERS: Dict[str, Callable[[str], InfraFault]] = {
    "crash": _make_crash,
    "stall": _make_stall,
    "snapcorrupt": _make_snapcorrupt,
}


def parse_mixed_spec(
    spec: str,
) -> Tuple[List[FaultModel], List[InfraFault]]:
    """Split one spec into (link models, infrastructure faults).

    One flag can describe a whole scenario::

        parse_mixed_spec("ge=0.05:0.45,crash=1:500,snapcorrupt=0.2")

    gives the Gilbert-Elliott pipeline for the link and the crash +
    corruption schedule for the host.  Terms are routed by name;
    unknown names raise :class:`FaultSpecError` listing both
    vocabularies.
    """
    link, infra = _parse_terms(spec, _MAKERS, _INFRA_MAKERS)
    return link, infra
