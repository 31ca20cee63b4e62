"""The canary: A/B a candidate demux structure against the incumbent.

A candidate earns promotion over the incumbent on recorded traffic,
not on a benchmark: both specs replay the same capture -- mirrored
traffic, common packets down to the byte -- and :func:`run_canary`
blocks the promotion unless the candidate holds three lines at once:

1. **decisions** -- found/not-found per packet must match the
   incumbent exactly; an algorithm that resolves different PCBs is
   broken, not slow, and no throughput number redeems it;
2. **throughput** -- candidate packets/sec within ``pps_margin`` of
   the incumbent (best-of-R timing, the noisy axis);
3. **p99 examined** -- within ``examined_margin`` of the incumbent
   (plus a 1-PCB absolute grace for tiny tails), the deterministic
   axis from the paper's own figure of merit.

Live captures recorded by ``repro serve`` are the intended diet, but
any capture file (or a synthetic TPC/A stream) works; the ``canary``
CLI subcommand is the entry point.  :func:`measure_replay` is the
timing both sides share: best-of-R replays of a pre-recorded stream
with the structure rebuilt per repeat, which removes workload
generation and warm-cache luck from the clock.  Cross-change
wall-clock verdicts belong to the repository benchmark (``bench/``),
which pairs alternating runs instead.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..core.pcb import PCB
from ..core.registry import make_algorithm
from ..workload.record import RecordedStream, stream_digest

__all__ = [
    "CanaryConfig",
    "CanaryReport",
    "MAX_SWEEP_USERS",
    "Measurement",
    "measure_replay",
    "run_canary",
]

#: Largest synthetic stream the ``canary`` subcommand records.  The
#: TPC/A address plan (``TPCAConfig.user_tuple``) assigns injective
#: four-tuples well past this, and the O(1) tier is specified to 10^6
#: connections; anything larger is almost certainly a typo that would
#: grind for minutes, so it is rejected before recording starts.
MAX_SWEEP_USERS = 1_000_000


@dataclasses.dataclass(frozen=True)
class Measurement:
    """Best-of-R replay throughput for one spec on one stream."""

    algorithm: str
    n_users: int
    packets: int
    best_seconds: float
    packets_per_sec: float
    mean_examined: float
    #: 99th percentile of PCBs examined per lookup -- deterministic
    #: (unlike the clock), so the canary's second axis.
    p99_examined: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "n_users": self.n_users,
            "packets": self.packets,
            "best_seconds": round(self.best_seconds, 6),
            "packets_per_sec": round(self.packets_per_sec, 1),
            "mean_examined": round(self.mean_examined, 4),
            "p99_examined": round(self.p99_examined, 1),
        }


def measure_replay(
    spec: str,
    stream: RecordedStream,
    *,
    repeats: int = 3,
    chunk: int = 256,
) -> Measurement:
    """Time ``spec`` demultiplexing ``stream``; best-of-``repeats``.

    The structure is rebuilt and repopulated for every repeat (outside
    the timed region), so each timing starts from an identical cold
    state and only the ``lookup_batch`` calls are on the clock.
    """
    return _timed_replay(spec, stream, repeats, chunk)[0]


def _timed_replay(
    spec: str, stream: RecordedStream, repeats: int, chunk: int
) -> Tuple[Measurement, List[list]]:
    """:func:`measure_replay` plus the last repeat's batch results, from
    which the canary reads its decision flags.

    Inside the window each chunk's result list is only kept (one
    append per chunk, the same on every side and every repeat); nothing
    reads them until the caller's comparison, after every clock read.
    """
    packets = list(stream.packets)
    chunks = [
        packets[start:start + chunk]
        for start in range(0, len(packets), chunk)
    ]
    best = float("inf")
    mean_examined = 0.0
    p99_examined = 0.0
    kept: List[list] = []
    for _ in range(repeats):
        algorithm = make_algorithm(spec)
        for tup in stream.tuples:
            algorithm.insert(PCB(tup))
        lookup_batch = algorithm.lookup_batch
        kept = []
        keep = kept.append
        start_time = time.perf_counter()
        for batch in chunks:
            keep(lookup_batch(batch))
        elapsed = time.perf_counter() - start_time
        best = min(best, elapsed)
        mean_examined = algorithm.stats.mean_examined
        p99_examined = float(
            algorithm.stats.combined().percentile(0.99)
        )
    measurement = Measurement(
        algorithm=spec,
        n_users=stream.n_users,
        packets=len(packets),
        best_seconds=best,
        packets_per_sec=len(packets) / best if best > 0 else 0.0,
        mean_examined=mean_examined,
        p99_examined=p99_examined,
    )
    return measurement, kept


@dataclasses.dataclass(frozen=True)
class CanaryConfig:
    """Parameters of one canary comparison."""

    candidate: str
    incumbent: str = "fast-sequent:h=19"
    repeats: int = 3
    chunk: int = 256
    #: Fractional packets/sec shortfall the candidate may show.
    pps_margin: float = 0.05
    #: Fractional p99-examined excess the candidate may show.
    examined_margin: float = 0.10

    def __post_init__(self) -> None:
        if not self.candidate:
            raise ValueError("candidate spec must be non-empty")
        if not self.incumbent:
            raise ValueError("incumbent spec must be non-empty")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not 0.0 <= self.pps_margin < 1.0:
            raise ValueError(
                f"pps_margin must be in [0, 1), got {self.pps_margin}"
            )
        if self.examined_margin < 0.0:
            raise ValueError(
                f"examined_margin must be >= 0,"
                f" got {self.examined_margin}"
            )


@dataclasses.dataclass
class CanaryReport:
    """Verdict of one canary comparison."""

    config: CanaryConfig
    incumbent: Measurement
    candidate: Measurement
    decisions_match: bool
    blockers: List[str]
    capture: Dict[str, object]

    @property
    def promoted(self) -> bool:
        return not self.blockers

    @property
    def pps_ratio(self) -> float:
        return self.candidate.packets_per_sec / max(
            self.incumbent.packets_per_sec, 1e-9
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "verdict": "promote" if self.promoted else "block",
            "incumbent": self.incumbent.as_dict(),
            "candidate": self.candidate.as_dict(),
            "decisions_match": self.decisions_match,
            "pps_ratio": round(self.pps_ratio, 4),
            "blockers": list(self.blockers),
            "capture": dict(self.capture),
            "margins": {
                "pps": self.config.pps_margin,
                "examined": self.config.examined_margin,
            },
        }

    def render_text(self) -> str:
        lines = [
            f"canary: {self.config.candidate}"
            f" vs incumbent {self.config.incumbent}",
            f"  capture: {self.capture.get('kind', '?')},"
            f" {self.capture.get('packet_count', '?')} packets,"
            f" {self.capture.get('connections', '?')} connections"
            f" (digest {str(self.capture.get('digest', ''))[:12]}...)",
            f"  {'':<12} {'pkts/sec':>12} {'PCBs/pkt':>9} {'p99':>6}",
        ]
        for label, m in (
            ("incumbent", self.incumbent),
            ("candidate", self.candidate),
        ):
            lines.append(
                f"  {label:<12} {m.packets_per_sec:>12,.0f}"
                f" {m.mean_examined:>9.2f} {m.p99_examined:>6.0f}"
            )
        lines.append(
            f"  throughput ratio: {self.pps_ratio:.2f}x"
            f" (floor {1.0 - self.config.pps_margin:.2f}x),"
            f" decisions {'match' if self.decisions_match else 'DIFFER'}"
        )
        if self.promoted:
            lines.append("  verdict: PROMOTE")
        else:
            lines.append("  verdict: BLOCK")
            lines.extend(f"    - {reason}" for reason in self.blockers)
        return "\n".join(lines)


def run_canary(
    stream: RecordedStream,
    config: CanaryConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> CanaryReport:
    """A/B the candidate against the incumbent on one capture."""
    say = progress if progress is not None else (lambda message: None)
    say(f"replaying capture through incumbent {config.incumbent}")
    incumbent, incumbent_results = _timed_replay(
        config.incumbent, stream, config.repeats, config.chunk
    )
    say(f"replaying capture through candidate {config.candidate}")
    candidate, candidate_results = _timed_replay(
        config.candidate, stream, config.repeats, config.chunk
    )
    say("comparing decision traces")
    decisions_match = all(
        [a.found for a in ours] == [b.found for b in theirs]
        for ours, theirs in zip(incumbent_results, candidate_results)
    )

    blockers: List[str] = []
    if not decisions_match:
        blockers.append(
            "decision mismatch: candidate resolves different PCBs"
            " than the incumbent on this capture"
        )
    pps_floor = (1.0 - config.pps_margin) * incumbent.packets_per_sec
    if candidate.packets_per_sec < pps_floor:
        shortfall = 1.0 - candidate.packets_per_sec / max(
            incumbent.packets_per_sec, 1e-9
        )
        blockers.append(
            f"throughput: {candidate.packets_per_sec:,.0f} pkts/sec is"
            f" {shortfall:.1%} below incumbent"
            f" {incumbent.packets_per_sec:,.0f}"
            f" (margin {config.pps_margin:.0%})"
        )
    examined_ceiling = max(
        incumbent.p99_examined * (1.0 + config.examined_margin),
        incumbent.p99_examined + 1.0,
    )
    if candidate.p99_examined > examined_ceiling:
        blockers.append(
            f"p99 examined: {candidate.p99_examined:.0f} PCBs exceeds"
            f" ceiling {examined_ceiling:.1f}"
            f" (incumbent {incumbent.p99_examined:.0f},"
            f" margin {config.examined_margin:.0%})"
        )

    return CanaryReport(
        config=config,
        incumbent=incumbent,
        candidate=candidate,
        decisions_match=decisions_match,
        blockers=blockers,
        capture={
            "kind": stream.kind,
            "seed": stream.seed,
            "connections": len(stream.tuples),
            "packet_count": len(stream.packets),
            "duration": stream.duration,
            "digest": stream_digest(stream),
        },
    )
