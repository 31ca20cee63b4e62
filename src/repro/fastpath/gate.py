"""The benchmark-regression gate: packets/sec across PRs.

Every earlier ``BENCH_*.json`` artifact is a one-shot snapshot; nothing
compared run N against run N-1, so a wall-clock regression could land
silently as long as decisions stayed right.  ``bench-gate`` closes that
hole: it replays the same recorded TPC/A streams (common random
numbers, the house methodology) through the reference structures and
their ``fast-*`` twins, measures packets demultiplexed per second,
appends a dated entry to ``BENCH_trajectory.json``, and fails when any
measured configuration regresses more than ``threshold`` (default 10%)
against the most recent comparable entry.

Baselines are matched on the full measurement key -- algorithm spec,
connection count, stream duration, and seed -- so a ``--quick`` run
never gates against a full run's numbers, and only against entries
stamped with the same host fingerprint, so one machine's best run never
gates another machine.  Timing uses best-of-R
replays of a pre-recorded stream with the structure rebuilt per repeat,
which removes workload generation and warm-cache luck from the clock.

CI runs the gate warn-only (shared runners jitter well past 10%); the
hard gate is for local, same-machine trajectories.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..core.pcb import PCB
from ..core.registry import make_algorithm
from ..workload.record import RecordedStream, record_tpca_stream

__all__ = [
    "CanaryConfig",
    "CanaryReport",
    "DEFAULT_PAIRS",
    "GateConfig",
    "GateReport",
    "MAX_SWEEP_USERS",
    "Measurement",
    "host_fingerprint",
    "measure_replay",
    "run_canary",
    "run_gate",
    "QUICK_CONFIG",
    "SCALE_CONFIG",
    "SCALE_PAIRS",
]

#: (reference spec, fast twin spec) pairs the standard sweep compares.
DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("linear", "fast-linear"),
    ("bsd", "fast-bsd"),
    ("mtf", "fast-mtf"),
    ("sequent:h=19", "fast-sequent:h=19"),
    ("hashed_mtf:h=19", "fast-hashed_mtf:h=19"),
)

#: Largest connection count the sweep accepts.  The TPC/A address plan
#: (``TPCAConfig.user_tuple``) assigns injective four-tuples well past
#: this, and the O(1) tier is specified to 10^6 connections; anything
#: larger is almost certainly a typo that would grind for hours, so it
#: is rejected up front instead of discovered at the third repeat.
MAX_SWEEP_USERS = 1_000_000


@dataclasses.dataclass(frozen=True)
class GateConfig:
    """Parameters of one bench-gate run."""

    pairs: Tuple[Tuple[str, str], ...] = DEFAULT_PAIRS
    #: Connection counts swept (the paper's N axis).
    n_sweep: Tuple[int, ...] = (100, 300, 1000)
    #: Simulated seconds of TPC/A traffic per stream.
    duration: float = 30.0
    seed: int = 7
    #: Timed replays per configuration; best-of-R is recorded.
    repeats: int = 3
    #: Packets per ``lookup_batch`` call during the replay.
    chunk: int = 256
    #: Fractional packets/sec drop that fails the gate.
    threshold: float = 0.10
    #: When set, every replay runs with a :class:`ConnectionReaper`
    #: (idle timeout in simulated seconds) advancing virtual time
    #: alongside the packet stream, so idle flows are reaped and the
    #: structure's memory stays bounded during million-connection
    #: sweeps.  Reaped runs get their own baseline key: reaping
    #: changes the workload, so they never gate against unreaped runs.
    reap_idle: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("need at least one (reference, fast) pair")
        if not self.n_sweep:
            raise ValueError("need at least one connection count to sweep")
        for n_users in self.n_sweep:
            if not isinstance(n_users, int) or n_users < 1:
                raise ValueError(
                    f"connection counts must be positive integers,"
                    f" got {n_users!r}"
                )
            if n_users > MAX_SWEEP_USERS:
                raise ValueError(
                    f"connection count {n_users} exceeds the sweep bound"
                    f" {MAX_SWEEP_USERS}"
                )
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {self.threshold}"
            )
        if self.reap_idle is not None and self.reap_idle <= 0:
            raise ValueError(
                f"reap_idle must be positive, got {self.reap_idle}"
            )


#: The reduced configuration behind ``bench-gate --quick``.
QUICK_CONFIG = GateConfig(
    n_sweep=(60, 200), duration=10.0, repeats=2
)

#: The million-connection tier behind ``bench-gate --scale``: the best
#: chained structure against the O(1) cuckoo table at 10^4-10^5
#: connections (pass ``--users 1000000`` for the full tier).  Short
#: streams and one repeat -- at this N the point is the *scaling shape*
#: (chained p99 examined grows with N/H, cuckoo stays flat), not
#: clock precision.
SCALE_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("fast-sequent:h=19", "fast-cuckoo"),
)

SCALE_CONFIG = GateConfig(
    pairs=SCALE_PAIRS,
    n_sweep=(10_000, 100_000),
    duration=4.0,
    repeats=1,
    chunk=512,
)


@dataclasses.dataclass(frozen=True)
class Measurement:
    """Best-of-R replay throughput for one (spec, N) cell."""

    algorithm: str
    n_users: int
    packets: int
    best_seconds: float
    packets_per_sec: float
    mean_examined: float
    #: 99th percentile of PCBs examined per lookup -- deterministic
    #: (unlike the clock), so the canary's second axis.
    p99_examined: float = 0.0

    def key(self, config: GateConfig) -> str:
        """Baseline-matching key: spec + workload parameters."""
        key = (
            f"{self.algorithm}@n={self.n_users}"
            f";d={config.duration:g};seed={config.seed}"
        )
        if config.reap_idle is not None:
            key += f";reap={config.reap_idle:g}"
        return key

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
    reap_idle: Optional[float] = None,
) -> Measurement:
    """Time ``spec`` demultiplexing ``stream``; best-of-``repeats``.

    The structure is rebuilt and repopulated for every repeat (outside
    the timed region), so each timing starts from an identical cold
    state and only the lookup hot path is on the clock.

    With ``reap_idle`` set, a :class:`~repro.lifecycle.reaper
    .ConnectionReaper` rides along: virtual time advances uniformly
    across the replay (``stream.duration`` spread over the chunks) and
    flows idle longer than ``reap_idle`` simulated seconds are removed
    mid-replay, bounding the structure's live population the way a real
    stack's timers would.  The reaper rides the batched path (one touch
    call per chunk); the reaped/unreaped split in
    :meth:`Measurement.key` keeps their baselines separate.
    """
    from ..lifecycle.reaper import ConnectionReaper  # lazy: layering

    packets = list(stream.packets)
    chunks = [
        packets[start:start + chunk]
        for start in range(0, len(packets), chunk)
    ]
    best = float("inf")
    mean_examined = 0.0
    p99_examined = 0.0
    for _ in range(repeats):
        algorithm = make_algorithm(spec)
        for tup in stream.tuples:
            algorithm.insert(PCB(tup))
        reaper = (
            ConnectionReaper(algorithm, idle_timeout=reap_idle)
            if reap_idle is not None
            else None
        )
        dt = stream.duration / len(chunks) if chunks else 0.0
        lookup_batch = algorithm.lookup_batch
        start_time = time.perf_counter()
        for position, batch in enumerate(chunks):
            lookup_batch(batch)
            if reaper is not None:
                reaper.advance((position + 1) * dt)
        elapsed = time.perf_counter() - start_time
        best = min(best, elapsed)
        mean_examined = algorithm.stats.mean_examined
        p99_examined = float(
            algorithm.stats.combined().percentile(0.99)
        )
    return Measurement(
        algorithm=spec,
        n_users=stream.n_users,
        packets=len(packets),
        best_seconds=best,
        packets_per_sec=len(packets) / best if best > 0 else 0.0,
        mean_examined=mean_examined,
        p99_examined=p99_examined,
    )


@dataclasses.dataclass
class GateReport:
    """Outcome of one gate run: the appended entry plus verdicts."""

    entry: Dict[str, object]
    regressions: List[str]
    trajectory_path: str

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render_text(self) -> str:
        lines = [
            f"bench-gate {self.entry['date']}"
            f" (seed {self.entry['config']['seed']},"
            f" duration {self.entry['config']['duration']}s)"
        ]
        lines.append(
            f"  {'algorithm':<24} {'N':>5} {'packets':>8}"
            f" {'pkts/sec':>12} {'PCBs/pkt':>9}"
        )
        for result in self.entry["results"]:
            lines.append(
                f"  {result['algorithm']:<24} {result['n_users']:>5}"
                f" {result['packets']:>8}"
                f" {result['packets_per_sec']:>12,.0f}"
                f" {result['mean_examined']:>9.2f}"
            )
        lines.append("  speedups (fast vs reference):")
        for speedup in self.entry["speedups"]:
            lines.append(
                f"    {speedup['fast']:<24} N={speedup['n_users']:<5}"
                f" {speedup['speedup']:.2f}x"
            )
        if self.regressions:
            lines.append("  REGRESSIONS (>threshold drop in pkts/sec):")
            lines.extend(f"    {item}" for item in self.regressions)
        else:
            lines.append("  no regressions against recorded baseline")
        lines.append(f"  trajectory: {self.trajectory_path}")
        return "\n".join(lines)


def _load_trajectory(path: str) -> Dict[str, object]:
    if not os.path.exists(path):
        return {"entries": []}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, list):  # tolerate a bare-list file
        data = {"entries": data}
    data.setdefault("entries", [])
    return data


def host_fingerprint() -> Dict[str, object]:
    """The host a measurement ran on: nproc, python, numpy, platform."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _baselines(
    trajectory: Dict[str, object], host: Dict[str, object]
) -> Dict[str, float]:
    """Best recorded packets/sec per measurement key on ``host``.

    Entries stamped with another host, or with none, are skipped:
    wall-clock numbers only compare on the machine that made them.

    The gate must compare against each key's trajectory *maximum*, not
    its latest entry: last-write-wins would let a sequence of
    sub-threshold drops ratchet the baseline down -- each run 9% slower
    than the one before it passes forever, compounding unnoticed.
    Against the maximum, slow drift accumulates until it trips the
    threshold once, exactly as a single large regression would.
    """
    baselines: Dict[str, float] = {}
    for entry in trajectory["entries"]:
        if entry.get("host") != host:
            continue
        for result in entry.get("results", []):
            config = entry.get("config", {})
            key = (
                f"{result['algorithm']}@n={result['n_users']}"
                f";d={config.get('duration', 0):g}"
                f";seed={config.get('seed', 0)}"
            )
            reap_idle = config.get("reap_idle")
            if reap_idle is not None:
                key += f";reap={reap_idle:g}"
            value = float(result["packets_per_sec"])
            baselines[key] = max(baselines.get(key, value), value)
    return baselines


def run_gate(
    config: GateConfig = GateConfig(),
    trajectory_path: str = "BENCH_trajectory.json",
    *,
    append: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> GateReport:
    """Run the sweep, compare against the trajectory, append, report.

    The new entry is appended (and the file rewritten) even when the
    run regresses -- the trajectory is the record, and hiding bad runs
    from it would defeat the point; the nonzero exit is the gate.
    """
    say = progress if progress is not None else (lambda message: None)
    trajectory = _load_trajectory(trajectory_path)
    host = host_fingerprint()
    baselines = _baselines(trajectory, host)

    results: List[Measurement] = []
    speedups: List[Dict[str, object]] = []
    for n_users in config.n_sweep:
        say(f"recording TPC/A stream N={n_users}")
        stream = record_tpca_stream(n_users, config.duration, config.seed)
        for reference_spec, fast_spec in config.pairs:
            pair_measurements = {}
            for spec in (reference_spec, fast_spec):
                say(f"measuring {spec} at N={n_users}")
                measurement = measure_replay(
                    spec,
                    stream,
                    repeats=config.repeats,
                    chunk=config.chunk,
                    reap_idle=config.reap_idle,
                )
                results.append(measurement)
                pair_measurements[spec] = measurement
            reference = pair_measurements[reference_spec]
            fast = pair_measurements[fast_spec]
            speedups.append(
                {
                    "reference": reference_spec,
                    "fast": fast_spec,
                    "n_users": n_users,
                    "speedup": round(
                        fast.packets_per_sec
                        / max(reference.packets_per_sec, 1e-9),
                        2,
                    ),
                }
            )

    regressions: List[str] = []
    for measurement in results:
        key = measurement.key(config)
        baseline = baselines.get(key)
        if baseline is None or baseline <= 0:
            continue
        floor = (1.0 - config.threshold) * baseline
        if measurement.packets_per_sec < floor:
            drop = 1.0 - measurement.packets_per_sec / baseline
            regressions.append(
                f"{key}: {measurement.packets_per_sec:,.0f} pkts/sec"
                f" vs baseline {baseline:,.0f} ({drop:.1%} drop)"
            )

    entry: Dict[str, object] = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "host": host,
        "config": {
            "n_sweep": list(config.n_sweep),
            "duration": config.duration,
            "seed": config.seed,
            "repeats": config.repeats,
            "chunk": config.chunk,
            "threshold": config.threshold,
            "reap_idle": config.reap_idle,
        },
        "results": [measurement.as_dict() for measurement in results],
        "speedups": speedups,
        "regressions": list(regressions),
    }
    if append:
        trajectory["entries"].append(entry)
        with open(trajectory_path, "w", encoding="utf-8") as handle:
            json.dump(trajectory, handle, indent=1)
            handle.write("\n")
    return GateReport(
        entry=entry,
        regressions=regressions,
        trajectory_path=trajectory_path,
    )


# -- the canary gate ----------------------------------------------------
#
# ``bench-gate --canary`` answers a different question from the sweep:
# not "did the code get slower since last run" but "is this *candidate*
# algorithm safe to promote over the incumbent, on this traffic".  Both
# specs replay the same capture (mirrored traffic: common packets, down
# to the byte), and promotion requires the candidate to hold three
# lines at once:
#
# 1. **decisions** -- found/not-found per packet must match the
#    incumbent exactly; an algorithm that resolves different PCBs is
#    broken, not slow, and no throughput number redeems it;
# 2. **throughput** -- candidate packets/sec within ``pps_margin`` of
#    the incumbent (best-of-R timing, the noisy axis);
# 3. **p99 examined** -- within ``examined_margin`` of the incumbent
#    (plus a 1-PCB absolute grace for tiny tails), the deterministic
#    axis from the paper's own figure of merit.
#
# Live captures recorded by ``repro serve`` are the intended diet --
# this is how a structure earns its promotion on *real* traffic -- but
# any capture file (or a synthetic stream) works.

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


def _found_trace(spec: str, stream: RecordedStream) -> List[bool]:
    """Per-packet found/not-found through ``spec`` (deterministic)."""
    algorithm = make_algorithm(spec)
    for tup in stream.tuples:
        algorithm.insert(PCB(tup))
    return [
        result.found
        for result in algorithm.lookup_batch(list(stream.packets))
    ]


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
    from ..workload.record import stream_digest

    say = progress if progress is not None else (lambda message: None)
    say(f"replaying capture through incumbent {config.incumbent}")
    incumbent = measure_replay(
        config.incumbent, stream,
        repeats=config.repeats, chunk=config.chunk,
    )
    say(f"replaying capture through candidate {config.candidate}")
    candidate = measure_replay(
        config.candidate, stream,
        repeats=config.repeats, chunk=config.chunk,
    )
    say("comparing decision traces")
    decisions_match = _found_trace(
        config.incumbent, stream
    ) == _found_trace(config.candidate, stream)

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
