"""The recovery drill: prove warm restore beats cold rebuild, with MTTR.

A drill runs three copies of one sharded algorithm over the *same*
deterministic packet stream:

* **baseline** -- never crashes;
* **warm** -- supervised with periodic checkpoints; one shard is
  killed mid-run and recovered from checkpoint + delta replay;
* **cold** -- supervised with checkpoints disabled; the same shard is
  killed at the same packet and rebuilt by re-inserting survivors.

Detection is immediate (``detect_after=0``), so no packets are lost
and the comparison isolates *state* recovery: the warm copy must stay
decision-identical to the baseline -- every (found, examined,
cache_hit) triple, before and after the crash -- while the cold copy
is allowed to diverge in cost (never in correctness: found/not-found
must still match) and pays for its lost warmth in examined PCBs.

The traffic is a hot-set skewed stream (by default 80% of packets to
10% of connections) rather than uniform TPC/A: under uniform traffic
recency order is worthless and warm vs. cold would tie.  Skew is the
regime where the paper's caches and MTF earn their keep -- Jain's
packet-train locality -- and therefore the regime where losing warmth
costs.  The drill quantifies that cost on the packets steered at the
crashed shard during a post-recovery window, and records each
recovery's MTTR against a budget.

``python -m repro.cli recovery-drill`` runs this and writes
``results/recovery_drill.{txt,json}``; CI runs it with two seeds and
fails on any divergence, inverted cost gap, or blown MTTR budget.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.registry import make_algorithm
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple
from ..sim.rng import derive_seed
from ..smp.sharded import ShardedDemux
from .supervisor import ShardSupervisor

__all__ = ["DrillConfig", "DrillCell", "DrillResult", "run_recovery_drill"]


@dataclasses.dataclass(frozen=True)
class DrillConfig:
    """One drill campaign: algorithms x seeds, shared scenario shape."""

    algorithms: Sequence[str] = (
        "sharded-fast-mtf:shards=4",
        "sharded-fast-hashed_mtf:shards=4,h=7",
    )
    seeds: Sequence[int] = (1, 2)
    #: Connections installed before traffic starts.
    n_users: int = 200
    #: Traffic packets after the install phase.
    n_packets: int = 6000
    #: Supervisor checkpoint cadence for the warm copy (operations).
    checkpoint_every: int = 500
    #: The crash lands at ``int(n_packets * crash_fraction)``.
    crash_fraction: float = 0.5
    #: Post-recovery packets over which examined-cost is compared.
    post_window: int = 1500
    #: Every recovery must repair faster than this.
    mttr_budget_ms: float = 5000.0
    #: Fraction of connections in the hot set...
    hot_fraction: float = 0.1
    #: ...receiving this fraction of the traffic.
    hot_weight: float = 0.8

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("need at least one algorithm spec")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.n_users < 2 or self.n_packets < 10:
            raise ValueError("drill population/traffic too small to measure")
        if not 0.0 < self.crash_fraction < 1.0:
            raise ValueError(
                f"crash_fraction must be in (0, 1), got {self.crash_fraction}"
            )
        if not 0.0 < self.hot_fraction < 1.0:
            raise ValueError(
                f"hot_fraction must be in (0, 1), got {self.hot_fraction}"
            )
        if not 0.0 < self.hot_weight < 1.0:
            raise ValueError(
                f"hot_weight must be in (0, 1), got {self.hot_weight}"
            )


@dataclasses.dataclass
class DrillCell:
    """One (algorithm, seed) drill outcome."""

    spec: str
    seed: int
    crashed_shard: int
    crash_at: int
    #: Warm-vs-baseline decision mismatches (must be 0).
    warm_divergence: int
    #: Cold-vs-baseline found/not-found mismatches (must be 0).
    cold_found_divergence: int
    #: Examined PCBs on crashed-shard packets in the post window.
    baseline_cost: int
    warm_cost: int
    cold_cost: int
    #: Packets the window actually steered at the crashed shard.
    window_packets: int
    mttr_ms: float
    warm_summary: Dict[str, Any]
    cold_summary: Dict[str, Any]
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cold_penalty(self) -> float:
        """Cold examined-cost relative to warm (>1 means warmth won)."""
        return self.cold_cost / self.warm_cost if self.warm_cost else 0.0

    def as_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["ok"] = self.ok
        data["cold_penalty"] = self.cold_penalty
        return data


@dataclasses.dataclass
class DrillResult:
    """A full drill campaign, ready for artifacts."""

    config: DrillConfig
    cells: List[DrillCell]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def mttr_ms_max(self) -> float:
        return max((cell.mttr_ms for cell in self.cells), default=0.0)

    def to_json(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "mttr_ms_max": self.mttr_ms_max,
            "mttr_budget_ms": self.config.mttr_budget_ms,
            "config": dataclasses.asdict(self.config),
            "cells": [cell.as_dict() for cell in self.cells],
        }

    def render_text(self) -> str:
        lines = [
            "recovery drill: warm restore vs cold rebuild",
            f"  {len(self.cells)} cells"
            f" ({len(self.config.algorithms)} algorithms x"
            f" {len(self.config.seeds)} seeds),"
            f" crash at {self.config.crash_fraction:.0%} of"
            f" {self.config.n_packets} packets,"
            f" hot set {self.config.hot_fraction:.0%} of"
            f" {self.config.n_users} users"
            f" taking {self.config.hot_weight:.0%} of traffic",
            "",
            f"  {'algorithm':40s} {'seed':>4s} {'shard':>5s}"
            f" {'warm-div':>8s} {'warm-cost':>9s} {'cold-cost':>9s}"
            f" {'penalty':>7s} {'mttr-ms':>8s}  status",
        ]
        for cell in self.cells:
            status = "ok" if cell.ok else "FAIL: " + "; ".join(cell.failures)
            lines.append(
                f"  {cell.spec:40s} {cell.seed:>4d} {cell.crashed_shard:>5d}"
                f" {cell.warm_divergence:>8d} {cell.warm_cost:>9d}"
                f" {cell.cold_cost:>9d} {cell.cold_penalty:>7.2f}"
                f" {cell.mttr_ms:>8.2f}  {status}"
            )
        lines.append("")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"  {verdict}: max MTTR {self.mttr_ms_max:.2f} ms"
            f" (budget {self.config.mttr_budget_ms:.0f} ms)"
        )
        return "\n".join(lines)


def _drill_tuple(index: int) -> FourTuple:
    return FourTuple(
        "10.0.0.1", 8000, f"10.{index // 65536}.{(index // 256) % 256}.{index % 256}",
        1024 + (index % 60000),
    )


def hot_set_stream(
    config: DrillConfig, seed: int
) -> Tuple[List[FourTuple], List[Tuple[FourTuple, PacketKind]]]:
    """The drill's deterministic skewed workload.

    Returns ``(users, packets)``: the connections to install (in
    order) and the traffic that follows.  The hot set is the first
    ``hot_fraction`` of users; each packet picks hot-vs-cold by
    ``hot_weight``, uniform within the chosen set, 70/30 data/ack.
    """
    rng = random.Random(derive_seed(seed, "recovery-drill:stream"))
    users = [_drill_tuple(i) for i in range(config.n_users)]
    n_hot = max(1, int(config.n_users * config.hot_fraction))
    hot, cold = users[:n_hot], users[n_hot:]
    packets: List[Tuple[FourTuple, PacketKind]] = []
    for _ in range(config.n_packets):
        pool = hot if rng.random() < config.hot_weight else cold
        tup = pool[rng.randrange(len(pool))]
        kind = PacketKind.DATA if rng.random() < 0.7 else PacketKind.ACK
        packets.append((tup, kind))
    return users, packets


def _run_cell(config: DrillConfig, spec: str, seed: int) -> DrillCell:
    users, packets = hot_set_stream(config, seed)

    baseline = make_algorithm(spec)
    if not isinstance(baseline, ShardedDemux):
        raise ValueError(f"recovery drill needs a sharded spec, got {spec!r}")
    warm = ShardSupervisor(
        make_algorithm(spec), checkpoint_every=config.checkpoint_every
    )
    cold = ShardSupervisor(make_algorithm(spec), checkpoint_every=0)

    for tup in users:
        baseline.insert(PCB(tup))
        warm.insert(PCB(tup))
        cold.insert(PCB(tup))

    crash_at = int(config.n_packets * config.crash_fraction)
    crashed_shard = random.Random(
        derive_seed(seed, "recovery-drill:crash")
    ).randrange(baseline.nshards)

    warm_divergence = 0
    cold_found_divergence = 0
    baseline_cost = warm_cost = cold_cost = 0
    window_packets = 0
    window_end = crash_at + config.post_window

    for position, (tup, kind) in enumerate(packets):
        if position == crash_at:
            warm.crash_shard(crashed_shard)
            cold.crash_shard(crashed_shard)
        rb = baseline.lookup(tup, kind)
        rw = warm.lookup(tup, kind)
        rc = cold.lookup(tup, kind)
        if (rb.found, rb.examined, rb.cache_hit) != (
            rw.found, rw.examined, rw.cache_hit
        ):
            warm_divergence += 1
        if rb.found != rc.found:
            cold_found_divergence += 1
        if (
            crash_at <= position < window_end
            and baseline.target_of(tup) == crashed_shard
        ):
            window_packets += 1
            baseline_cost += rb.examined
            warm_cost += rw.examined
            cold_cost += rc.examined

    mttrs = [event.mttr_ms for event in warm.events] + [
        event.mttr_ms for event in cold.events
    ]
    mttr_ms = max(mttrs, default=0.0)

    failures: List[str] = []
    if warm_divergence:
        failures.append(
            f"warm restore diverged on {warm_divergence} packets"
        )
    if cold_found_divergence:
        failures.append(
            f"cold rebuild lost {cold_found_divergence} connections"
        )
    if not any(e.mode == "warm" for e in warm.events):
        failures.append("warm copy did not recover from a checkpoint")
    if not warm.events or not cold.events:
        failures.append("a supervisor never recovered its crashed shard")
    if warm_cost >= cold_cost:
        failures.append(
            f"warm restore did not beat cold rebuild"
            f" ({warm_cost} >= {cold_cost} examined)"
        )
    if mttr_ms > config.mttr_budget_ms:
        failures.append(
            f"MTTR {mttr_ms:.2f} ms over budget"
            f" {config.mttr_budget_ms:.0f} ms"
        )

    return DrillCell(
        spec=spec,
        seed=seed,
        crashed_shard=crashed_shard,
        crash_at=crash_at,
        warm_divergence=warm_divergence,
        cold_found_divergence=cold_found_divergence,
        baseline_cost=baseline_cost,
        warm_cost=warm_cost,
        cold_cost=cold_cost,
        window_packets=window_packets,
        mttr_ms=mttr_ms,
        warm_summary=warm.recovery_summary(),
        cold_summary=cold.recovery_summary(),
        failures=failures,
    )


def run_recovery_drill(config: Optional[DrillConfig] = None) -> DrillResult:
    """Run the full campaign: every algorithm spec across every seed."""
    config = config if config is not None else DrillConfig()
    cells = [
        _run_cell(config, spec, seed)
        for spec in config.algorithms
        for seed in config.seeds
    ]
    return DrillResult(config=config, cells=cells)
