"""The ``smp-sweep`` experiment: shard count x steering x batch size.

Every cell replays the *same* recorded TPC/A packet stream (common
random numbers: one stream per seed) through one configuration --
unsharded baseline, or a :class:`~repro.smp.sharded.ShardedDemux` of S
shards behind a steering policy, with or without interrupt-coalescing
batches -- and reports the measured demux cost plus the SMP
memory-operation cost from :mod:`repro.smp.contention`.  Cells are
pure functions of their parameters, so the sweep fans out over
:func:`repro.smp.parallel.run_tasks` and the artifacts are
byte-identical for any ``--jobs`` value.

The sweep evaluates three acceptance criteria in-band and records the
verdicts in its JSON (``smp_sweep.json``):

1. hash steering keeps the load imbalance factor <= 1.25 at the
   largest shard count;
2. mean SMP cost is monotonically non-increasing in shard count for
   hash steering (sharding never hurts, because shorter per-shard
   scans dominate the constant steering surcharge);
3. batch-sorted coalescing strictly reduces mean PCBs examined versus
   unbatched delivery on the unsharded structures (synthetic trains
   feed the single-entry caches).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.pcb import PCB
from ..core.registry import make_algorithm
from ..workload.record import record_tpca_stream
from .coalesce import BatchCoalescer
from .contention import ContentionModel, build_report
from .parallel import RetryLog, Task, run_tasks
from .sharded import ShardedDemux
from .steering import make_steering

__all__ = [
    "SMPSweepConfig",
    "SweepResult",
    "run_smp_sweep",
    "write_sweep_artifacts",
]

#: Steering label used for unsharded baseline cells.
BASELINE = "none"

#: Extra attempts a failed/crashed cell gets before the sweep fails.
#: Cells are pure and attempt-independent, so retried results are
#: byte-identical -- the count is recorded, not hidden.
RETRIES = 2


@dataclasses.dataclass(frozen=True)
class SMPSweepConfig:
    """Parameters of one sweep.  Defaults match the acceptance run:
    N=1000 TPC/A connections, shard counts up to 8, all steerings."""

    algorithms: Tuple[str, ...] = ("bsd", "sequent:h=19")
    n_connections: int = 1000
    #: Simulated seconds of TPC/A traffic recorded per seed.
    duration: float = 30.0
    shard_counts: Tuple[int, ...] = (1, 2, 4, 8)
    steerings: Tuple[str, ...] = ("hash", "rr", "sticky")
    batch_sizes: Tuple[int, ...] = (1, 64)
    seeds: Tuple[int, ...] = (7,)
    jobs: int = 1
    utilization: float = 0.6

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        if self.n_connections < 1:
            raise ValueError("need at least one connection")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.shard_counts or any(s < 1 for s in self.shard_counts):
            raise ValueError("shard counts must be positive")
        if not self.batch_sizes or any(b < 1 for b in self.batch_sizes):
            raise ValueError("batch sizes must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithms": list(self.algorithms),
            "n_connections": self.n_connections,
            "duration": self.duration,
            "shard_counts": list(self.shard_counts),
            "steerings": list(self.steerings),
            "batch_sizes": list(self.batch_sizes),
            "seeds": list(self.seeds),
            "utilization": self.utilization,
        }


def _run_cell(params: Dict[str, object]) -> Dict[str, object]:
    """One sweep cell; module-level so process pools can pickle it.

    Pure: every output is a deterministic function of ``params``.
    """
    spec = params["algorithm"]
    nshards = params["nshards"]
    steering = params["steering"]
    batch_size = params["batch_size"]
    stream = record_tpca_stream(
        params["n_connections"], params["duration"], params["seed"]
    )
    model = ContentionModel(utilization=params["utilization"])

    if nshards == 0:
        algorithm = make_algorithm(spec)
    else:
        algorithm = ShardedDemux(
            lambda: make_algorithm(spec),
            nshards,
            make_steering(steering),
            inner_spec=spec,
        )
    for tup in stream.tuples:
        algorithm.insert(PCB(tup))

    train_followers = 0
    if batch_size > 1:
        coalescer = BatchCoalescer(algorithm, batch_size)
        coalescer.replay(stream.packets)
        train_followers = coalescer.train_followers
    else:
        for tup, kind in stream.packets:
            algorithm.lookup(tup, kind)

    stats = algorithm.stats
    combined = stats.combined()
    if isinstance(algorithm, ShardedDemux):
        report = algorithm.cost_report(model)
    else:
        report = build_report(
            nshards=1,
            steering=BASELINE,
            steer_ops=0.0,
            migrations=0,
            per_shard_lookups=[stats.lookups],
            per_shard_occupancy=[len(algorithm)],
            per_shard_mean_examined=[stats.mean_examined],
            per_shard_p99=[combined.percentile(0.99)],
            model=model,
        )
    return {
        "algorithm": spec,
        "nshards": nshards,
        "steering": steering,
        "batch_size": batch_size,
        "seed": params["seed"],
        "packets": len(stream.packets),
        "mean_examined": round(stats.mean_examined, 4),
        "hit_rate": round(stats.hit_rate, 4),
        "p99_examined": combined.percentile(0.99),
        "max_examined": combined.max_examined,
        "mean_cost_ops": round(report.mean_cost_ops, 4),
        "imbalance_factor": round(report.imbalance_factor, 4),
        "migrations": report.migrations,
        "migration_rate": round(report.migration_rate, 6),
        "train_followers": train_followers,
        "per_shard": [shard.as_dict() for shard in report.shards],
    }


def _cell_grid(config: SMPSweepConfig) -> List[Dict[str, object]]:
    """Every cell's parameters, in the sweep's canonical order."""
    cells = []

    def add(seed, spec, nshards, steering, batch):
        cells.append(
            {
                "algorithm": spec,
                "nshards": nshards,
                "steering": steering,
                "batch_size": batch,
                "seed": seed,
                "n_connections": config.n_connections,
                "duration": config.duration,
                "utilization": config.utilization,
            }
        )

    for seed in config.seeds:
        for spec in config.algorithms:
            for batch in config.batch_sizes:
                add(seed, spec, 0, BASELINE, batch)
            for nshards in config.shard_counts:
                for steering in config.steerings:
                    for batch in config.batch_sizes:
                        add(seed, spec, nshards, steering, batch)
    return cells


def _cell_name(params: Dict[str, object]) -> str:
    return (
        f"seed{params['seed']}/{params['algorithm']}"
        f"/S{params['nshards']}/{params['steering']}/B{params['batch_size']}"
    )


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """All cells of one sweep plus the in-band acceptance verdicts."""

    config: SMPSweepConfig
    cells: Tuple[Dict[str, object], ...]
    #: Cell name -> extra attempts that cell needed (empty on a clean run).
    worker_retries: Dict[str, int] = dataclasses.field(default_factory=dict)

    def cell(self, **match: object) -> Dict[str, object]:
        """The unique cell whose fields equal ``match`` (KeyError if not 1)."""
        found = [
            cell
            for cell in self.cells
            if all(cell[key] == value for key, value in match.items())
        ]
        if len(found) != 1:
            raise KeyError(f"{len(found)} cells match {match!r}")
        return found[0]

    # -- acceptance criteria -------------------------------------------

    def criteria(self) -> Dict[str, object]:
        """Evaluate the three acceptance checks over every (seed, algo)."""
        imbalance_checks = []
        monotone_checks = []
        coalesce_checks = []
        top_shards = max(self.config.shard_counts)
        top_batch = max(self.config.batch_sizes)
        for seed in self.config.seeds:
            for spec in self.config.algorithms:
                if "hash" in self.config.steerings:
                    hot = self.cell(
                        seed=seed,
                        algorithm=spec,
                        nshards=top_shards,
                        steering="hash",
                        batch_size=1,
                    )
                    imbalance_checks.append(
                        {
                            "seed": seed,
                            "algorithm": spec,
                            "nshards": top_shards,
                            "imbalance_factor": hot["imbalance_factor"],
                            "ok": hot["imbalance_factor"] <= 1.25,
                        }
                    )
                    costs = [
                        self.cell(
                            seed=seed,
                            algorithm=spec,
                            nshards=nshards,
                            steering="hash",
                            batch_size=1,
                        )["mean_cost_ops"]
                        for nshards in sorted(self.config.shard_counts)
                    ]
                    monotone_checks.append(
                        {
                            "seed": seed,
                            "algorithm": spec,
                            "shard_counts": sorted(self.config.shard_counts),
                            "mean_cost_ops": costs,
                            "ok": all(
                                later <= earlier * (1 + 1e-9)
                                for earlier, later in zip(costs, costs[1:])
                            ),
                        }
                    )
                if top_batch > 1:
                    unbatched = self.cell(
                        seed=seed, algorithm=spec, nshards=0, batch_size=1
                    )
                    batched = self.cell(
                        seed=seed, algorithm=spec, nshards=0, batch_size=top_batch
                    )
                    coalesce_checks.append(
                        {
                            "seed": seed,
                            "algorithm": spec,
                            "batch_size": top_batch,
                            "unbatched_mean_examined": unbatched["mean_examined"],
                            "batched_mean_examined": batched["mean_examined"],
                            "ok": batched["mean_examined"]
                            < unbatched["mean_examined"],
                        }
                    )
        return {
            "imbalance_hash_top_shards": imbalance_checks,
            "cost_monotone_in_shards_hash": monotone_checks,
            "coalescing_strictly_reduces_examined": coalesce_checks,
        }

    @property
    def ok(self) -> bool:
        return all(
            check["ok"]
            for checks in self.criteria().values()
            for check in checks
        )

    # -- rendering -----------------------------------------------------

    def render_text(self) -> str:
        config = self.config
        lines = [
            "SMP sweep: shard count x steering x batch size",
            f"  N={config.n_connections} TPC/A connections,"
            f" {config.duration:g}s recorded stream,"
            f" seeds {list(config.seeds)},"
            f" utilization {config.utilization:g}",
            "",
            f"  {'seed':>4} {'algorithm':<16} {'S':>2} {'steer':<6} {'B':>3}"
            f" {'PCBs/pkt':>9} {'ops/pkt':>9} {'imbal':>6}"
            f" {'migr':>6} {'p99':>5}",
        ]
        for cell in self.cells:
            shards = cell["nshards"] if cell["nshards"] else "-"
            lines.append(
                f"  {cell['seed']:>4} {cell['algorithm']:<16} {shards:>2}"
                f" {cell['steering']:<6} {cell['batch_size']:>3}"
                f" {cell['mean_examined']:>9.2f}"
                f" {cell['mean_cost_ops']:>9.2f}"
                f" {cell['imbalance_factor']:>6.2f}"
                f" {cell['migrations']:>6} {cell['p99_examined']:>5}"
            )
        lines.append("")
        for title, checks in self.criteria().items():
            verdict = "ok" if all(c["ok"] for c in checks) else "FAIL"
            lines.append(f"  criterion {title}: {verdict}")
        total_retries = sum(self.worker_retries.values())
        lines.append(
            f"  worker retries: {total_retries}"
            + (
                f" ({len(self.worker_retries)} cells affected)"
                if total_retries
                else ""
            )
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "benchmark": "smp_sweep",
            "config": self.config.as_dict(),
            "criteria": self.criteria(),
            "ok": self.ok,
            "worker_retries": {
                "total": sum(self.worker_retries.values()),
                "by_task": dict(self.worker_retries),
            },
            "cells": list(self.cells),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def run_smp_sweep(
    config: SMPSweepConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run every cell (``config.jobs``-way parallel); deterministic."""
    grid = _cell_grid(config)
    tasks = [
        Task(name=_cell_name(params), fn=_run_cell, args=(params,))
        for params in grid
    ]
    retry_log = RetryLog()
    results = run_tasks(
        tasks,
        config.jobs,
        progress=progress,
        retries=RETRIES,
        retry_log=retry_log,
    )
    return SweepResult(
        config=config,
        cells=tuple(results),
        worker_retries=dict(retry_log.by_task),
    )


def write_sweep_artifacts(
    result: SweepResult, outdir: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write ``smp_sweep.{txt,json}`` into ``outdir``; returns the path."""
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "smp_sweep.txt").write_text(result.render_text() + "\n")
    (outdir / "smp_sweep.json").write_text(result.to_json() + "\n")
    return outdir
