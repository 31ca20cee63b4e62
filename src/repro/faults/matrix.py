"""The fault matrix: algorithms x fault mixes x seeds, with verdicts.

One campaign runs the full-stack TPC/A workload under every
combination of demux algorithm, fault mix (:data:`STANDARD_MIXES` by
default), and seed, and judges each cell against the robustness
contract:

* the run completes without any exception escaping the dispatch loop;
* the post-run PCB audit (:func:`repro.faults.audit.audit_stack`)
  finds no leaked, duplicated, or miscounted table entries;
* goodput is recorded (transactions completed, fraction of users who
  completed at least one) so degradation is a *curve*, not a crash.

The matrix renders as a text table and a JSON document; the CLI's
``fault-matrix`` subcommand writes both into ``results/`` and exits
nonzero if any cell failed -- the chaos CI job's contract.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.registry import make_algorithm
from ..tcpstack.stack import packet_families
from ..workload.thinktime import ExponentialThink
from ..workload.tpca import TPCAConfig, TPCAFullStackSimulation
from .audit import audit_stack
from .config import STANDARD_MIXES, parse_fault_spec

__all__ = [
    "DEFAULT_ALGORITHMS",
    "FaultMatrixCell",
    "FaultMatrixResult",
    "run_fault_cell",
    "run_fault_matrix",
]

#: The three algorithm families the degradation curves must cover.
DEFAULT_ALGORITHMS: Sequence[str] = ("bsd", "sendrecv", "sequent:h=19")


@dataclasses.dataclass
class FaultMatrixCell:
    """One (algorithm, mix, seed) run and its verdict."""

    algorithm: str
    mix: str
    spec: str
    seed: int
    ok: bool = False
    error: str = ""
    audit_violations: List[str] = dataclasses.field(default_factory=list)
    transactions: int = 0
    users_completed: int = 0
    n_users: int = 0
    mean_examined: float = 0.0
    #: Inbound packets the server stack accepted -- the denominator
    #: the SLO watchdog's drop-rate rule divides by.
    packets_received: int = 0
    drops: Dict[str, int] = dataclasses.field(default_factory=dict)
    faults_injected: int = 0
    fault_digest: str = ""

    @property
    def completion_rate(self) -> float:
        return self.users_completed / self.n_users if self.n_users else 0.0

    def metrics(self) -> List[tuple]:
        """The server stack's drops and accepted packets, as the stack
        reports them (:func:`repro.tcpstack.stack.packet_families`)."""
        return packet_families(self.drops, self.packets_received)

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["completion_rate"] = self.completion_rate
        return data


@dataclasses.dataclass
class FaultMatrixResult:
    """A whole campaign: every cell plus campaign-level parameters."""

    cells: List[FaultMatrixCell]
    n_users: int
    duration: float

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> List[FaultMatrixCell]:
        return [cell for cell in self.cells if not cell.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_users": self.n_users,
            "duration": self.duration,
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render_text(self) -> str:
        """A fixed-width report table, one row per cell."""
        header = (
            f"{'algorithm':<16} {'mix':<8} {'seed':>4} {'txns':>7}"
            f" {'users':>9} {'mean':>6} {'drops':>6} {'verdict':<8}"
        )
        lines = [
            f"fault matrix: {self.n_users} users, {self.duration:g}s measured",
            header,
            "-" * len(header),
        ]
        for cell in self.cells:
            users = f"{cell.users_completed}/{cell.n_users}"
            dropped = sum(cell.drops.values())
            verdict = "ok" if cell.ok else "FAIL"
            lines.append(
                f"{cell.algorithm:<16} {cell.mix:<8} {cell.seed:>4}"
                f" {cell.transactions:>7} {users:>9}"
                f" {cell.mean_examined:>6.2f} {dropped:>6} {verdict:<8}"
            )
            if cell.error:
                lines.append(f"    error: {cell.error}")
            for violation in cell.audit_violations:
                lines.append(f"    audit: {violation}")
        lines.append("-" * len(header))
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} cell(s))"
        lines.append(f"verdict: {status}")
        return "\n".join(lines)


def run_fault_cell(
    algorithm_spec: str,
    mix_name: str,
    fault_spec: str,
    seed: int,
    *,
    n_users: int = 20,
    duration: float = 30.0,
    think_mean: float = 2.0,
    max_connections: Optional[int] = None,
    overflow_policy: str = "reject-new",
) -> FaultMatrixCell:
    """Run one matrix cell; never raises (failures land in the cell)."""
    cell = FaultMatrixCell(
        algorithm=algorithm_spec,
        mix=mix_name,
        spec=fault_spec,
        seed=seed,
        n_users=n_users,
    )
    try:
        config = TPCAConfig(
            n_users=n_users,
            think_model=ExponentialThink(think_mean),
            duration=duration,
            warmup=5.0,
            seed=seed,
        )
        simulation = TPCAFullStackSimulation(
            config,
            make_algorithm(algorithm_spec),
            fault_models=parse_fault_spec(fault_spec),
            max_connections=max_connections,
            overflow_policy=overflow_policy,
        )
        result = simulation.run()
    except Exception as exc:  # the contract: nothing may escape
        cell.error = f"{type(exc).__name__}: {exc}"
        return cell
    audit = audit_stack(simulation.server)
    cell.audit_violations = list(audit.violations)
    cell.transactions = simulation.transactions_completed
    cell.users_completed = simulation.users_completed
    cell.mean_examined = result.mean_examined
    cell.packets_received = simulation.server.packets_received
    cell.drops = dict(simulation.server.drops)
    if simulation.injector is not None:
        cell.faults_injected = (
            simulation.injector.packets_dropped
            + simulation.injector.packets_reordered
            + simulation.injector.packets_duplicated
            + simulation.injector.packets_corrupted
        )
        cell.fault_digest = simulation.injector.schedule_digest()
    cell.ok = audit.ok and not cell.error
    return cell


def run_fault_matrix(
    *,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    mixes: Sequence[Tuple[str, str]] = STANDARD_MIXES,
    seeds: Sequence[int] = (1,),
    n_users: int = 20,
    duration: float = 30.0,
    think_mean: float = 2.0,
    max_connections: Optional[int] = None,
    overflow_policy: str = "reject-new",
    progress: Optional[Callable[[FaultMatrixCell], None]] = None,
) -> FaultMatrixResult:
    """Sweep the campaign; ``progress`` is called after each cell."""
    cells: List[FaultMatrixCell] = []
    for algorithm_spec in algorithms:
        for mix_name, fault_spec in mixes:
            for seed in seeds:
                cell = run_fault_cell(
                    algorithm_spec,
                    mix_name,
                    fault_spec,
                    seed,
                    n_users=n_users,
                    duration=duration,
                    think_mean=think_mean,
                    max_connections=max_connections,
                    overflow_policy=overflow_policy,
                )
                cells.append(cell)
                if progress is not None:
                    progress(cell)
    return FaultMatrixResult(cells=cells, n_users=n_users, duration=duration)
