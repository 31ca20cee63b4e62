"""Fault injection, adversarial workloads, and robustness audits.

The demultiplexing algorithms are studied under clean traffic; this
package asks what happens when the network misbehaves.  It provides:

* deterministic, seeded fault models (:mod:`repro.faults.models`) and
  the pipeline/link machinery that applies them
  (:mod:`repro.faults.injector`);
* compact fault-spec strings and standard mixes
  (:mod:`repro.faults.config`);
* post-run structural audits (:mod:`repro.faults.audit`) -- the "no
  PCB leaks, no table drift" contract;
* the algorithms x mixes x seeds campaign runner
  (:mod:`repro.faults.matrix`).
"""

from .audit import PCBAudit, audit_stack
from .config import STANDARD_MIXES, FaultSpecError, parse_fault_spec
from .infra import (
    InfraFault,
    ShardCrash,
    ShardStall,
    SnapshotCorruption,
    parse_mixed_spec,
)
from .injector import FaultInjector, FaultyLink
from .matrix import (
    DEFAULT_ALGORITHMS,
    FaultMatrixCell,
    FaultMatrixResult,
    run_fault_cell,
    run_fault_matrix,
)
from .models import (
    Blackhole,
    Corrupt,
    Duplicate,
    FaultModel,
    FaultPlan,
    GilbertElliottLoss,
    IIDLoss,
    LinkFlap,
    Reorder,
    describe_models,
)

__all__ = [
    "Blackhole",
    "Corrupt",
    "DEFAULT_ALGORITHMS",
    "Duplicate",
    "FaultInjector",
    "FaultMatrixCell",
    "FaultMatrixResult",
    "FaultModel",
    "FaultPlan",
    "FaultSpecError",
    "FaultyLink",
    "GilbertElliottLoss",
    "IIDLoss",
    "InfraFault",
    "LinkFlap",
    "PCBAudit",
    "Reorder",
    "STANDARD_MIXES",
    "ShardCrash",
    "ShardStall",
    "SnapshotCorruption",
    "audit_stack",
    "describe_models",
    "parse_fault_spec",
    "parse_mixed_spec",
    "run_fault_cell",
    "run_fault_matrix",
]
