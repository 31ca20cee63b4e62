"""The conformance matrix: spec x mode x stream, one driver, one oracle.

The repository's central invariant is decision identity -- the same
``[found, examined, cache_hit]`` triple for every lookup -- across
reference and fast twins, per-call and batched lookups,
snapshot/restore, supervised crash recovery and every shard layout.
Each cell of that table is one :func:`run` of the one driver,
:func:`repro.fastpath.conformance.replay`, which :func:`check` compares
with the cell's oracle:

* the committed golden decisions, for a spec a golden file pins or the
  ``fast-`` twin of one;
* otherwise (sharded layouts, whose shards each scan their own slice,
  so examined counts differ from the flat goldens) the uninterrupted
  per-call replay of the spec's reference -- the spec without
  ``fast-`` -- computed once per stream and cached.

Streams are the golden files: ``tests/golden/*.json`` (three TPC/A
streams and a churn walk, pinning the five reference specs) and
``tests/golden/cuckoo/*.json`` (two TPC/A streams and a churn walk,
pinning the three cuckoo specs, which have no reference twin).  Every
churn cell of a fast spec also takes the leak census: the structure --
sharded or supervised too -- holds one interned key per live connection.

Four suites parametrize the table, one mode family each:
``test_fastpath_golden`` (references, fast twins and sharded layouts
under hash, rr and sticky steering, per call and batched),
``test_cuckoo_golden`` (the cuckoo specs, per call, batched and
restored), ``test_recovery_golden`` (snapshot-restored, and supervised
crash plus warm recovery) and ``test_batch_lockstep`` (every hook
attached, per call against batched).
"""

from __future__ import annotations

import functools
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.registry import make_algorithm
from repro.fastpath.conformance import golden_ops, replay
from repro.lifecycle.metrics import count_interned
from repro.recovery import ShardSupervisor

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _load(directory: pathlib.Path) -> dict:
    return {
        path.stem: json.loads(path.read_text())
        for path in sorted(directory.glob("*.json"))
    }


#: Stem -> golden file: the reference goldens, and the cuckoo ones.
GOLDENS = _load(GOLDEN_DIR)
CUCKOO_GOLDENS = _load(GOLDEN_DIR / "cuckoo")
_STREAMS = {**GOLDENS, **CUCKOO_GOLDENS}


@dataclass(frozen=True)
class Mode:
    """How a cell replays its stream."""

    #: ``lookup_batch`` chunk size; ``None`` looks up one packet a call.
    chunk: Optional[int] = None
    #: Snapshot-restore after this fraction of the lookups.
    restore: Optional[float] = None
    #: Run under a :class:`ShardSupervisor` that crashes this shard
    #: halfway through the lookups and must recover it warm.
    crash: Optional[int] = None


PER_CALL = Mode()


def sharded(spec: str, steer: Optional[str] = None) -> str:
    """``spec`` over four shards: ``sequent:h=7`` becomes
    ``sharded-sequent:shards=4,h=7`` (hash steering unless ``steer``)."""
    name, _, params = spec.partition(":")
    options = ["shards=4"]
    if steer:
        options.append(f"steer={steer}")
    if params:
        options.append(params)
    return f"sharded-{name}:" + ",".join(options)


@functools.lru_cache(maxsize=None)
def ops(stream: str) -> list:
    """The op list golden ``stream`` names (built once)."""
    return golden_ops(_STREAMS[stream])


@functools.lru_cache(maxsize=None)
def lookups(stream: str) -> int:
    return sum(1 for op in ops(stream) if op[0] == "lookup")


def build(spec: str, stream: str, mode: Mode = PER_CALL, clock=time.perf_counter):
    """A fresh structure for one cell, supervised and armed if ``mode``
    crashes a shard (``clock`` times the supervisor's recoveries)."""
    algorithm = make_algorithm(spec)
    if mode.crash is not None:
        algorithm = ShardSupervisor(algorithm, checkpoint_every=200, clock=clock)
        algorithm.arm_crashes([(lookups(stream) // 2, mode.crash)])
    return algorithm


def run(spec: str, stream: str, mode: Mode = PER_CALL):
    """Replay one cell; return ``(decisions, structure)``."""
    restore_after = None
    if mode.restore is not None:
        restore_after = int(lookups(stream) * mode.restore)
    decisions, algorithm = replay(
        build(spec, stream, mode),
        ops(stream),
        chunk=mode.chunk or 64,
        batched=mode.chunk is not None,
        restore_after=restore_after,
    )
    if mode.crash is not None:
        assert algorithm.crashes_injected == 1, spec
        assert [event.mode for event in algorithm.events] == ["warm"], spec
    return decisions, algorithm


@functools.lru_cache(maxsize=None)
def oracle(spec: str, stream: str) -> list:
    """The decisions cell ``(spec, stream, any mode)`` must reproduce."""
    pinned = _STREAMS[stream]["decisions"]
    if spec in pinned:
        return pinned[spec]
    reference = spec.replace("fast-", "")
    if reference in pinned:
        return pinned[reference]
    return run(reference, stream)[0]


def check(spec: str, stream: str, mode: Mode = PER_CALL) -> None:
    """Assert one cell reproduces its oracle, and on churn the census."""
    decisions, algorithm = run(spec, stream, mode)
    assert decisions == oracle(spec, stream), (spec, stream, mode)
    if "churn" in _STREAMS[stream] and "fast-" in spec:
        assert count_interned(algorithm) == len(algorithm), (spec, stream, mode)
