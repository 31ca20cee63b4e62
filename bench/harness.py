"""Workload runners, the interleaved round scheduler, and estimators.

Method (see README.md for the measurements behind it):

* every (workload, configuration) cell runs once per round and the
  starting cell rotates, so a slow phase of the host spreads over all
  cells instead of landing on one;
* each cell rebuilds its structure outside the timed region and runs
  under ``workloads.frozen_gc()``;
* every round replays the same calls in the same order, so each call's
  fastest time over the rounds (:func:`composite`) is its cost without
  interference; throughput and latency percentiles come from those
  times;
* a slice of a fixed reference kernel follows every cell
  (:func:`reference_slice`), and the composite estimates are corrected
  by how much slower than its reference time the kernel ran
  (:func:`host_factor`): the host's best speed drifts for minutes at a
  time, and no minimum over one run's rounds removes a drift that
  lasts the whole run;
* ``setup_s`` is the median over the rounds of one set-up each.  Offline,
  a set-up is reading the capture back (timed in its own cell) plus
  building every configuration -- the builds the round's cells make
  anyway, each timed under ``frozen_gc()`` -- so set-up time costs no
  extra work and every round contributes a sample.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import spec
import workloads
from serving import LoopbackClient, ServerProcess
from workloads import CellResult, OpStream

#: Rounds a ``seconds``-bounded run always completes.
MIN_ROUNDS = 4


def fingerprint() -> Dict[str, object]:
    """The host a measurement ran on; compare.py refuses to mix hosts."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
    }


# -- estimators ----------------------------------------------------------


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, interquartile range and count of a metric's samples."""
    values = list(values)
    if len(values) < 2:
        return {"median": values[0] if values else 0.0, "iqr": 0.0,
                "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "iqr": q3 - q1, "n": len(values)}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of already sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def composite(cells: Sequence[CellResult]) -> List[int]:
    """Each call's fastest time over the rounds, in call order.

    Every round replays the same calls in the same order, so position
    ``i`` is the same work each time: the minimum keeps costs that recur
    (a mirror rebuild, a resize, a slow frame) and drops interference
    that hit one round only.  Pass only cells in which every call
    succeeded: a cell that stopped early has a shorter list, whose
    positions no longer line up with the others'.
    """
    return [min(times) for times in zip(*(cell.latencies for cell in cells))]


def e2e_metrics(
    cells: Dict[str, List[CellResult]],
    setup: Sequence[float],
    mem_bytes: int,
    concurrency: int,
    reference: Sequence[CellResult],
) -> Dict[str, dict]:
    """Every ``spec.E2E`` metric of one workload, with its spread.

    ``concurrency`` is how many calls were in flight at once (the serve
    connections): the composite time of a cell is its calls' summed
    fastest times divided by it.  Throughputs, and the per-round rates
    behind their spread, are multiplied by :func:`host_factor` of the
    ``reference`` rounds; each round's set-up is divided by that
    round's :func:`round_factors` entry before the median is taken.
    ``raw`` keeps a value as timed.  A configuration none of whose cells
    succeeded reads 0; its failures are reported through ``failed``.
    """
    factor = host_factor(reference)
    out: Dict[str, dict] = {}
    for config in spec.CONFIGS:
        runs = [cell for cell in cells[config] if not cell.failed]
        seconds = sum(composite(runs)) / 1e9 / concurrency
        raw = runs[0].ops / seconds if runs else 0.0
        rates = [factor * cell.ops / cell.seconds for cell in runs]
        out[f"pps.{config}"] = dict(
            value=factor * raw, raw=raw, **summary(rates)
        )
    setups = [s / f for s, f in zip(setup, round_factors(reference))]
    out["setup_s"] = dict(
        value=statistics.median(setups), raw=statistics.median(setup),
        **summary(setups),
    )
    mem = mem_bytes / 1e6
    out["mem_mb"] = dict(value=mem, **summary([mem]))
    for metric in spec.E2E:
        out[metric["name"]]["unit"] = metric["unit"]
    return out


def rtt_metrics(cells: Sequence[CellResult], factor: float) -> Dict[str, dict]:
    """``spec.SERVE_E2E``: round-trip percentiles of serve's ``sequent``.

    Taken over the composite times and divided by ``factor``, like the
    throughputs; ``raw`` keeps the value as timed.
    """
    timed = [cell for cell in cells if not cell.failed]
    fastest = sorted(composite(timed))
    out: Dict[str, dict] = {}
    for metric in spec.SERVE_E2E:
        q = metric["quantile"]
        raw = percentile(fastest, q) / 1e3
        per_round = [
            percentile(sorted(cell.latencies), q) / 1e3 / factor
            for cell in timed
        ]
        out[metric["name"]] = dict(
            value=raw / factor, raw=raw, unit=metric["unit"],
            samples=len(fastest), **summary(per_round),
        )
    return out


# -- host speed ----------------------------------------------------------

#: Units of the reference kernel timed after every cell, and one unit's
#: composite time on the host README.md fingerprints, in a quiet spell.
REFERENCE_UNITS = 80
REFERENCE_NS = 55_000


class _ReferenceRecord:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


_REFERENCE_KEYS = [
    (0x0A000001, 80, 0x0A010000 + 7 * index, 40000 + index)
    for index in range(256)
]
_REFERENCE_TABLE = {
    key: index for index, key in enumerate(_REFERENCE_KEYS[::2])
}


def _reference_unit() -> int:
    get = _REFERENCE_TABLE.get
    found = 0
    for key in _REFERENCE_KEYS:
        value = get(key)
        if value is not None:
            found += value
    records = [_ReferenceRecord(key, found) for key in _REFERENCE_KEYS]
    return found + len(records)


def reference_slice(latencies: List[int]) -> None:
    """Time ``REFERENCE_UNITS`` units of the reference kernel.

    The kernel is fixed work that calls no program code: dict lookups on
    four-integer tuple keys, small-object allocation and calls -- the
    interpreter work a lookup is made of, so its speed follows the
    host's the way the program's does.  A slice runs after every cell,
    so a round samples the host at as many moments as it has cells.
    The collector is off meanwhile: the kernel makes no cycles, and the
    heap the program left behind must not slow it.
    """
    clock = time.perf_counter_ns
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REFERENCE_UNITS):
            start = clock()
            _reference_unit()
            latencies.append(clock() - start)
    finally:
        if enabled:
            gc.enable()


def host_factor(cells: Sequence[CellResult]) -> float:
    """The kernel's mean composite unit time over its reference.

    Above 1 when the host ran slow.  Throughputs times this factor read
    as on the reference host; a change to the program cannot move it,
    since the kernel calls none of the program's code.
    """
    fastest = composite(cells)
    return sum(fastest) / len(fastest) / REFERENCE_NS


def round_factors(cells: Sequence[CellResult]) -> List[float]:
    """Each round's mean kernel unit time over its reference.

    The mean, not the fastest: a set-up is one sample spread over its
    round, slowed by every slow moment in it, and the kernel's slices
    are spread over the same round.
    """
    return [
        sum(cell.latencies) / len(cell.latencies) / REFERENCE_NS
        for cell in cells
    ]


# -- workload runners ----------------------------------------------------


class OfflineWorkload:
    """tpca-hot, tpca-wide and churn: in-process replay of an OpStream."""

    concurrency = 1

    def __init__(self, name: str, params: dict, seed: int, scratch: str):
        self.name = name
        self.params = params
        self.seed = seed
        self.stream: Optional[OpStream] = None
        #: The tpca-* capture every set-up reads back.
        self.capture = os.path.join(scratch, f"{name}.json")
        #: Seconds of each round's ``load_stream`` (tpca-*) and, per
        #: configuration, of each round's build.
        self.decode_s: List[float] = []
        self.build_s: Dict[str, List[float]] = {c: [] for c in spec.CONFIGS}
        #: Per configuration: the decision counts of the first round.
        self.signatures: Dict[str, Tuple] = {}
        #: Per configuration: bytes its structure retained after a replay.
        self.retained: Dict[str, int] = {}

    def prepare(self) -> None:
        """Make the inputs (untimed)."""
        if self.name == "churn":
            self.stream = workloads.churn_stream(self.params, self.seed)
            return
        from repro.workload import record_tpca_stream
        from repro.workload.record import load_stream, save_stream

        stream = record_tpca_stream(
            self.params["users"], self.params["duration"], self.seed
        )
        save_stream(stream, self.capture)
        loaded = load_stream(self.capture)
        self.stream = workloads.with_oracle(
            loaded.tuples,
            workloads.chunked(loaded.packets, self.params["chunk"]),
        )

    def time_setup(self) -> None:
        """The part of a set-up no cell makes: reading the capture back.

        Timed under ``frozen_gc()`` like the builds: otherwise every
        collection walks the inputs of every workload the harness holds,
        so the full run, which holds all of them, would time a slower
        set-up than a one-workload run.
        """
        if self.name == "churn":
            return
        from repro.workload.record import load_stream

        with workloads.frozen_gc():
            start = time.perf_counter()
            load_stream(self.capture)
            self.decode_s.append(time.perf_counter() - start)

    @property
    def setup_samples(self) -> List[float]:
        """Per round: its capture read-back plus its four builds."""
        builds = [sum(round_) for round_ in zip(*self.build_s.values())]
        if self.name == "churn":
            return builds
        return [a + b for a, b in zip(self.decode_s, builds)]

    def run_cell(self, config: str) -> CellResult:
        with workloads.frozen_gc():
            start = time.perf_counter()
            algorithm = workloads.build(config, self.stream.population)
            self.build_s[config].append(time.perf_counter() - start)
        latencies: List[int] = []
        with workloads.frozen_gc():
            run = workloads.replay(algorithm, self.stream, latencies=latencies)
        failed = run.failed
        signature = workloads.decision_signature(algorithm)
        if self.signatures.setdefault(config, signature) != signature:
            failed += 1
        if config not in self.retained:
            self.retained[config] = workloads.retained_bytes(algorithm)
        return CellResult(run.total_ops, run.total_ns / 1e9, latencies, failed)

    def finish(self) -> int:
        """Checks that need the whole run; returns failures."""
        if self.signatures[spec.OBSERVED] != self.signatures["sequent"]:
            return 1  # attaching telemetry changed a decision
        return 0

    def mem_bytes(self) -> int:
        return sum(self.retained.values())

    def close(self) -> None:
        if os.path.exists(self.capture):
            os.remove(self.capture)


class ServeWorkload:
    """serve-loopback: sockets into a server child, one server per config."""

    def __init__(self, name: str, params: dict, seed: int):
        self.name = name
        self.params = params
        self.seed = seed
        self.server: Optional[ServerProcess] = None
        self.client = LoopbackClient(
            seed, params["frames"], params["connections"]
        )
        self.concurrency = params["connections"]
        self.setup_samples: List[float] = []
        self.sent = {config: 0 for config in spec.CONFIGS}
        #: Configurations with a cell that failed.
        self.broken = set()
        self.retained = 0
        #: The in-process view of one cell (the ledger's stream).
        self.stream = workloads.serve_stream(
            params, seed, range(1, params["connections"] + 1)
        )
        #: No in-process rounds, so no decision counts to hold the
        #: ledger's replay to.
        self.signatures: Dict[str, Tuple] = {}

    def prepare(self) -> None:
        """Start the server the rounds talk to."""
        self.server = ServerProcess(self.params["users"])

    def time_setup(self) -> None:
        """Spawn a second server until it announces its ports; stop it."""
        server = ServerProcess(self.params["users"])
        server.stop()
        self.setup_samples.append(server.startup_s)

    def run_cell(self, config: str) -> CellResult:
        with workloads.frozen_gc():
            cell = self.client.run_cell(self.server.ports[config])
        self.sent[config] += cell.ops
        if cell.failed:
            self.broken.add(config)
        return cell

    def finish(self) -> int:
        """Stop the server; every frame sent must be one lookup, found.

        A configuration with a failed cell is not checked again: its
        cells already count their frames as failed, and how many of
        those reached the server is unknown.
        """
        report = self.server.stop()
        self.server = None
        failed = 0
        for config in spec.CONFIGS:
            if config in self.broken:
                continue
            stats = report.get(config)
            if stats is None:
                failed += self.sent[config]
                continue
            failed += abs(stats["lookups"] - self.sent[config])
            failed += stats["not_found"] + stats["errors"]
            self.retained += stats["bytes"]
        return failed

    def mem_bytes(self) -> int:
        """Bytes the server's structures retained after serving."""
        return self.retained

    def probe_stages(self) -> Tuple[Dict[str, float], int]:
        """serve.* stages of sequent: demux inside the server, codec, rest.

        Returns the stages and the frames that failed their checks.
        """
        from repro.serve import FRAME_ACK, encode_frame
        from repro.serve.protocol import HEADER, decode_header

        server = ServerProcess(self.params["users"], time_lookups=True)
        try:
            cell = self.client.run_cell(server.ports["sequent"])
        finally:
            report = server.stop()
        rtt = sorted(cell.latencies)
        clock = time.perf_counter_ns
        frames = 0
        start = clock()
        for client_id, plan in enumerate(self.client.plans, 1):
            for seq, (kind, length) in enumerate(plan):
                request = encode_frame(kind, client_id, seq, bytes(length))
                decode_header(request[:HEADER.size])
                echo = encode_frame(FRAME_ACK, client_id, seq)
                decode_header(echo)
                frames += 1
        codec_ns = (clock() - start) / frames
        sequent = report.get("sequent", {})
        lookup_ns = sequent.get("lookup_ns", 0) / max(1, sequent.get("lookup_calls", 0))
        p50_us = percentile(rtt, 0.5) / 1e3
        stages = {
            "serve.lookup_ns_per_frame": lookup_ns,
            "serve.codec_ns_per_frame": codec_ns,
            "serve.loop_us_per_frame": p50_us - (lookup_ns + codec_ns) / 1e3,
        }
        failed = cell.failed + abs(sequent.get("lookups", 0) - cell.ops)
        return stages, failed

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.client.close()


def make_workload(name: str, params: dict, seed: int, scratch: str):
    if name == "serve-loopback":
        return ServeWorkload(name, params, seed)
    return OfflineWorkload(name, params, seed, scratch)


# -- the scheduler -------------------------------------------------------

#: Marks the set-up cell in a round.
SETUP = "setup"

#: The results key of the reference kernel's rounds (:func:`reference_slice`).
REFERENCE = ("host", "reference")


def run_rounds(
    runners: Sequence,
    *,
    rounds: Optional[int] = None,
    seconds: Optional[float] = None,
    progress=None,
) -> Tuple[Dict[Tuple[str, str], List[CellResult]], int]:
    """Run every cell once per round, rotating the starting cell.

    Stops after ``rounds`` rounds, or -- with ``seconds`` -- before a
    round that would end past the budget, but never before
    ``MIN_ROUNDS``: the composite estimator needs repeats to filter.
    A round in which a cell failed is the last: a broken program is not
    measured further, and a server that stopped answering costs a cell
    timeout per cell.  Every round also times one program set-up per
    workload (``runner.setup_samples``): spread over the run, a slow
    phase of the host cannot take all of them.  A slice of the
    reference kernel follows every cell; a round's slices form one
    ``CellResult`` in ``results[REFERENCE]``.
    """
    configs = tuple(spec.CONFIGS) + (SETUP,)
    cells = [(runner, config) for runner in runners for config in configs]
    results = {
        (runner.name, config): [] for runner in runners for config in spec.CONFIGS
    }
    results[REFERENCE] = []
    start = time.perf_counter()
    done = 0
    failed = False
    while not failed:
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and done >= MIN_ROUNDS:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                break
        shift = done % len(cells)
        reference: List[int] = []
        for runner, config in cells[shift:] + cells[:shift]:
            if config == SETUP:
                runner.time_setup()
            else:
                cell = runner.run_cell(config)
                results[(runner.name, config)].append(cell)
                failed = failed or cell.failed > 0
            reference_slice(reference)
        results[REFERENCE].append(
            CellResult(len(reference), sum(reference) / 1e9, reference, 0)
        )
        done += 1
        if progress is not None:
            progress(f"round {done} done at {time.perf_counter() - start:.1f}s")
    return results, done
