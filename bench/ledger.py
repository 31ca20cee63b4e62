"""The traced pass: per-stage costs of one workload's operation stream.

Run after the timed rounds.  For every configuration the stream is
replayed in-process, once through ``lookup_batch`` and once through
per-call ``lookup``; the stages the batched call bundles are then timed
on their own over the same packets:

* ``intern`` -- ``KeyCache.probe`` over the stream on a populated twin
  cache (the twin follows the stream's inserts and removes);
* ``stats`` -- ``DemuxStats.record(LookupRecord(...))`` over sequent's
  results, the loop ``BatchLookupMixin`` runs, timed between the
  batched calls (the ``stats_ns`` attribute of sequent's
  ``lookup_batch`` span);
* ``self`` -- what is left: ``lookup_batch - intern - stats``, so the
  three add up to the batched call by construction.

Every stage runs in each of ``PASSES`` (or, given a time budget, as many
as fit) interleaved passes and reports its fastest, the same defence
against the host's slow phases as the timed rounds' composite.  Each stage is a span (name, start_ns, end_ns,
parent, workload, config) recorded from the benchmark's own files around
the calls into each layer; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.core import PCB, DemuxStats, LookupRecord
from repro.fastpath import KeyCache
from repro.hashing import HASH_FUNCTIONS, compare_functions, default_hash
from repro.smp import HashSteering
from repro.workload import RecordedStream
from repro.workload.record import load_stream, save_stream

import spec
from workloads import (
    INSERT, LOOKUP, REMOVE, OpStream, build, decision_signature, frozen_gc,
    replay,
)

#: Calls timed per hash function and for steering.
HASH_CALLS = 32768

#: Chains and shards of the configurations (``spec.CONFIGS``).
CHAINS = 19
SHARDS = 4

#: Interleaved passes of the traced pass (at least, with a time budget);
#: each timing keeps its fastest.
PASSES = 2


class Spans:
    """In-memory span records, written out when the benchmark ends."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs):
        record = {"id": next(self._ids), "name": name, "parent": parent}
        record.update(attrs)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self.records.append(record)


def _ns(record: dict) -> int:
    return record["end_ns"] - record["start_ns"]


def _intern_ns(algorithm, stream: OpStream) -> int:
    """Time ``KeyCache.probe`` over the stream's lookups on a twin cache."""
    nchains = getattr(algorithm, "nchains", None)
    chain_fn = (
        (lambda tup: default_hash(tup, nchains)) if nchains else None
    )
    cache = KeyCache(chain_fn)
    for tup in stream.population:
        cache.entry(tup)
    probe = cache.probe
    clock = time.perf_counter_ns
    total = 0
    for op in stream.ops:
        if op[0] == LOOKUP:
            packets = op[1]
            start = clock()
            [probe(tup) for tup, _ in packets]
            total += clock() - start
        elif op[0] == INSERT:
            cache.entry(op[1])
        else:
            cache.evict(op[1])
    return total


class _StatsTimer:
    """Times the batch path's statistics loop over each chunk's results.

    Runs as ``replay``'s ``on_results`` hook, so no result outlives its
    chunk: keeping ~10^5 of them alive would make the replay pay for
    the collector walking them.
    """

    def __init__(self) -> None:
        self.record = DemuxStats().record
        self.ns = 0

    def __call__(self, results: list) -> None:
        record = self.record
        start = time.perf_counter_ns()
        for result in results:
            record(
                LookupRecord(
                    examined=result.examined,
                    cache_hit=result.cache_hit,
                    found=result.pcb is not None,
                    kind=result.kind,
                )
            )
        self.ns += time.perf_counter_ns() - start


def _bare_ns(algorithm, stream: OpStream) -> int:
    """One replay with a single clock around it: no per-call timing."""
    lookup_batch = algorithm.lookup_batch
    insert = algorithm.insert
    remove = algorithm.remove
    start = time.perf_counter_ns()
    for op in stream.ops:
        if op[0] == LOOKUP:
            lookup_batch(op[1])
        elif op[0] == INSERT:
            insert(PCB(op[1]))
        else:
            remove(op[1])
    return time.perf_counter_ns() - start


def _batch_mean(algorithm) -> float:
    shards = getattr(algorithm, "shards", (algorithm,))
    calls = sum(shard.fastpath_counters.batch_calls for shard in shards)
    looked = sum(shard.fastpath_counters.batched_lookups for shard in shards)
    return looked / calls if calls else 0.0


def _per(total_ns: float, count: int) -> float:
    return total_ns / count if count else 0.0


def _config_pass(config, stream, spans, parent, tag, signatures):
    """One pass over one configuration's stages.

    The replay's decision counts must equal ``signatures[config]``; the
    first pass of a configuration without one sets it.  Returns ``(ns,
    counts, attempted, failed)``: nanosecond totals per stage, the
    deterministic counts, and the oracle checks made/failed.
    """
    ns: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    with spans.span("build", parent, **tag) as built:
        algorithm = build(config, stream.population)
    ns["build"] = _ns(built)
    stats_timer = _StatsTimer() if config == "sequent" else None
    with frozen_gc(), spans.span("lookup_batch", parent, **tag) as batched:
        run = replay(algorithm, stream, on_results=stats_timer)
        batched.update(
            calls=run.calls, packets=run.count[LOOKUP],
            lookup_ns=run.ns[LOOKUP],
            insert_ns=run.ns[INSERT], inserts=run.count[INSERT],
            remove_ns=run.ns[REMOVE], removes=run.count[REMOVE],
        )
        if stats_timer is not None:
            batched["stats_ns"] = ns["stats"] = stats_timer.ns
    failed = run.failed
    signature = decision_signature(algorithm)
    if signatures.setdefault(config, signature) != signature:
        failed += 1
    ns["batch"] = run.ns[LOOKUP]
    ns["insert"] = run.ns[INSERT]
    ns["remove"] = run.ns[REMOVE]
    ns["traced"] = run.total_ns
    if config in spec.COUNTED:
        stats = algorithm.stats
        counts[f"examined.mean.{config}"] = stats.mean_examined
        counts[f"examined.p99.{config}"] = float(
            stats.combined().percentile(0.99)
        )
        counts[f"batch.mean_size.{config}"] = _batch_mean(algorithm)
    if config == "sequent":
        counters = algorithm.fastpath_counters
        counts["intern.hit_ratio"] = _per(
            counters.key_cache_hits,
            counters.key_cache_hits + counters.transient_probes,
        )
        counts["cache_hit_rate.sequent"] = algorithm.stats.hit_rate
    if config == "cuckoo":
        gauges = algorithm.cuckoo_metrics()
        for gauge in ("prefilter_skip_rate", "kickouts", "resizes",
                      "load_factor"):
            counts[f"cuckoo.{gauge}"] = float(gauges[gauge])

    live = [pcb.four_tuple for pcb in algorithm]
    with spans.span("teardown", parent, **tag) as teardown:
        remove = algorithm.remove
        for tup in live:
            remove(tup)
    ns["teardown"] = _ns(teardown)
    counts["teardown"] = len(live)

    with spans.span("rebuild", parent, **tag):
        algorithm = build(config, stream.population)
    with frozen_gc(), spans.span("lookup", parent, **tag):
        per_call = replay(algorithm, stream, batched=False)
    failed += per_call.failed
    ns["lookup"] = per_call.ns[LOOKUP]
    if config in spec.TIMED:
        with frozen_gc(), spans.span("intern", parent, **tag):
            ns["intern"] = _intern_ns(algorithm, stream)
    if config == "sequent":
        with spans.span("rebuild", parent, **tag):
            algorithm = build(config, stream.population)
        with frozen_gc(), spans.span("bare_replay", parent, **tag):
            ns["bare"] = _bare_ns(algorithm, stream)
    return ns, counts, run.total_ops + per_call.total_ops, failed


def _shared_pass(workload, capture, sample, spans, parent) -> Dict[str, int]:
    """One pass over the stages no configuration owns."""
    ns: Dict[str, int] = {}
    with spans.span("decode", parent, workload=workload) as decode:
        load_stream(capture)
    ns["decode"] = _ns(decode)
    clock = time.perf_counter_ns
    for name in spec.HASH_NAMES:
        fn = HASH_FUNCTIONS[name]
        with spans.span(f"hash.{name}", parent, workload=workload):
            start = clock()
            for tup in sample:
                fn(tup, CHAINS)
            ns[f"hash.{name}"] = clock() - start
    steering = HashSteering()
    with spans.span("steer", parent, workload=workload):
        start = clock()
        for tup in sample:
            steering.shard_of(tup, SHARDS)
        ns["steer"] = clock() - start
    return ns


def run_ledger(
    workload: str,
    stream: OpStream,
    spans: Spans,
    scratch: str,
    signatures: Dict[str, Tuple],
    seconds: Optional[float] = None,
) -> Tuple[Dict[str, float], Dict[str, float], int, int]:
    """Measure every per-layer metric of one workload.

    ``PASSES`` interleaved passes -- with ``seconds``, as many more as
    fit the budget -- each time every stage; a timing reports its
    fastest pass, and the counts must agree across passes.  Returns
    ``(layers, extras, attempted, failed)``: the ``spec.LAYERS`` values,
    the ``spec.EXTRA_LAYERS`` values this workload has, the operations
    replayed, and the oracle and decision-signature mismatches among
    them.  ``signatures`` holds each configuration's counts from the
    timed rounds; a configuration without them gets its first pass's.
    """
    lookups = stream.lookup_packets()
    packets = len(lookups)
    mutations = sum(1 for op in stream.ops if op[0] != LOOKUP)
    sample = [tup for tup, _ in lookups[:HASH_CALLS]]
    best: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    attempted = failed = 0
    with tempfile.TemporaryDirectory(dir=scratch) as directory, spans.span(
        "ledger", workload=workload
    ) as root:
        capture = os.path.join(directory, "capture.json")
        _save_lookups(stream, lookups, capture)
        start = time.perf_counter()
        index = 0
        while index < PASSES or (
            seconds is not None
            and (time.perf_counter() - start) * (index + 1) / index <= seconds
        ):
            with spans.span(
                "pass", root["id"], workload=workload, index=index
            ) as one:
                measured = {}
                for config in spec.CONFIGS:
                    tag = {"workload": workload, "config": config}
                    with spans.span("cell", one["id"], **tag) as cell:
                        ns, found, checked, bad = _config_pass(
                            config, stream, spans, cell["id"], tag,
                            signatures,
                        )
                    measured.update(
                        (f"{config}:{stage}", value)
                        for stage, value in ns.items()
                    )
                    attempted += checked
                    failed += bad
                    if counts.setdefault(config, found) != found:
                        failed += 1  # a count moved between passes
                measured.update(
                    _shared_pass(workload, capture, sample, spans, one["id"])
                )
            for key, value in measured.items():
                best[key] = min(best.get(key, value), value)
            index += 1
        with spans.span("balance", root["id"], workload=workload):
            balance = compare_functions(
                {name: HASH_FUNCTIONS[name] for name in spec.HASH_NAMES},
                stream.population, CHAINS,
            )

    layers: Dict[str, float] = {}
    extras: Dict[str, float] = {}
    for config in spec.CONFIGS:
        layers.update(
            (name, value) for name, value in counts[config].items()
            if name != "teardown"
        )
        layers[f"build.ns_per_pcb.{config}"] = _per(
            best[f"{config}:build"], len(stream.population)
        )
        layers[f"lookup_batch.ns_per_pkt.{config}"] = _per(
            best[f"{config}:batch"], packets
        )
        layers[f"lookup.ns_per_pkt.{config}"] = _per(
            best[f"{config}:lookup"], packets
        )
        layers[f"mutate.ns_per_op.{config}"] = _per(
            best[f"{config}:insert"] + best[f"{config}:remove"]
            + best[f"{config}:teardown"],
            mutations + counts[config]["teardown"],
        )
        if workload == "churn":
            inserts = sum(1 for op in stream.ops if op[0] == INSERT)
            extras[f"churn.insert_ns.{config}"] = _per(
                best[f"{config}:insert"], inserts
            )
            extras[f"churn.remove_ns.{config}"] = _per(
                best[f"{config}:remove"], mutations - inserts
            )
            extras[f"churn.lookup_ns.{config}"] = _per(
                best[f"{config}:batch"], packets
            )
    layers["stats.ns_per_pkt"] = _per(best["sequent:stats"], packets)
    for config in spec.TIMED:
        layers[f"intern.ns_per_pkt.{config}"] = _per(
            best[f"{config}:intern"], packets
        )
        layers[f"lookup.self_ns_per_pkt.{config}"] = (
            layers[f"lookup_batch.ns_per_pkt.{config}"]
            - layers[f"intern.ns_per_pkt.{config}"]
            - layers["stats.ns_per_pkt"]
        )
    for config, name in (("sharded", "sharded"), (spec.OBSERVED, "obs")):
        layers[f"{name}.overhead_ns_per_pkt"] = (
            layers[f"lookup_batch.ns_per_pkt.{config}"]
            - layers["lookup_batch.ns_per_pkt.sequent"]
        )
    layers["trace.overhead_pct"] = 100.0 * (
        best["sequent:traced"] / best["sequent:bare"] - 1.0
    )
    layers["capture.decode_ns_per_pkt"] = _per(best["decode"], packets)
    for name in spec.HASH_NAMES:
        layers[f"hash.{name}.ns_per_call"] = _per(
            best[f"hash.{name}"], len(sample)
        )
    layers["steer.ns_per_pkt"] = _per(best["steer"], len(sample))
    for name, result in balance:
        layers[f"hash.{name}.scan_penalty"] = result.scan_penalty
    return layers, extras, attempted, failed


def _save_lookups(stream: OpStream, lookups, path: str) -> None:
    """Write the workload's lookups as a capture for the decode stage."""
    inserted = [op[1] for op in stream.ops if op[0] == INSERT]
    tuples = tuple(dict.fromkeys(list(stream.population) + inserted))
    save_stream(
        RecordedStream(
            tuples=tuples,
            packets=tuple(lookups),
            n_users=len(tuples),
            duration=1.0,
            seed=0,
        ),
        path,
    )
