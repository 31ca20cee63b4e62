"""Overhead budget of the observability hooks (repro.obs).

The instrumentation contract (see docs/observability.md): with no
tracer or profiler attached the hot path pays one ``is None`` check per
operation, and with the profiler at its default sampling rate
(1/64 lookups timed) the slowdown on a realistic lookup stays under
5%.  This benchmark measures that contract directly -- min-of-rounds
wall-clock per lookup, bare vs. instrumented -- and asserts the 5%
budget on the heavy path (BSD at N=512, uniform targets, ~N/2 PCBs
examined per lookup).  Spans plus sketch on batched ``fast-sequent``
(a few PCBs per lookup, where constant per-packet costs are a much
larger fraction of a lookup) are asserted under a looser 20% bound
and reported against the 5% target.  The per-call fast path and full
tracing (enabled tracer, every event buffered; an opt-in debugging
mode, not the default configuration) are measured and reported but
not asserted.

Results are also written to ``BENCH_obs.json`` at the repository root
so the numbers are machine-readable across runs.
"""

import gc
import json
import os
import statistics
import time
from pathlib import Path

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.obs.profile import DEFAULT_SAMPLE_EVERY, LookupProfiler
from repro.obs.sketch import TrafficCharacterizer
from repro.obs.spans import DEFAULT_SPAN_SAMPLE_EVERY, SpanCollector
from repro.obs.trace import RingBufferSink, Tracer
from repro.packet.addresses import FourTuple, IPv4Address

from conftest import emit

#: BENCH_OBS_QUICK=1 shrinks the sweep for a quick local check: the
#: budget assertions still run, just over fewer, shorter rounds.
QUICK = os.environ.get("BENCH_OBS_QUICK", "") not in ("", "0")

N = 512
LOOKUPS_PER_ROUND = 512 if QUICK else 2048
ROUNDS = 5 if QUICK else 15
LIMIT_PCT = 5.0
#: Asserted bound of the batched fast-path case, which is reported
#: against ``LIMIT_PCT`` as its target.
BATCHED_LIMIT_PCT = 20.0
#: ``lookup_batch`` chunk of the batched case (the bench's tpca-* chunk).
BATCH = 256

_RESULTS = {}  # case name -> measurement dict, dumped by the last test


def _populated(spec):
    algorithm = make_algorithm(spec)
    tuples = [
        FourTuple(
            IPv4Address("10.0.0.1"), 1521,
            IPv4Address("10.6.0.0") + i, 40000 + i,
        )
        for i in range(N)
    ]
    for tup in tuples:
        algorithm.insert(PCB(tup))
    return algorithm, tuples


def _visit_order():
    # Fixed pseudo-random order, long enough not to repeat in
    # cache-friendly ways (same scheme as bench_lookup_micro).
    return [(i * 197) % N for i in range(LOOKUPS_PER_ROUND)]


def _timed_round(algorithm, targets):
    """Wall-clock nanoseconds for one pass over ``targets``."""
    lookup = algorithm.lookup
    start = time.perf_counter_ns()
    for tup in targets:
        lookup(tup, PacketKind.DATA)
    return time.perf_counter_ns() - start


def _timed_batched_round(algorithm, targets):
    """Like :func:`_timed_round`, in ``lookup_batch`` chunks of ``BATCH``."""
    lookup_batch = algorithm.lookup_batch
    chunks = [
        [(tup, PacketKind.DATA) for tup in targets[start:start + BATCH]]
        for start in range(0, len(targets), BATCH)
    ]
    start = time.perf_counter_ns()
    for chunk in chunks:
        lookup_batch(chunk)
    return time.perf_counter_ns() - start


def _measure(spec, instrument, case, *, limit_pct=None, batched=False,
             target_pct=None):
    """Measure bare vs. instrumented per-lookup cost for one case.

    ``instrument`` receives the freshly populated algorithm and applies
    the configuration under test.  Bare and instrumented structures are
    built identically; only the hooks differ.  Each round times both
    configurations back to back (order alternating round to round) and
    contributes one instrumented/bare ratio; the reported overhead is
    the *median* ratio, so a scheduler or throttling hiccup that lands
    on a single round cannot swing the result the way a min-of-rounds
    comparison can on shared hardware.  ``limit_pct`` is the bound the
    caller asserts (``None``: reported only).  ``batched`` times
    ``lookup_batch`` chunks instead of per-call lookups; ``target_pct``
    is a budget reported next to the result without asserting it.
    """
    timed_round = _timed_batched_round if batched else _timed_round
    bare_alg, bare_tuples = _populated(spec)
    inst_alg, inst_tuples = _populated(spec)
    instrument(inst_alg)
    order = _visit_order()
    bare_targets = [bare_tuples[i] for i in order]
    inst_targets = [inst_tuples[i] for i in order]
    timed_round(bare_alg, bare_targets)  # warm-up, untimed
    timed_round(inst_alg, inst_targets)
    ratios = []
    bare_best = inst_best = None
    gc_was_enabled = gc.isenabled()
    gc.disable()  # collector pauses otherwise dominate the deltas
    try:
        for round_index in range(ROUNDS):
            if round_index % 2 == 0:
                bare_elapsed = timed_round(bare_alg, bare_targets)
                inst_elapsed = timed_round(inst_alg, inst_targets)
            else:
                inst_elapsed = timed_round(inst_alg, inst_targets)
                bare_elapsed = timed_round(bare_alg, bare_targets)
            ratios.append(inst_elapsed / bare_elapsed)
            if bare_best is None or bare_elapsed < bare_best:
                bare_best = bare_elapsed
            if inst_best is None or inst_elapsed < inst_best:
                inst_best = inst_elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    bare_ns = bare_best / len(order)
    inst_ns = inst_best / len(order)
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    _RESULTS[case] = {
        "spec": spec,
        "batched": batched,
        "bare_ns_per_lookup": round(bare_ns, 1),
        "instrumented_ns_per_lookup": round(inst_ns, 1),
        "overhead_pct": round(overhead_pct, 2),
        "asserted": limit_pct is not None,
        "limit_pct": limit_pct,
        "target_pct": target_pct,
    }
    if limit_pct is None:
        verdict = "  (reported only)"
    else:
        verdict = f"  (budget {limit_pct:.0f}%)"
    if target_pct is not None:
        verdict += f"  (target {target_pct:.0f}%, reported only)"
    emit(
        f"obs overhead: {case}",
        f"  bare:         {bare_ns:9.1f} ns/lookup\n"
        f"  instrumented: {inst_ns:9.1f} ns/lookup\n"
        f"  overhead:     {overhead_pct:+9.2f}%" + verdict,
    )
    return overhead_pct, inst_alg


def _default_instrumentation(algorithm):
    """The default-on configuration: sampled profiler, disabled tracer."""
    LookupProfiler(sample_every=DEFAULT_SAMPLE_EVERY).attach(algorithm)
    algorithm.tracer = Tracer(RingBufferSink(4096), enabled=False)


def test_heavy_path_overhead_under_budget():
    """BSD at N=512: the regime the paper says dominates (Eq. 1).

    Per-lookup work is ~N/2 PCB examinations, so the sampled hook cost
    must vanish into it.  This is the asserted acceptance criterion."""
    overhead_pct, inst_alg = _measure(
        "bsd", _default_instrumentation, "bsd_n512_default_sampling",
        limit_pct=LIMIT_PCT,
    )
    # The profiler really was sampling at the default rate.
    profiler = inst_alg._profiler
    assert profiler.sample_every == DEFAULT_SAMPLE_EVERY
    assert profiler.lookups == (ROUNDS + 1) * LOOKUPS_PER_ROUND  # +warm-up
    assert profiler.samples == profiler.lookups // DEFAULT_SAMPLE_EVERY
    assert overhead_pct < LIMIT_PCT


def test_fast_path_overhead_reported():
    """Sequent at H=19: ~1-2 examinations per lookup, so fixed per-call
    costs loom large.  Reported for the record, not asserted."""
    _measure(
        "sequent:h=19", _default_instrumentation,
        "sequent_h19_default_sampling",
    )


def test_full_tracing_cost_reported():
    """Opt-in worst case: tracer enabled, every lookup builds and
    buffers a TraceEvent.  Reported so users can budget for it."""

    def full_tracing(algorithm):
        algorithm.tracer = Tracer(RingBufferSink(4096))

    _, inst_alg = _measure(
        "bsd", full_tracing, "bsd_n512_full_tracing",
    )
    sink = inst_alg.tracer.sink
    assert sink.total_emitted == (ROUNDS + 1) * LOOKUPS_PER_ROUND


def test_spans_and_sketches_overhead_under_budget():
    """Default profiler plus packet spans (1/64 sampled) plus the full
    streaming-sketch pipeline riding the span observers.  This is the
    telemetry plane's acceptance criterion: every per-packet cost in
    the new plane -- the packet-context state machine, the unsampled
    train-detector observer, and the sampled sketch updates -- must
    still vanish into the heavy path's budget."""
    characterizers = []

    def spans_and_sketches(algorithm):
        _default_instrumentation(algorithm)
        collector = SpanCollector(
            sample_every=DEFAULT_SPAN_SAMPLE_EVERY
        ).attach(algorithm)
        characterizers.append(TrafficCharacterizer().attach(collector))

    overhead_pct, inst_alg = _measure(
        "bsd", spans_and_sketches, "bsd_n512_spans_sketch",
        limit_pct=LIMIT_PCT,
    )
    # The collector really saw every packet and sampled at 1/64.
    collector = inst_alg.spans
    total = (ROUNDS + 1) * LOOKUPS_PER_ROUND
    assert collector.sample_every == DEFAULT_SPAN_SAMPLE_EVERY
    assert collector.packets_seen == total
    assert collector.spans_finished == -(-total // DEFAULT_SPAN_SAMPLE_EVERY)
    characterizer = characterizers[0]
    assert characterizer.packets_observed == collector.spans_finished
    assert characterizer.trains.packets == total
    assert overhead_pct < LIMIT_PCT


def test_batched_fast_path_spans_sketch_under_bound():
    """Spans (1/64) plus the sketch pipeline on batched fast-sequent.

    The ROADMAP states the telemetry budget against the batched fast
    path, where fixed per-packet hook costs loom largest: spans plus
    sketch should stay under 5% there.  Reported against that target and asserted under
    ``BATCHED_LIMIT_PCT``: the train detector's batch loop and the
    sampled spans' object costs still exceed the target (see
    docs/observability.md)."""
    characterizers = []

    def spans_and_sketches(algorithm):
        collector = SpanCollector(
            sample_every=DEFAULT_SPAN_SAMPLE_EVERY
        ).attach(algorithm)
        characterizers.append(TrafficCharacterizer().attach(collector))

    overhead_pct, inst_alg = _measure(
        "fast-sequent:h=19", spans_and_sketches,
        "fast_sequent_h19_batched_spans_sketch",
        limit_pct=BATCHED_LIMIT_PCT, batched=True, target_pct=LIMIT_PCT,
    )
    # The batched path really took the batches, hooks attached.
    total = (ROUNDS + 1) * LOOKUPS_PER_ROUND
    assert inst_alg.fastpath_counters.batched_lookups == total
    assert inst_alg.spans.packets_seen == total
    assert characterizers[0].trains.packets == total
    assert overhead_pct < BATCHED_LIMIT_PCT


def test_write_bench_json():
    """Dump the collected measurements next to the other artifacts."""
    assert set(_RESULTS) == {
        "bsd_n512_default_sampling",
        "sequent_h19_default_sampling",
        "bsd_n512_full_tracing",
        "bsd_n512_spans_sketch",
        "fast_sequent_h19_batched_spans_sketch",
    }
    payload = {
        "benchmark": "bench_obs_overhead",
        "lookups_per_round": LOOKUPS_PER_ROUND,
        "rounds": ROUNDS,
        "quick": QUICK,
        "timing": ("ns/lookup from each configuration's best round;"
                   " overhead_pct from the median of per-round paired"
                   " instrumented/bare ratios"),
        "default_sample_every": DEFAULT_SAMPLE_EVERY,
        "cases": _RESULTS,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    emit("obs overhead: artifact", f"  wrote {path}")
    assert json.loads(path.read_text())["cases"]
