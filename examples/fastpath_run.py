#!/usr/bin/env python3
"""The fast path, end to end: identical decisions, fewer seconds.

Records one TPC/A packet stream, replays it through each reference
structure and its ``fast-`` twin, and prints three things per pair:

* the decision check -- found/examined/cache-hit sequences must be
  byte-identical (this is the golden-trace property, live);
* packets demultiplexed per second for both, with the speedup;
* the fast path's own counters (interned keys, batch amortization).

Run:  python examples/fastpath_run.py
"""

import time

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.fastpath.conformance import replay, stream_ops
from repro.workload import record_tpca_stream

N_USERS = 500
DURATION = 30.0
SEED = 7

PAIRS = [
    ("linear", "fast-linear"),
    ("bsd", "fast-bsd"),
    ("mtf", "fast-mtf"),
    ("sequent:h=19", "fast-sequent:h=19"),
    ("hashed_mtf:h=19", "fast-hashed_mtf:h=19"),
]


def timed_replay(spec, stream, repeats=3):
    """Best-of-``repeats`` wall-clock for one batched replay."""
    packets = list(stream.packets)
    best = float("inf")
    algorithm = None
    for _ in range(repeats):
        algorithm = make_algorithm(spec)
        for tup in stream.tuples:
            algorithm.insert(PCB(tup))
        start = time.perf_counter()
        algorithm.lookup_batch(packets)
        best = min(best, time.perf_counter() - start)
    return len(packets) / best, algorithm


def main() -> None:
    stream = record_tpca_stream(N_USERS, DURATION, SEED)
    print(
        f"TPC/A, {N_USERS} users, {DURATION:g}s, seed {SEED}:"
        f" {len(stream.packets)} inbound packets\n"
    )
    print(f"{'pair':<22} {'decisions':>10} {'ref p/s':>10}"
          f" {'fast p/s':>10} {'speedup':>8}")

    ops = stream_ops(stream)
    last_fast = None
    for reference_spec, fast_spec in PAIRS:
        reference, _ = replay(make_algorithm(reference_spec), ops)
        fast, _ = replay(make_algorithm(fast_spec), ops, batched=True)
        identical = reference == fast
        ref_pps, _ = timed_replay(reference_spec, stream)
        fast_pps, last_fast = timed_replay(fast_spec, stream)
        print(
            f"{reference_spec:<22}"
            f" {'identical' if identical else 'DIVERGED!':>10}"
            f" {ref_pps:>10,.0f} {fast_pps:>10,.0f}"
            f" {fast_pps / ref_pps:>7.2f}x"
        )

    counters = last_fast.fastpath_counters
    print(
        f"\nfast-path counters ({last_fast.name}):"
        f" {counters.interned_keys} keys interned,"
        f" {counters.key_cache_hits} intern hits,"
        f" {counters.batch_calls} batch call(s) covering"
        f" {counters.batched_lookups} lookups"
    )
    print("\nOne pair as a promotion verdict:"
          " PYTHONPATH=src python -m repro.cli canary fast-sequent:h=19"
          " --incumbent sequent:h=19")


if __name__ == "__main__":
    main()
