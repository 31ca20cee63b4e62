"""Reference vs fast-path throughput on the standard N-sweep.

Not a paper figure -- decisions are identical by construction (the
golden suite proves it); this measures the constant-factor win the
fast path exists for.  Each cell replays one recorded TPC/A stream
(common random numbers) through a reference structure and its
``fast-`` twin with ``measure_replay`` (best of 3) and reports packets
demultiplexed per second; ``pytest benchmarks/bench_fastpath.py -s``
prints the sweep inline.  EXPERIMENTS.md keeps its numbers, including
the first sweep's (2026-08-06).

The assertions are deliberately loose (decision equality always; the
fast twin ahead only at the largest N): shared runners jitter, and
wall-clock verdicts across changes come from the repository benchmark
(``bench/``), which pairs alternating runs of a change and its parent.
"""

import pytest

from repro.fastpath.gate import measure_replay
from repro.workload.record import record_tpca_stream
from conftest import emit

PAIRS = [
    ("linear", "fast-linear"),
    ("bsd", "fast-bsd"),
    ("mtf", "fast-mtf"),
    ("sequent:h=19", "fast-sequent:h=19"),
    ("hashed_mtf:h=19", "fast-hashed_mtf:h=19"),
]

N_SWEEP = (100, 300, 1000)
DURATION = 20.0
SEED = 7

_streams = {}


def stream_for(n_users):
    if n_users not in _streams:
        _streams[n_users] = record_tpca_stream(n_users, DURATION, SEED)
    return _streams[n_users]


@pytest.mark.parametrize("reference_spec,fast_spec", PAIRS)
def test_fastpath_sweep(once, reference_spec, fast_spec):
    """One pair across the N-sweep: identical work, timed both ways."""

    def sweep():
        rows = []
        for n_users in N_SWEEP:
            stream = stream_for(n_users)
            reference = measure_replay(reference_spec, stream, repeats=3)
            fast = measure_replay(fast_spec, stream, repeats=3)
            rows.append((n_users, reference, fast))
        return rows

    rows = once(sweep)

    lines = [
        f"{'N':>5} {'pkts':>7} {reference_spec:>22} {fast_spec:>22}"
        f" {'speedup':>8}"
    ]
    for n_users, reference, fast in rows:
        speedup = fast.packets_per_sec / reference.packets_per_sec
        lines.append(
            f"{n_users:>5} {reference.packets:>7}"
            f" {reference.packets_per_sec:>18,.0f} p/s"
            f" {fast.packets_per_sec:>18,.0f} p/s"
            f" {speedup:>7.2f}x"
        )
    emit(f"fastpath: {reference_spec} vs {fast_spec}", "\n".join(lines))

    for n_users, reference, fast in rows:
        # Identical decisions => identical mean examined cost.
        assert reference.mean_examined == pytest.approx(fast.mean_examined)
        assert reference.packets == fast.packets
    # At the largest N the interned-scan win must be visible even on a
    # noisy runner.
    _, reference, fast = rows[-1]
    assert fast.packets_per_sec > reference.packets_per_sec


def test_batch_amortization_never_hurts_fast_sequent(once):
    """lookup_batch vs the per-call loop on the same structure.

    At large N the chain scan dominates and the amortized template
    toll is small relative to timer noise, so the pinned claim is the
    safe direction: batching is never materially slower.  The win
    itself shows in the emitted numbers (and grows as N shrinks).
    """
    from repro.core.pcb import PCB
    from repro.core.registry import make_algorithm
    import time

    stream = stream_for(1000)
    packets = list(stream.packets)

    def build():
        algorithm = make_algorithm("fast-sequent:h=19")
        for tup in stream.tuples:
            algorithm.insert(PCB(tup))
        return algorithm

    def measure():
        per_call_best = batched_best = float("inf")
        for _ in range(5):
            algorithm = build()
            start = time.perf_counter()
            for tup, kind in packets:
                algorithm.lookup(tup, kind)
            per_call_best = min(per_call_best, time.perf_counter() - start)

            algorithm = build()
            start = time.perf_counter()
            algorithm.lookup_batch(packets)
            batched_best = min(batched_best, time.perf_counter() - start)
        return per_call_best, batched_best

    per_call, batched = once(measure)
    emit(
        "fastpath: batch amortization (fast-sequent:h=19, N=1000)",
        f"per-call {len(packets) / per_call:,.0f} p/s,"
        f" batched {len(packets) / batched:,.0f} p/s"
        f" ({per_call / batched:.2f}x)",
    )
    assert batched < per_call * 1.10


def test_ordered_scan_beats_list_index_at_1e3(once):
    """At N >= 10^3 the sorted chain's bisection beats ``list.index``.

    One table of 2,000 ordinal keys (pushed as the intern table numbers
    them), queried with hits and misses; ``list.index`` over the same
    keys is the scan the ordering replaced.  Decision equality at this
    size is pinned in tier-1 (``tests/test_fastpath_ordered.py``).
    """
    import random
    import time

    from repro.core.pcb import PCB
    from repro.fastpath.keycache import ABSENT_KEY
    from repro.fastpath.tables import MTFSlotTable, SlotTable
    from repro.packet.addresses import FourTuple, IPv4Address

    ordered, unordered = SlotTable(), MTFSlotTable()
    for index in range(2000):
        tup = FourTuple(
            IPv4Address("10.0.0.1"), 1521,
            IPv4Address("10.4.0.0") + index, 40000 + index,
        )
        for table in (ordered, unordered):
            table.push_front(-index - 1, PCB(tup))
    rng = random.Random(3)
    queries = [rng.choice(ordered.keys) for _ in range(2000)]
    queries += [ABSENT_KEY] * 666
    rng.shuffle(queries)

    def timed(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def measure():
        bisected = min(
            timed(lambda: [ordered.scan(key) for key in queries])
            for _ in range(3)
        )
        indexed = min(
            timed(lambda: [unordered.scan(key) for key in queries])
            for _ in range(3)
        )
        return bisected, indexed

    bisected, indexed = once(measure)
    assert [ordered.scan(key) for key in queries] == [
        unordered.scan(key) for key in queries
    ]
    emit(
        "fastpath: ordered scan at N=2000",
        f"bisect {bisected * 1e3:.2f} ms, list.index"
        f" {indexed * 1e3:.2f} ms ({indexed / bisected:.1f}x)",
    )
    assert bisected < indexed, (
        f"bisect {bisected:.4f}s not faster than list.index"
        f" {indexed:.4f}s at N=2000"
    )
