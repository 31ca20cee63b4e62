#!/usr/bin/env python3
"""Sharded demultiplexing: the paper's structures on an SMP.

Records one TPC/A packet stream (1,000 users), then replays it through
the Sequent structure unsharded and sharded 8 ways under each steering
policy, with and without batch-sorted interrupt coalescing.  Prints
measured PCBs examined, the SMP memory-operation cost (steering +
locking + queueing + migration), shard balance, and the shard-level
metrics exported through repro.obs.

Run:  python examples/smp_run.py
"""

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.obs.metrics import MetricsRegistry
from repro.smp import (
    BatchCoalescer,
    DEFAULT_CONTENTION,
    ShardedDemux,
    build_report,
    make_steering,
)
from repro.workload import record_tpca_stream

N_USERS = 1000
DURATION = 30.0
SEED = 7
NSHARDS = 8
BATCH = 64
INNER = "sequent:h=19"


def replay(algorithm, packets, batch):
    if batch > 1:
        BatchCoalescer(algorithm, batch).replay(packets)
    else:
        for tup, kind in packets:
            algorithm.lookup(tup, kind)


def main() -> None:
    stream = record_tpca_stream(N_USERS, DURATION, SEED)
    print(
        f"TPC/A, {N_USERS} users, {DURATION:g}s:"
        f" {len(stream.packets)} inbound packets, inner={INNER}"
    )
    print(f"{'configuration':<28} {'PCBs/pkt':>9} {'ops/pkt':>9} {'imbal':>6}")

    def show(label, report):
        print(
            f"{label:<28} {report.mean_examined:>9.2f}"
            f" {report.mean_cost_ops:>9.2f}"
            f" {report.imbalance_factor:>6.2f}"
        )

    for batch in (1, BATCH):
        suffix = f" batch={batch}" if batch > 1 else ""
        # Unsharded baseline, priced with the same formula (one shard,
        # no steering cost) so the comparison is apples to apples.
        baseline = make_algorithm(INNER)
        for tup in stream.tuples:
            baseline.insert(PCB(tup))
        replay(baseline, stream.packets, batch)
        stats = baseline.stats
        show(
            f"unsharded{suffix}",
            build_report(
                nshards=1,
                steering="none",
                steer_ops=0.0,
                migrations=0,
                per_shard_lookups=[stats.lookups],
                per_shard_occupancy=[len(baseline)],
                per_shard_mean_examined=[stats.mean_examined],
                per_shard_p99=[stats.combined().percentile(0.99)],
            ),
        )

        for steering in ("hash", "rr", "sticky"):
            sharded = ShardedDemux(
                lambda: make_algorithm(INNER), NSHARDS, make_steering(steering)
            )
            for tup in stream.tuples:
                sharded.insert(PCB(tup))
            replay(sharded, stream.packets, batch)
            show(
                f"S={NSHARDS} steer={steering}{suffix}",
                sharded.cost_report(DEFAULT_CONTENTION),
            )
            if steering == "hash" and batch == 1:
                registry = MetricsRegistry()
                registry.publish(sharded)
                exported = registry.snapshot()
                loads = exported["smp_shard_lookups"]["samples"]
                print(
                    "  (obs export: smp_shard_lookups ="
                    f" {[int(s['value']) for s in loads]},"
                    " imbalance ="
                    f" {exported['smp_imbalance_factor']['samples'][0]['value']:.2f})"
                )
    print()
    print("Hash steering divides the scan ~8x for one extra op of")
    print("steering; round-robin balances perfectly but pays a PCB")
    print("migration nearly every packet; batch sorting recovers the")
    print("packet trains OLTP traffic lacks.")


if __name__ == "__main__":
    main()
