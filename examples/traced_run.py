#!/usr/bin/env python3
"""Observability tour: trace, meter, and profile one simulated run.

Runs the TPC/A workload against the Sequent structure with every probe
attached -- a ring-buffer trace with virtual timestamps, a metrics
registry exported as JSON and Prometheus text, and the sampled lookup
profiler -- then shows that the instrumented run's statistics are
identical to a bare run with the same seed (the probes observe, they
never perturb).

Run:  python examples/traced_run.py
"""

from repro.core import PacketKind, SequentDemux
from repro.obs import LookupProfiler, MetricsRegistry, RingBufferSink, Tracer
from repro.workload import TPCAConfig, TPCADemuxSimulation

CONFIG = TPCAConfig(n_users=500, duration=60.0, warmup=15.0, seed=7)


def run(instrumented: bool):
    algorithm = SequentDemux(19)
    ring = profiler = None
    if instrumented:
        ring = RingBufferSink(10_000)  # keep the newest 10k events
        algorithm.tracer = Tracer(ring)
        profiler = LookupProfiler().attach(algorithm)  # 1-in-64 sampling
    TPCADemuxSimulation(CONFIG, algorithm).run()
    return algorithm, ring, profiler


def main() -> None:
    algorithm, ring, profiler = run(instrumented=True)

    # --- Tracing: per-packet events, stamped in *virtual* seconds. ---
    print(f"trace: {ring.total_emitted} events emitted, "
          f"{len(ring)} buffered, {ring.dropped} dropped")
    print("last three lookups:")
    for event in [e for e in ring.events if e.kind == "lookup"][-3:]:
        print(f"  t={event.time:8.4f}s  {event.packet_kind:<4} "
              f"examined={event.examined}  cache_hit={event.cache_hit}")

    # --- Metrics: publish the structure's families, export them. ---
    registry = MetricsRegistry()
    registry.publish(algorithm)
    print("\nPrometheus exposition (counters only):")
    for line in registry.to_prometheus().splitlines():
        if line.startswith("demux_lookups_total{"):
            print(f"  {line}")
    data = algorithm.stats.kind(PacketKind.DATA)
    print(f"  (data-packet mean examined: "
          f"{data.examined_total / data.lookups:.2f} PCBs)")

    # --- Profiling: sampled wall-clock cost of the lookup primitive. ---
    print(f"\n{profiler.report().render()}")

    # --- The guarantee: instrumentation did not change the numbers. ---
    bare, _, _ = run(instrumented=False)
    assert algorithm.stats.as_dict() == bare.stats.as_dict()
    print("\nbare rerun with the same seed: statistics identical "
          "(probes observe, never perturb)")


if __name__ == "__main__":
    main()
