#!/usr/bin/env python3
"""Telemetry-plane tour: spans, sketches, a live endpoint, a watchdog.

Runs the TPC/A workload with the full telemetry plane attached -- a
sampled SpanCollector feeding a streaming TrafficCharacterizer, a
metrics registry published on a virtual-time period, an SLO watchdog,
and a TelemetryServer on an ephemeral port -- then scrapes its own
/metrics and /healthz over real HTTP *while the simulation runs*,
exactly like the `simulate --serve-metrics` CLI path.  Ends by
rendering the `obs-report` ASCII dashboard from the final snapshot.

While it runs you can also scrape it yourself:

    curl -s http://127.0.0.1:<printed port>/metrics
    curl -s http://127.0.0.1:<printed port>/healthz | python -m json.tool

Run:  python examples/live_telemetry.py
"""

import urllib.request

from repro.core import SequentDemux
from repro.obs import (
    HealthWatchdog,
    MetricsRegistry,
    SpanCollector,
    TelemetryServer,
    TrafficCharacterizer,
    default_rules,
)
from repro.obs.report import render_dashboard
from repro.workload import TPCAConfig, TPCADemuxSimulation

CONFIG = TPCAConfig(n_users=300, duration=60.0, warmup=10.0, seed=7)
PUBLISH_EVERY = 5.0  # virtual seconds between registry publishes


def main() -> None:
    algorithm = SequentDemux(19)

    # Spans: 1-in-64 packets get a causal record; every packet still
    # feeds the train detector.  The characterizer rides the spans.
    collector = SpanCollector(sample_every=64)
    collector.attach(algorithm)
    characterizer = TrafficCharacterizer().attach(collector)

    registry = MetricsRegistry()
    watchdog = HealthWatchdog(default_rules())
    simulation = TPCADemuxSimulation(CONFIG, algorithm)

    server = TelemetryServer(
        registry, watchdog=watchdog, clock=lambda: simulation.sim.now
    )
    port = server.start()  # ephemeral port, daemon thread
    print(f"serving on http://127.0.0.1:{port}/metrics "
          "(/snapshot.json, /healthz)")

    def publish():
        with server.lock:  # scrapes see consistent snapshots
            registry.publish(algorithm)
            registry.publish(characterizer)
        simulation.sim.schedule(PUBLISH_EVERY, publish)

    def scrape():
        # A real HTTP round trip against ourselves, mid-simulation.
        with urllib.request.urlopen(server.url("/metrics")) as response:
            lookups = [line for line in response.read().decode().splitlines()
                       if line.startswith("demux_lookups_total{")]
        with urllib.request.urlopen(server.url("/healthz")) as response:
            health = response.read().decode()
        print(f"\nscraped at t={simulation.sim.now:.1f}s "
              f"(HTTP, mid-run):")
        for line in lookups:
            print(f"  {line}")
        print(f"  /healthz -> {health.strip()}")

    simulation.sim.schedule(PUBLISH_EVERY, publish)
    simulation.sim.schedule(CONFIG.duration / 2, scrape)
    result = simulation.run()

    with server.lock:
        registry.publish(algorithm)
        registry.publish(characterizer)
    report = watchdog.evaluate(registry, now=simulation.sim.now)
    server.stop()

    print(f"\nrun finished: {result.lookups} lookups, "
          f"{collector.spans_finished} spans sampled")
    print(characterizer.summary())
    print(f"health: {report.describe()}")

    print("\n" + render_dashboard(
        registry.snapshot(),
        spans=[span.to_dict() for span in collector.recorder.all_spans()],
    ))


if __name__ == "__main__":
    main()
