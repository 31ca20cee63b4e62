#!/usr/bin/env python3
"""Live serving tour: real sockets, a recorded capture, a canary gate.

Starts the asyncio serving front end (`repro.serve`) on an ephemeral
loop-back port with the fast path behind it, drives it with a seeded
swarm of concurrent clients, and -- while the swarm is being served --
scrapes its own /metrics and /healthz over real HTTP, exactly like the
`serve --serve-metrics` CLI path.  The served traffic is recorded into
the capture format that the canary replays, and the run ends by
feeding that capture to the canary gate: would `fast-sequent` be
promoted over plain `sequent` on the traffic we just served?

While it runs you can also scrape it yourself:

    curl -s http://127.0.0.1:<printed port>/metrics
    curl -s http://127.0.0.1:<printed port>/healthz | python -m json.tool

Run:  python examples/serve_run.py
"""

import asyncio
import json
import os
import tempfile
import urllib.request

from repro.fastpath.gate import CanaryConfig, run_canary
from repro.obs.watchdog import gauge_max
from repro.serve import LoadConfig, ServeConfig, run_self_drive
from repro.workload.record import load_stream, stream_info

SERVE = ServeConfig(algorithm="fast-sequent:h=19")
LOAD = LoadConfig(clients=120, frames=25, seed=7)


def scrape(telemetry) -> None:
    """A real HTTP round trip against ourselves, mid-swarm."""
    print(f"serving telemetry on {telemetry.url('/metrics')} "
          "(/snapshot.json, /healthz)")
    with urllib.request.urlopen(telemetry.url("/metrics")) as response:
        lookups = [line for line in response.read().decode().splitlines()
                   if line.startswith("demux_lookups_total{")]
    with urllib.request.urlopen(telemetry.url("/snapshot.json")) as response:
        snapshot = json.loads(response.read())
    with urllib.request.urlopen(telemetry.url("/healthz")) as response:
        health = json.loads(response.read())
    print("scraped mid-run (HTTP):")
    for line in lookups:
        print(f"  {line}")
    metrics = snapshot["metrics"]
    active = gauge_max(metrics, "serve_sessions", state="active")
    peak = gauge_max(metrics, "serve_sessions", state="peak")
    accepted = gauge_max(metrics, "serve_totals", what="accepted")
    print(f"  sessions: active={active:g} accepted={accepted:g} peak={peak:g}")
    print(f"  /healthz -> {health['state']}")


def main() -> None:
    capture = os.path.join(tempfile.mkdtemp(), "live_capture.json")

    report = asyncio.run(
        run_self_drive(
            SERVE,
            LOAD,
            record_path=capture,
            telemetry_port=0,  # ephemeral; printed by scrape()
            on_telemetry=scrape,
        )
    )
    print()
    print(report.render_text())

    print("\ncapture header (record-info view):")
    for key, value in stream_info(capture).items():
        print(f"  {key:<12}  {value}")

    # The promotion question, answered on the traffic we just served:
    # mirrored replays of the capture through incumbent and candidate.
    print()
    verdict = run_canary(
        load_stream(capture),
        CanaryConfig(
            candidate="fast-sequent:h=19",
            incumbent="sequent:h=19",
            repeats=2,
        ),
    )
    print(verdict.render_text())


if __name__ == "__main__":
    main()
