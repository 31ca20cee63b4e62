"""Tests for repro.obs.live: the telemetry HTTP endpoint, scraped by a
real client -- including mid-run, from inside a simulation event --
plus the ``simulate --serve-metrics`` CLI path end to end."""

import json
import re
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.obs.live import TelemetryServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.watchdog import HealthWatchdog, default_rules


def _get(url, timeout=5.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers, error.read()


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.counter("packets_received_total").inc(100)
    registry.counter("packet_drops_total").inc(1, reason="corrupt")
    registry.histogram("demux_examined").observe(3, kind="data")
    return registry


class TestTelemetryServer:
    def test_serves_prometheus_metrics(self, registry):
        with TelemetryServer(registry) as server:
            status, headers, body = _get(server.url("/metrics"))
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "packets_received_total 100" in text
        # Histograms render with the fixed default boundaries.
        assert 'demux_examined_bucket{kind="data",le="4"} 1' in text
        assert 'le="+Inf"' in text

    def test_serves_snapshot_json(self, registry):
        with TelemetryServer(registry) as server:
            status, headers, body = _get(server.url("/snapshot.json"))
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        data = json.loads(body)
        # No watchdog, no health section.
        assert list(data) == ["metrics"]
        assert data["metrics"]["packets_received_total"]["type"] == "counter"

    def test_healthz_ok(self, registry):
        server = TelemetryServer(
            registry, watchdog=HealthWatchdog(default_rules())
        )
        with server:
            status, _, body = _get(server.url("/healthz"))
        assert status == 200
        assert json.loads(body)["state"] == "ok"

    def test_healthz_503_when_failing(self):
        registry = MetricsRegistry()
        registry.counter("packets_received_total").inc(100)
        registry.counter("packet_drops_total").inc(50, reason="table-full")
        server = TelemetryServer(
            registry, watchdog=HealthWatchdog(default_rules())
        )
        with server:
            status, _, body = _get(server.url("/healthz"))
        assert status == 503
        data = json.loads(body)
        assert data["state"] == "failing"
        assert any(
            rule["name"] == "drop-rate" and not rule["ok"]
            for rule in data["rules"]
        )

    def test_healthz_without_watchdog(self, registry):
        with TelemetryServer(registry) as server:
            status, _, body = _get(server.url("/healthz"))
        assert status == 200
        assert json.loads(body)["state"] == "ok"

    def test_unknown_path_404_lists_endpoints(self, registry):
        with TelemetryServer(registry) as server:
            status, _, body = _get(server.url("/nope"))
        assert status == 404
        data = json.loads(body)
        assert "/metrics" in data["paths"]
        assert "/healthz" in data["paths"]

    def test_request_accounting_and_lifecycle(self, registry):
        server = TelemetryServer(registry)
        assert not server.running
        port = server.start()
        assert server.running
        assert port > 0
        _get(server.url("/metrics"))
        _get(server.url("/metrics"))
        _get(server.url("/healthz"))
        assert server.request_count == 3
        assert server.requests_by_path["/metrics"] == 2
        server.stop()
        assert not server.running
        # stop() is idempotent.
        server.stop()

    def test_concurrent_publish_under_lock(self, registry):
        # Publishing under server.lock while a scrape is in flight
        # must never corrupt a render (smoke for the locking contract).
        with TelemetryServer(registry) as server:
            counter = registry.counter("packets_received_total")
            for _ in range(20):
                with server.lock:
                    counter.inc()
                status, _, _ = _get(server.url("/metrics"))
                assert status == 200


class TestSnapshotSections:
    """``/snapshot.json`` holds the registry and the health report;
    run facts reach it as published samples."""

    def test_sections_render_under_the_publisher_lock(self, registry):
        server = TelemetryServer(registry)
        held = {}

        class ProbeWatchdog:
            def evaluate(self, snapshot, now):
                # The handler holds server.lock while rendering, so the
                # health section must see it taken.
                held["locked"] = server.lock.locked()
                return HealthWatchdog(default_rules()).evaluate(
                    snapshot, now=now
                )

        server.watchdog = ProbeWatchdog()
        with server:
            _get(server.url("/snapshot.json"))
        assert held["locked"] is True

    def test_snapshot_unchanged_when_no_sections_registered(self, registry):
        """/snapshot.json is the server's own sections -- metrics,
        health, nothing else."""
        server = TelemetryServer(
            registry, watchdog=HealthWatchdog(default_rules())
        )
        with server:
            _, _, body = _get(server.url("/snapshot.json"))
        data = json.loads(body)
        assert list(data) == ["metrics", "health"]
        assert data["health"]["state"] == "ok"
        assert data["metrics"]["packets_received_total"]["type"] == "counter"


class TestMidRunScrape:
    def test_scrape_from_inside_a_simulation_event(self):
        """A real HTTP client scrapes /metrics and /healthz while the
        simulation is mid-run -- the acceptance criterion for the
        live-export tentpole leg."""
        from repro.core.sequent import SequentDemux
        from repro.workload.tpca import TPCAConfig, TPCADemuxSimulation

        algorithm = SequentDemux(19)
        registry = MetricsRegistry()
        watchdog = HealthWatchdog(default_rules())
        simulation = TPCADemuxSimulation(
            TPCAConfig(n_users=50, duration=30.0, seed=4), algorithm
        )
        server = TelemetryServer(
            registry, watchdog=watchdog, clock=lambda: simulation.sim.now
        )
        server.start()
        scraped = {}

        def publish():
            with server.lock:
                registry.publish(algorithm)
            simulation.sim.schedule(5.0, publish)

        def scrape():
            status, _, body = _get(server.url("/metrics"))
            scraped["metrics"] = (status, body.decode())
            scraped["healthz"] = _get(server.url("/healthz"))[0]
            scraped["lookups_at_scrape"] = algorithm.stats.lookups

        try:
            simulation.sim.schedule(5.0, publish)
            simulation.sim.schedule(12.0, scrape)
            result = simulation.run()
        finally:
            server.stop()

        status, text = scraped["metrics"]
        assert status == 200
        assert scraped["healthz"] == 200
        assert "demux_lookups_total" in text
        # The scrape really happened mid-run: lookups at scrape time
        # were a strict prefix of the whole run's.
        assert 0 < scraped["lookups_at_scrape"] < result.lookups

    def test_scraped_counts_match_published_deltas(self):
        from repro.core.bsd import BSDDemux
        from repro.core.pcb import PCB
        from repro.core.stats import PacketKind

        from conftest import make_tuple

        algorithm = BSDDemux()
        for i in range(4):
            algorithm.insert(PCB(make_tuple(i)))
        registry = MetricsRegistry()
        with TelemetryServer(registry) as server:
            for _ in range(3):
                algorithm.lookup(make_tuple(2), PacketKind.DATA)
            with server.lock:
                registry.publish(algorithm)
            _, _, body = _get(server.url("/metrics"))
        assert re.search(
            r'demux_lookups_total\{[^}]*kind="data"[^}]*\} 3',
            body.decode(),
        )


class TestServeMetricsCLI:
    def test_simulate_serves_and_exits_cleanly(self, tmp_path):
        """``simulate --serve-metrics 0``: parse the announced port,
        scrape all three endpoints during --serve-hold, expect a clean
        exit with the health line on stdout."""
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "simulate",
                "--users", "30", "--duration", "15",
                "--sketch", "--serve-metrics", "0", "--serve-hold", "15",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            port = None
            for _ in range(200):
                line = process.stderr.readline()
                match = re.search(r"http://127\.0\.0\.1:(\d+)/metrics", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "telemetry announcement never appeared on stderr"
            # The run is over (final publish done, summary flushed) once
            # the hold is announced.
            held = any(
                "holding telemetry server" in process.stderr.readline()
                for _ in range(200)
            )
            assert held, "the --serve-hold never began"
            base = f"http://127.0.0.1:{port}"
            status, _, body = _get(f"{base}/metrics")
            assert status == 200
            assert "demux_lookups_total" in body.decode()
            assert "traffic_skew" in body.decode()
            assert _get(f"{base}/healthz")[0] == 200
            snapshot = json.loads(_get(f"{base}/snapshot.json")[2])
            assert list(snapshot) == ["metrics", "health"]
            assert snapshot["health"]["state"] == "ok"
            run = {
                sample["labels"]["name"]: sample["value"]
                for sample in snapshot["metrics"]["sim_run"]["samples"]
            }
            assert run["transactions"] > 0
        finally:
            process.terminate()
            stdout, _ = process.communicate(timeout=30)
        assert "health: health=ok" in stdout
        assert "traffic:" in stdout
