"""Tests for repro.obs.report and the ``obs-report`` CLI subcommand:
snapshot loading (both metrics.json and /snapshot.json shapes), the
dashboard sections rendered from a real registry, and the CLI's file
output path."""

import json

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import load_metrics_snapshot, render_dashboard
from repro.obs.sketch import TrafficCharacterizer
from repro.obs.spans import write_spans_jsonl


def _populated_registry():
    registry = MetricsRegistry()
    run = registry.gauge("sim_run")
    run.set(50, name="users")
    run.set(30, name="duration")
    lookups = registry.counter("demux_lookups_total")
    lookups.inc(900, algorithm="bsd", kind="data")
    lookups.inc(100, algorithm="bsd", kind="syn")
    registry.counter("demux_examined_total").inc(
        4500, algorithm="bsd", kind="data"
    )
    registry.counter("demux_cache_hits_total").inc(
        600, algorithm="bsd", kind="data"
    )
    histogram = registry.histogram("demux_examined")
    for value, count in ((1, 600), (5, 300), (12, 100)):
        histogram.observe(value, count=count, algorithm="bsd", kind="data")
    registry.counter("packets_received_total").inc(1000)
    drops = registry.counter("packet_drops_total")
    drops.inc(7, reason="corrupt")
    drops.inc(2, reason="no-listener")
    return registry


def _spans():
    return [
        {
            "span_id": i,
            "four_tuple": [i, 1000 + i, 99, 2000],
            "outcome": "delivered" if i % 2 else "dropped",
            "stages": [
                {"name": "lookup", "time": 0.1, "examined": 3 * i},
                {"name": "deliver" if i % 2 else "drop", "time": 0.2},
            ],
        }
        for i in range(1, 7)
    ]


class TestLoadMetricsSnapshot:
    def test_plain_metrics_json(self, tmp_path):
        registry = _populated_registry()
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(registry.snapshot()))
        assert load_metrics_snapshot(path) == registry.snapshot()

    def test_unwraps_snapshot_json_body(self, tmp_path):
        # A saved /snapshot.json nests the registry under "metrics".
        registry = _populated_registry()
        body = {
            "run": {"algorithm": "bsd"},
            "health": {"state": "ok"},
            "metrics": registry.snapshot(),
        }
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(body))
        assert load_metrics_snapshot(path) == registry.snapshot()

    def test_plain_dict_with_metrics_key_not_misread(self, tmp_path):
        # A registry that happens to contain a metric named "metrics"
        # must not be unwrapped: the nested value is a metric entry,
        # not a registry snapshot.
        registry = MetricsRegistry()
        registry.counter("metrics").inc(1)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(registry.snapshot()))
        assert load_metrics_snapshot(path) == registry.snapshot()


class TestRenderDashboard:
    @pytest.fixture(scope="class")
    def dashboard(self):
        return render_dashboard(
            _populated_registry().snapshot(), spans=_spans()
        )

    def test_header_uses_name_labels(self, dashboard):
        # Regression: the header used to read the "stat" label, but
        # sim_run gauges are published with name=..., so the run line
        # rendered as "=50  =30".
        assert "run: duration=30  users=50" in dashboard

    def test_demux_section(self, dashboard):
        assert "== demux cost" in dashboard
        assert "bsd" in dashboard
        # 4500 examined / 900 data lookups.
        assert "5.00" in dashboard
        # 600 hits / 900 lookups.
        assert "66.7%" in dashboard

    def test_examined_plot(self, dashboard):
        assert "== examined-count distribution" in dashboard
        assert "PCBs examined per lookup" in dashboard

    def test_drop_taxonomy_sorted_by_count(self, dashboard):
        assert "== drop taxonomy" in dashboard
        assert dashboard.index("corrupt") < dashboard.index("no-listener")

    def test_watchdog_verdict(self, dashboard):
        assert "== SLO watchdog" in dashboard
        assert "health=ok" in dashboard
        assert "p99-examined" in dashboard

    def test_span_digest(self, dashboard):
        assert "== packet spans (6 recorded)" in dashboard
        assert "delivered=3" in dashboard
        assert "dropped=3" in dashboard
        assert "costliest sampled packets:" in dashboard
        # Highest examined stage (span 6, examined=18) listed first.
        assert "examined=18" in dashboard

    def test_traffic_section_from_characterizer(self):
        characterizer = TrafficCharacterizer()
        for i in range(500):
            characterizer.note_packet(i % 7, "data")
            characterizer.observe(i % 7, (i % 9) + 1, now=i * 0.01)
        registry = MetricsRegistry()
        registry.publish(characterizer)
        dashboard = render_dashboard(registry.snapshot())
        assert "== traffic characterization" in dashboard
        assert "examined quantiles:" in dashboard
        assert "zipf skew" in dashboard
        assert "heavy hitters" in dashboard
        assert "#1" in dashboard

    def test_sections_omitted_when_absent(self):
        dashboard = render_dashboard(MetricsRegistry().snapshot())
        assert "repro observability report" in dashboard
        assert "== demux cost" not in dashboard
        assert "== traffic characterization" not in dashboard
        assert "== packet spans" not in dashboard
        # The watchdog always reports (all rules skipped -> ok).
        assert "health=ok" in dashboard


class TestObsReportCLI:
    @pytest.fixture
    def artifacts(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(_populated_registry().snapshot()))
        spans = tmp_path / "spans.jsonl"
        write_spans_jsonl(_spans(), spans)
        return metrics, spans

    def test_prints_dashboard(self, artifacts, capsys):
        metrics, spans = artifacts
        exit_code = main(
            ["obs-report", "--metrics", str(metrics), "--spans", str(spans)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "repro observability report" in out
        assert "== packet spans (6 recorded)" in out

    def test_writes_out_file(self, artifacts, tmp_path, capsys):
        metrics, _ = artifacts
        out_path = tmp_path / "dash.txt"
        exit_code = main(
            ["obs-report", "--metrics", str(metrics), "--out", str(out_path)]
        )
        assert exit_code == 0
        assert f"dashboard written to {out_path}" in capsys.readouterr().out
        text = out_path.read_text()
        assert "== demux cost" in text
        assert "== packet spans" not in text  # no spans supplied
