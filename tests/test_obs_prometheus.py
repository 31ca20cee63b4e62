"""Prometheus-export edge cases: label escaping, empty label sets and
fixed-boundary histogram rendering (+Inf/sum/count consistency)."""

import pytest

from repro.obs.metrics import MetricsRegistry

#: The ``le`` labels of every rendered histogram: the power-of-two
#: export edges, then ``+Inf``.
EXPORT_LES = [
    "1", "2", "4", "8", "16", "32", "64", "128", "256", "512", "1024",
    "+Inf",
]


def _lines(registry):
    return registry.to_prometheus().splitlines()


def _les(lines):
    return [
        line.split('le="')[1].split('"')[0]
        for line in lines
        if "_bucket" in line
    ]


class TestLabelEscaping:
    def test_quotes_backslashes_newlines(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(
            1, path='a"b', host="x\\y", note="l1\nl2"
        )
        (sample,) = [
            line for line in _lines(registry) if not line.startswith("#")
        ]
        assert r'path="a\"b"' in sample
        assert r'host="x\\y"' in sample
        assert r'note="l1\nl2"' in sample
        assert "\n" not in sample  # the newline really was escaped

    def test_plain_values_unchanged(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1, kind="data")
        assert 'g{kind="data"} 1' in _lines(registry)

    def test_invalid_label_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(1, **{"bad-name": "x"})


class TestEmptyLabelSets:
    def test_unlabelled_sample_has_no_braces(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        assert "c 5" in _lines(registry)
        assert not any("{}" in line for line in _lines(registry))

    def test_unlabelled_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1)
        lines = _lines(registry)
        assert 'h_bucket{le="1"} 1' in lines
        assert 'h_bucket{le="+Inf"} 1' in lines
        assert "h_sum 1" in lines
        assert "h_count 1" in lines


class TestFixedBucketHistograms:
    def _histogram_lines(self, values):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in values:
            histogram.observe(value, kind="data")
        return _lines(registry)

    def test_boundaries_stable_across_observations(self):
        # ``le`` labels are the fixed export edges, not whatever values
        # happened to be observed, so consecutive scrapes expose
        # identical series.
        first = self._histogram_lines([1, 7])
        second = self._histogram_lines([2, 3, 900])
        assert _les(first) == _les(second) == EXPORT_LES

    def test_cumulative_counts_and_inf_consistency(self):
        lines = self._histogram_lines([1, 2, 5, 17, 1000])
        assert 'h_bucket{kind="data",le="1"} 1' in lines
        assert 'h_bucket{kind="data",le="4"} 2' in lines
        assert 'h_bucket{kind="data",le="16"} 3' in lines
        assert 'h_bucket{kind="data",le="+Inf"} 5' in lines
        assert 'h_count{kind="data"} 5' in lines
        assert 'h_sum{kind="data"} 1025' in lines

    def test_default_buckets_supplied_at_export(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(3, kind="data")
        assert _les(_lines(registry)) == EXPORT_LES

    def test_json_snapshot_keeps_exact_counts(self):
        # Fixed boundaries are an export concern only; the snapshot
        # must keep per-value resolution for offline analysis.
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(3)
        histogram.observe(5)
        (sample,) = registry.snapshot()["h"]["samples"]
        assert sample["counts"] == {"3": 1, "5": 1}


class TestExpositionFormat:
    def test_help_and_type_headers(self):
        registry = MetricsRegistry()
        registry.counter("c", "counts things").inc()
        lines = _lines(registry)
        assert "# HELP c counts things" in lines
        assert "# TYPE c counter" in lines

    def test_ends_with_newline(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert registry.to_prometheus().endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""
