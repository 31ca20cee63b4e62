"""Tests for repro.obs.metrics: registry, export formats, and
``MetricsRegistry.publish`` (delta publishing, reset handling, gauge
turnover) over a structure's ``metrics()`` families."""

import copy
import json

import pytest

from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.experiments.runner import run_all
from repro.obs.metrics import MetricsRegistry

from conftest import make_pcbs, make_tuple


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = MetricsRegistry().counter("requests_total")
        assert counter.value() == 0
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labelled_series_are_independent(self):
        counter = MetricsRegistry().counter("lookups_total")
        counter.inc(2, kind="data")
        counter.inc(3, kind="ack")
        assert counter.value(kind="data") == 2
        assert counter.value(kind="ack") == 3
        assert counter.value(kind="other") == 0

    def test_label_order_is_canonical(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(1, a="1", b="2")
        assert counter.value(b="2", a="1") == 1

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok").inc(1, **{"0bad": "x"})


class TestGauge:
    def test_set_and_move(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(7.5)
        assert gauge.value() == 7.5
        gauge.set(2.0)
        assert gauge.value() == 2.0
        gauge.inc()
        assert gauge.value() == 3.0


class TestHistogram:
    def test_observe_exact_counts(self):
        histogram = MetricsRegistry().histogram("lengths")
        for value in (1, 1, 3, 7):
            histogram.observe(value)
        assert histogram.counts() == {1: 2, 3: 1, 7: 1}
        assert histogram.count() == 4
        assert histogram.sum() == 12
        assert histogram.mean() == 3.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_contains_and_len(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        assert "a" in registry and "b" in registry and "c" not in registry
        assert len(registry) == 2


class TestJsonExport:
    def test_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "cache hits").inc(3, kind="data")
        registry.gauge("table_size").set(42)
        registry.histogram("lengths").observe(2, 5)
        snapshot = json.loads(registry.to_json())
        assert snapshot["hits_total"]["type"] == "counter"
        assert snapshot["hits_total"]["help"] == "cache hits"
        assert snapshot["hits_total"]["samples"] == [
            {"labels": {"kind": "data"}, "value": 3}
        ]
        assert snapshot["table_size"]["samples"][0]["value"] == 42
        histogram = snapshot["lengths"]["samples"][0]
        assert histogram["count"] == 5
        assert histogram["sum"] == 10
        assert histogram["counts"] == {"2": 5}


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "cache hits").inc(3, kind="data")
        registry.gauge("depth").set(1.5)
        text = registry.to_prometheus()
        assert "# HELP hits_total cache hits" in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{kind="data"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text
        assert text.endswith("\n")

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lengths", "search lengths")
        histogram.observe(1, 2)
        histogram.observe(3, 1)
        lines = registry.to_prometheus().splitlines()
        assert 'lengths_bucket{le="1"} 2' in lines
        assert 'lengths_bucket{le="2"} 2' in lines
        assert 'lengths_bucket{le="4"} 3' in lines
        assert 'lengths_bucket{le="+Inf"} 3' in lines
        assert "lengths_sum 5" in lines
        assert "lengths_count 3" in lines

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, path='a"b\\c')
        text = registry.to_prometheus()
        assert r'c{path="a\"b\\c"} 1' in text


class TestDemuxStatsExporter:
    """Publishing a structure exports its ``DemuxStats`` as ``demux_*``."""

    def _populated_algorithm(self):
        algorithm = SequentDemux(7)
        for pcb in make_pcbs(20):
            algorithm.insert(pcb)
        for i in range(20):
            algorithm.lookup(make_tuple(i), PacketKind.DATA)
        for i in range(10):
            algorithm.lookup(make_tuple(i), PacketKind.ACK)
        return algorithm

    def test_publish_matches_stats(self):
        algorithm = self._populated_algorithm()
        registry = MetricsRegistry()
        registry.publish(algorithm)
        counter = registry.counter("demux_lookups_total")
        data = algorithm.stats.kind(PacketKind.DATA)
        ack = algorithm.stats.kind(PacketKind.ACK)
        assert counter.value(algorithm="sequent", kind="data") == data.lookups
        assert counter.value(algorithm="sequent", kind="ack") == ack.lookups
        examined = registry.counter("demux_examined_total")
        assert (
            examined.value(algorithm="sequent", kind="data")
            == data.examined_total
        )
        histogram = registry.histogram("demux_examined")
        assert (
            histogram.counts(algorithm="sequent", kind="data")
            == data.histogram
        )
        assert registry.gauge("demux_examined_max").value(
            algorithm="sequent", kind="data"
        ) == data.max_examined

    def test_repeated_publish_adds_only_deltas(self):
        algorithm = self._populated_algorithm()
        registry = MetricsRegistry()
        registry.publish(algorithm)
        registry.publish(algorithm)  # no new lookups: no change
        counter = registry.counter("demux_lookups_total")
        assert counter.value(algorithm="sequent", kind="data") == 20
        algorithm.lookup(make_tuple(0), PacketKind.DATA)
        registry.publish(algorithm)
        assert counter.value(algorithm="sequent", kind="data") == 21
        histogram = registry.histogram("demux_examined")
        assert (
            histogram.count(algorithm="sequent", kind="data")
            == algorithm.stats.kind(PacketKind.DATA).lookups
        )

    def test_stats_reset_detected(self):
        algorithm = self._populated_algorithm()
        registry = MetricsRegistry()
        registry.publish(algorithm)
        algorithm.stats.reset()
        algorithm.lookup(make_tuple(3), PacketKind.DATA)
        registry.publish(algorithm)  # counters must not go backwards
        counter = registry.counter("demux_lookups_total")
        assert counter.value(algorithm="sequent", kind="data") == 21

    def test_publish_does_not_mutate_stats(self):
        algorithm = self._populated_algorithm()
        before = copy.deepcopy(algorithm.stats.as_dict())
        MetricsRegistry().publish(algorithm)
        assert algorithm.stats.as_dict() == before


class _Source:
    """A hand-set metrics source: ``families`` is returned as is."""

    def __init__(self, *families):
        self.families = list(families)

    def metrics(self):
        return self.families


def _totals(lookups, not_found, histogram):
    labels = {"kind": "data"}
    return [
        ("lookups_total", "counter", "", [(labels, lookups)]),
        ("not_found_total", "counter", "", [(labels, not_found)]),
        ("examined", "histogram", "", [(labels, histogram)]),
    ]


class TestPublish:
    def test_publishing_twice_unchanged_adds_nothing(self):
        source = _Source(*_totals(5, 1, {1: 4, 3: 1}))
        registry = MetricsRegistry()
        registry.publish(source)
        before = registry.snapshot()
        registry.publish(source)
        assert registry.snapshot() == before
        assert registry.counter("lookups_total").value(kind="data") == 5
        assert registry.histogram("examined").counts(kind="data") == {
            1: 4, 3: 1,
        }

    def test_growth_adds_only_the_difference(self):
        source = _Source(*_totals(5, 1, {1: 4, 3: 1}))
        registry = MetricsRegistry()
        registry.publish(source)
        source.families = _totals(8, 1, {1: 6, 3: 1, 4: 1})
        registry.publish(source)
        assert registry.counter("lookups_total").value(kind="data") == 8
        assert registry.histogram("examined").counts(kind="data") == {
            1: 6, 3: 1, 4: 1,
        }

    def test_reset_restarts_every_total_of_the_label_set(self):
        # lookups went backwards (a stats reset), while not_found and
        # one histogram bucket regrew past their pre-reset totals: all
        # three restart from zero, so none of the new counts is lost.
        source = _Source(*_totals(22, 2, {1: 20, 5: 2}))
        registry = MetricsRegistry()
        registry.publish(source)
        source.families = _totals(6, 5, {5: 5, 1: 1})
        registry.publish(source)
        assert registry.counter("lookups_total").value(kind="data") == 28
        assert registry.counter("not_found_total").value(kind="data") == 7
        assert registry.histogram("examined").counts(kind="data") == {
            1: 21, 5: 7,
        }

    def test_any_backward_total_marks_the_reset(self):
        # lookups regrew past its old total; the histogram bucket that
        # shrank still reveals the reset.
        source = _Source(*_totals(5, 1, {1: 4, 3: 1}))
        registry = MetricsRegistry()
        registry.publish(source)
        source.families = _totals(7, 1, {1: 7})
        registry.publish(source)
        assert registry.counter("lookups_total").value(kind="data") == 12
        assert registry.counter("not_found_total").value(kind="data") == 2

    def test_other_label_sets_keep_their_deltas(self):
        def families(data, ack):
            return [("lookups_total", "counter", "", [
                ({"kind": "data"}, data), ({"kind": "ack"}, ack),
            ])]

        source = _Source(*families(10, 10))
        registry = MetricsRegistry()
        registry.publish(source)
        source.families = families(3, 12)
        registry.publish(source)
        counter = registry.counter("lookups_total")
        assert counter.value(kind="data") == 13
        assert counter.value(kind="ack") == 12

    def test_stats_reset_restarts_the_kind_together(self):
        algorithm = SequentDemux(7)
        for pcb in make_pcbs(20):
            algorithm.insert(pcb)
        for i in range(22):  # tuples 20 and 21 are not installed
            algorithm.lookup(make_tuple(i), PacketKind.DATA)
        registry = MetricsRegistry()
        registry.publish(algorithm)
        algorithm.stats.reset()
        for i in range(20, 25):  # five misses: not_found regrows past 2
            algorithm.lookup(make_tuple(i), PacketKind.DATA)
        algorithm.lookup(make_tuple(0), PacketKind.DATA)
        registry.publish(algorithm)
        labels = {"algorithm": "sequent", "kind": "data"}
        assert registry.counter("demux_lookups_total").value(**labels) == 28
        assert registry.counter("demux_not_found_total").value(**labels) == 7
        assert registry.histogram("demux_examined").count(**labels) == 28

    def test_gauge_no_longer_reported_is_dropped(self):
        def ranking(*names):
            return [("top", "gauge", "", [
                ({"name": name}, 1.0) for name in names
            ])]

        source = _Source(*ranking("a", "b"))
        registry = MetricsRegistry()
        registry.publish(source)
        source.families = ranking("b", "c")
        registry.publish(source)
        names = {
            sample["labels"]["name"]
            for sample in registry.snapshot()["top"]["samples"]
        }
        assert names == {"b", "c"}

    def test_labels_are_added_and_name_a_separate_source(self):
        source = _Source(("hits_total", "counter", "", [({}, 4)]))
        registry = MetricsRegistry()
        registry.publish(source, host="a")
        registry.publish(source, host="b")
        registry.publish(source, host="a")
        counter = registry.counter("hits_total")
        assert counter.value(host="a") == 4
        assert counter.value(host="b") == 4

    def test_gauges_of_other_sources_survive(self):
        registry = MetricsRegistry()
        registry.publish(_Source(("size", "gauge", "", [({"x": "1"}, 1)])))
        registry.publish(_Source(("size", "gauge", "", [({"x": "2"}, 2)])))
        assert registry.gauge("size").value(x="1") == 1
        assert registry.gauge("size").value(x="2") == 2

    def test_empty_family_is_registered(self):
        registry = MetricsRegistry()
        registry.publish(_Source(("mttr", "histogram", "repairs", [])))
        assert registry.snapshot()["mttr"] == {
            "type": "histogram", "help": "repairs", "samples": [],
        }

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.publish(_Source(("x", "gauge", "", [({}, 1)])))


class TestStatsAsDict:
    def test_shape(self):
        algorithm = SequentDemux(7)
        pcb, = make_pcbs(1)
        algorithm.insert(pcb)
        algorithm.lookup(pcb.four_tuple, PacketKind.DATA)
        snapshot = algorithm.stats.as_dict()
        assert snapshot["lookups"] == 1
        assert snapshot["by_kind"]["data"]["histogram"] == {"1": 1}
        assert snapshot["by_kind"]["ack"]["lookups"] == 0
        json.dumps(snapshot)  # must be JSON-ready


class TestRunnerMetricsArtifact:
    def test_run_all_writes_metrics_json(self, tmp_path):
        outdir = run_all(tmp_path / "out", include_simulation=False)
        path = outdir / "metrics.json"
        assert path.exists()
        snapshot = json.loads(path.read_text())
        assert "artifacts_written_total" in snapshot
        assert "figure_points" in snapshot
        kinds = {
            sample["labels"]["kind"]: sample["value"]
            for sample in snapshot["artifacts_written_total"]["samples"]
        }
        assert kinds["figure"] == 6  # three figures, .txt + .csv each
        assert kinds["report"] == 1
        figures = {
            sample["labels"]["figure"]
            for sample in snapshot["figure_points"]["samples"]
        }
        assert figures == {"figure04", "figure13", "figure14"}
