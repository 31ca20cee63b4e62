"""Tests for repro.obs.profile: sampling correctness, report shape,
attach/detach semantics, and non-perturbation."""

import pytest

from repro.core.bsd import BSDDemux
from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.obs.profile import DEFAULT_SAMPLE_EVERY, LookupProfiler

from conftest import make_pcbs, make_tuple


class TestSamplingCorrectness:
    def test_every_nth_lookup_is_timed(self):
        algorithm = BSDDemux()
        for pcb in make_pcbs(10):
            algorithm.insert(pcb)
        profiler = LookupProfiler(sample_every=4).attach(algorithm)
        for _ in range(5):
            for i in range(20):
                algorithm.lookup(make_tuple(i))
        assert profiler.lookups == 100
        assert profiler.samples == 25

    def test_sample_every_one_times_everything(self):
        algorithm = BSDDemux()
        profiler = LookupProfiler(sample_every=1).attach(algorithm)
        for _ in range(7):
            algorithm.lookup(make_tuple(0))
        assert profiler.samples == 7

    def test_default_sampling_rate(self):
        profiler = LookupProfiler()
        assert profiler.sample_every == DEFAULT_SAMPLE_EVERY == 64

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LookupProfiler(sample_every=0)
        with pytest.raises(ValueError):
            LookupProfiler(max_samples=0)

    def test_max_samples_bounds_memory(self):
        algorithm = BSDDemux()
        profiler = LookupProfiler(sample_every=1, max_samples=5)
        profiler.attach(algorithm)
        for _ in range(12):
            algorithm.lookup(make_tuple(0))
        assert profiler.samples == 5
        assert profiler.overflowed == 7


class TestAttachDetach:
    def test_double_attach_rejected(self):
        algorithm = BSDDemux()
        LookupProfiler().attach(algorithm)
        with pytest.raises(ValueError):
            LookupProfiler().attach(algorithm)

    def test_detach_restores_bare_path(self):
        algorithm = BSDDemux()
        profiler = LookupProfiler(sample_every=1).attach(algorithm)
        algorithm.lookup(make_tuple(0))
        profiler.detach(algorithm)
        algorithm.lookup(make_tuple(0))
        assert profiler.lookups == 1
        assert algorithm.stats.lookups == 2

    def test_detach_wrong_profiler_rejected(self):
        algorithm = BSDDemux()
        LookupProfiler().attach(algorithm)
        with pytest.raises(ValueError):
            LookupProfiler().detach(algorithm)


class TestNonPerturbation:
    def test_profiled_results_and_stats_identical(self):
        def run(profiled):
            algorithm = SequentDemux(7)
            if profiled:
                LookupProfiler(sample_every=3).attach(algorithm)
            for pcb in make_pcbs(25):
                algorithm.insert(pcb)
            results = [
                algorithm.lookup(make_tuple(i % 25), PacketKind.DATA).examined
                for i in range(100)
            ]
            return results, algorithm.stats.as_dict()

        bare_results, bare_stats = run(profiled=False)
        prof_results, prof_stats = run(profiled=True)
        assert prof_results == bare_results
        assert prof_stats == bare_stats


class TestReport:
    def test_empty_report(self):
        report = LookupProfiler().report()
        assert report.samples == 0
        assert report.mean_ns == 0.0
        assert "no samples" in report.render()

    def test_report_statistics_are_consistent(self):
        algorithm = BSDDemux()
        for pcb in make_pcbs(50):
            algorithm.insert(pcb)
        profiler = LookupProfiler(sample_every=2).attach(algorithm)
        for i in range(40):
            algorithm.lookup(make_tuple(i % 50))
        report = profiler.report()
        assert report.lookups == 40
        assert report.samples == 20
        assert report.total_ns > 0
        assert report.min_ns <= report.p50_ns <= report.p95_ns <= report.max_ns
        assert report.min_ns <= report.mean_ns <= report.max_ns
        assert report.as_dict()["samples"] == 20
        assert "20 samples" in report.render()

    def test_reset(self):
        algorithm = BSDDemux()
        profiler = LookupProfiler(sample_every=1).attach(algorithm)
        algorithm.lookup(make_tuple(0))
        profiler.reset()
        assert profiler.lookups == 0
        assert profiler.samples == 0

