"""Tests for repro.obs.sketch: every estimator validated against the
exact offline computation on recorded TPC/A and zipf-skewed streams.

The contracts under test are the published error bounds, not point
values: P-squared quantiles land near the exact empirical quantile,
Space-Saving counts bracket the true counts (count - error <= true <=
count), HyperLogLog stays within its standard-error envelope, and the
train-ness detector flips between coalesced and uncoalesced replays of
the same stream."""

import hashlib
import json
import pathlib
import random

import pytest

import repro.obs.sketch as sketch_module
from repro.core.bsd import BSDDemux
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.fastpath.conformance import golden_stream
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import (
    HyperLogLog,
    P2Quantile,
    SpaceSaving,
    TrafficCharacterizer,
    TrainDetector,
    WorkingSetEstimator,
)
from repro.obs.spans import SpanCollector
from repro.smp.coalesce import BatchCoalescer
from repro.workload.record import record_tpca_stream

from conftest import make_tuple

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _exact_quantile(values, q):
    """Nearest-rank empirical quantile, the offline ground truth."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _zipf_keys(n_keys, n_samples, s=1.2, seed=99):
    rng = random.Random(seed)
    weights = [1.0 / (rank ** s) for rank in range(1, n_keys + 1)]
    keys = list(range(n_keys))
    return rng.choices(keys, weights=weights, k=n_samples)


@pytest.fixture(scope="module")
def tpca_examined():
    """Exact per-lookup examined counts from a recorded TPC/A replay."""
    stream = record_tpca_stream(64, 40.0, 5)
    algorithm = BSDDemux()
    for tup in stream.tuples:
        algorithm.insert(PCB(tup))
    examined = [
        algorithm.lookup(tup, kind).examined
        for tup, kind in stream.packets
    ]
    assert len(examined) >= 500
    return examined


class TestP2Quantile:
    def test_exact_below_five_observations(self):
        sketch = P2Quantile(0.5)
        for value in (5.0, 1.0, 3.0):
            sketch.observe(value)
        assert sketch.value() == 3.0

    def test_tracks_tpca_quantiles(self, tpca_examined):
        # P-squared holds 5 markers regardless of stream length; the
        # estimate must land within the local neighbourhood of the
        # exact quantile (one step of the discrete distribution).
        for q in (0.5, 0.9, 0.99):
            sketch = P2Quantile(q)
            for value in tpca_examined:
                sketch.observe(value)
            exact = _exact_quantile(tpca_examined, q)
            spread = max(tpca_examined) - min(tpca_examined)
            assert abs(sketch.value() - exact) <= max(2.0, 0.1 * spread), (
                f"p{q}: estimate {sketch.value()} vs exact {exact}"
            )

    def test_tracks_zipf_stream(self):
        rng = random.Random(11)
        values = [rng.paretovariate(1.5) for _ in range(20000)]
        sketch = P2Quantile(0.9)
        for value in values:
            sketch.observe(value)
        exact = _exact_quantile(values, 0.9)
        assert abs(sketch.value() - exact) / exact < 0.1

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    #: Marker heights, positions and desired positions after
    #: :meth:`_marker_stream`, pinned bit for bit.
    RECORDED_MARKERS = {
        0.5: (
            [1.0, 1.5684990738943498, 3.149829006628358,
             9.085401198959474, 7734.445516531108],
            [1.0, 1501.0, 3001.0, 4501.0, 6000.0],
            [1.0, 1500.75, 3000.5, 4500.25, 6000.0],
        ),
        0.9: (
            [1.0, 2.710441836203473, 11.193845569999425,
             25.736042512748313, 7734.445516531108],
            [1.0, 2701.0, 5400.0, 5700.0, 6000.0],
            [1.0, 2700.5499999998824, 5400.099999999765,
             5700.04999999937, 6000.0],
        ),
        0.99: (
            [1.0, 3.0893671051233533, 66.18495280210027,
             212.19638435394484, 7734.445516531108],
            [1.0, 2971.0, 5941.0, 5970.0, 6000.0],
            [1.0, 2970.5049999995795, 5940.009999999159,
             5970.004999999462, 6000.0],
        ),
    }

    @staticmethod
    def _marker_stream():
        """Ties (small integers, like PCBs examined) and a heavy tail,
        from arithmetic that rounds the same on every platform."""
        rng = random.Random(1992)
        values = []
        for _ in range(6000):
            if rng.random() < 0.4:
                values.append(float(rng.randint(1, 12)))
            else:
                values.append(1.0 / (1.0 - rng.random()))
        return values

    @pytest.mark.parametrize("q", sorted(RECORDED_MARKERS))
    def test_markers_match_recorded_values(self, q):
        sketch = P2Quantile(q)
        for value in self._marker_stream():
            sketch.observe(value)
        assert sketch.count == 6000
        assert (
            sketch._heights, sketch._positions, sketch._desired
        ) == self.RECORDED_MARKERS[q]


class TestSpaceSaving:
    def test_error_bounds_bracket_true_counts(self):
        keys = _zipf_keys(2000, 50000)
        exact = {}
        for key in keys:
            exact[key] = exact.get(key, 0) + 1
        sketch = SpaceSaving(capacity=128)
        for key in keys:
            sketch.offer(key)
        # The published Space-Saving guarantees: estimated count is an
        # overestimate, by at most the recorded per-counter error, and
        # every error is bounded by total/capacity.
        for key, count, error in sketch.top(20):
            true = exact.get(key, 0)
            assert count >= true
            assert count - error <= true
            assert error <= len(keys) / 128
        assert sketch.guarantee() == len(keys) / 128

    def test_finds_true_heavy_hitters(self):
        keys = _zipf_keys(2000, 50000)
        exact = {}
        for key in keys:
            exact[key] = exact.get(key, 0) + 1
        sketch = SpaceSaving(capacity=128)
        for key in keys:
            sketch.offer(key)
        true_top = {k for k, _ in sorted(
            exact.items(), key=lambda item: -item[1]
        )[:5]}
        sketch_top = {k for k, _, _ in sketch.top(5)}
        assert true_top == sketch_top

    def test_share_sums_sensibly(self):
        sketch = SpaceSaving(capacity=8)
        for key in _zipf_keys(100, 5000, seed=3):
            sketch.offer(key)
        top = sketch.top(5)
        shares = [sketch.share(key) for key, _, _ in top]
        assert all(0.0 < share <= 1.0 for share in shares)
        assert shares == sorted(shares, reverse=True)

    def test_skew_estimates_zipf_exponent(self):
        for s in (0.8, 1.2):
            sketch = SpaceSaving(capacity=256)
            for key in _zipf_keys(1000, 200000, s=s):
                sketch.offer(key)
            estimate = sketch.skew()
            assert abs(estimate - s) < 0.35, f"s={s}: estimated {estimate}"

    def test_uniform_stream_has_low_skew(self):
        sketch = SpaceSaving(capacity=256)
        rng = random.Random(7)
        for _ in range(50000):
            sketch.offer(rng.randrange(200))
        assert sketch.skew() < 0.3

    def test_eviction_matches_reference_loop(self):
        """Evicting picks the same victim as a scan by ``counts.get``.

        The stream keeps many counters tied at the minimum, so the
        victim is decided by insertion order.
        """
        rng = random.Random(404)
        keys = [make_tuple(i) for i in range(300)]
        offers = [
            (keys[rng.randrange(300)], rng.choice((1, 1, 1, 2)))
            for _ in range(20000)
        ]
        sketch = SpaceSaving(capacity=16)
        counts, errors = {}, {}
        for key, count in offers:
            sketch.offer(key, count)
            if key in counts:
                counts[key] += count
            elif len(counts) < 16:
                counts[key] = count
                errors[key] = 0
            else:
                victim = min(counts, key=counts.get)
                floor = counts.pop(victim)
                errors.pop(victim)
                counts[key] = floor + count
                errors[key] = floor
        assert list(sketch._counts.items()) == list(counts.items())
        assert list(sketch._errors.items()) == list(errors.items())
        ranked = sorted(counts.items(), key=lambda item: item[1],
                        reverse=True)
        assert sketch.top(16) == [
            (key, count, errors[key]) for key, count in ranked
        ]


class TestTrainDetector:
    def test_interleaved_stream_is_train_free(self):
        detector = TrainDetector()
        for i in range(1000):
            detector.offer(i % 10)
        assert detector.follower_ratio == 0.0
        assert not detector.is_trainy

    def test_back_to_back_runs_detected(self):
        detector = TrainDetector()
        for i in range(100):
            for _ in range(4):
                detector.offer(i)
        assert detector.follower_ratio == pytest.approx(0.75, abs=0.01)
        assert detector.is_trainy
        assert detector.train_ness > 0.5

    def test_ewma_tracks_phase_change(self):
        detector = TrainDetector()
        for i in range(500):
            detector.offer(i % 7)  # interleaved phase
        assert detector.train_ness < 0.05
        for _ in range(500):
            detector.offer(42)  # one long train
        assert detector.train_ness > 0.9


class TestHyperLogLog:
    def test_estimate_within_standard_error(self):
        for n in (100, 1000, 20000):
            hll = HyperLogLog(precision=10)
            for i in range(n):
                hll.add(("conn", i))
            # sigma ~ 1.04/sqrt(1024) ~ 3.25%; allow 4 sigma.
            assert abs(hll.count() - n) / n < 0.13, (n, hll.count())

    def test_duplicates_do_not_inflate(self):
        hll = HyperLogLog(precision=10)
        for _ in range(50):
            for i in range(200):
                hll.add(i)
        assert abs(hll.count() - 200) / 200 < 0.13

    def test_merge_is_union(self):
        a, b = HyperLogLog(10), HyperLogLog(10)
        for i in range(1000):
            a.add(("a", i))
            b.add(("b", i))
        merged = a.merge(b)
        assert abs(merged.count() - 2000) / 2000 < 0.13

    def test_deterministic(self):
        a, b = HyperLogLog(10), HyperLogLog(10)
        for i in range(500):
            a.add(i)
            b.add(i)
        assert a.count() == b.count()

    def test_add_is_add_hashed_of_hash_key(self):
        keyed, hashed = HyperLogLog(10), HyperLogLog(10)
        for i in range(2000):
            key = make_tuple(i % 700)
            keyed.add(key)
            hashed.add_hashed(HyperLogLog.hash_key(key))
        assert keyed._registers == hashed._registers


class TestWorkingSetEstimator:
    def test_forgets_old_epoch(self):
        estimator = WorkingSetEstimator(window=10.0)
        for i in range(1000):
            estimator.offer(("old", i), now=1.0)
        for i in range(50):
            estimator.offer(("new", i), now=25.0)
        # Two window rotations later the old keys are gone; the
        # estimate reflects only the recent phase.
        assert estimator.estimate() < 300

    def test_tracks_live_population(self):
        estimator = WorkingSetEstimator(window=10.0)
        for i in range(500):
            estimator.offer(i % 100, now=i * 0.01)
        assert abs(estimator.estimate() - 100) / 100 < 0.25

    def test_clock_jump_skips_to_its_epoch(self, monkeypatch):
        """A collector on the default 0.0 clock later bound to a wall
        clock jumps ~1.7e9 s: the estimator moves to the epoch holding
        ``now`` without building one HLL per skipped window."""
        built = []

        class CountingHLL(HyperLogLog):
            def __init__(self, precision):
                built.append(precision)
                super().__init__(precision)

        estimator = WorkingSetEstimator(window=10.0)
        for i in range(100):
            estimator.offer(("old", i), now=0.0)
        monkeypatch.setattr(sketch_module, "HyperLogLog", CountingHLL)
        estimator.offer(("new", 0), now=1e9)
        assert len(built) <= 2
        assert estimator.rotations == 10 ** 8
        fresh = HyperLogLog(10)
        fresh.add(("new", 0))
        assert estimator.estimate() == fresh.count()

    def test_small_gaps_match_the_rotation_loop(self):
        class LoopingWorkingSet:
            """The rotation loop the epoch jump replaced."""

            def __init__(self, window):
                self.window = window
                self._current = HyperLogLog(10)
                self._previous = HyperLogLog(10)
                self._epoch_start = None
                self.rotations = 0

            def offer(self, key, now):
                if self._epoch_start is None:
                    self._epoch_start = now
                while now - self._epoch_start >= self.window:
                    self._previous = self._current
                    self._current = HyperLogLog(10)
                    self._epoch_start += self.window
                    self.rotations += 1
                self._current.add(key)

            def estimate(self):
                return self._previous.merge(self._current).count()

        rng = random.Random(77)
        for window in (10.0, 2.5, 0.75):
            estimator = WorkingSetEstimator(window=window)
            reference = LoopingWorkingSet(window)
            now = rng.random() * 5.0
            for i in range(600):
                now += rng.choice((0.0, 0.1, 0.5)) * window
                if rng.random() < 0.05:
                    now += rng.random() * 4.0 * window  # skip epochs
                key = ("conn", rng.randrange(150))
                estimator.offer(key, now)
                reference.offer(key, now)
                assert estimator.rotations == reference.rotations
                assert estimator.estimate() == reference.estimate()
            assert reference.rotations > 20


class TestTrainnessFlipsUnderCoalescing:
    """The acceptance criterion: replaying the *same* recorded stream
    coalesced vs uncoalesced flips the detector's verdict."""

    @pytest.fixture(scope="class")
    def stream(self):
        # Enough concurrent users that arrival order interleaves flows
        # (the paper's train-free OLTP regime), while a 64-packet batch
        # still spans each transaction's DATA -> ACK gap so sorting can
        # manufacture trains.
        return record_tpca_stream(100, 40.0, 9)

    def _characterize(self, stream, batch_size):
        algorithm = BSDDemux()
        for tup in stream.tuples:
            algorithm.insert(PCB(tup))
        collector = SpanCollector(sample_every=1).attach(algorithm)
        characterizer = TrafficCharacterizer().attach(collector)
        if batch_size == 1:
            for tup, kind in stream.packets:
                algorithm.lookup(tup, kind)
        else:
            BatchCoalescer(
                algorithm, batch_size, spans=collector
            ).replay(stream.packets)
        return characterizer

    def test_uncoalesced_tpca_is_train_free(self, stream):
        characterizer = self._characterize(stream, batch_size=1)
        estimates = characterizer.estimates()
        assert estimates["train_follower_ratio"] < 0.15
        assert not estimates["is_trainy"]

    def test_coalesced_replay_is_trainy(self, stream):
        characterizer = self._characterize(stream, batch_size=64)
        estimates = characterizer.estimates()
        assert estimates["train_follower_ratio"] > 0.5
        assert estimates["is_trainy"]


class TestTrafficCharacterizer:
    def _fed(self, n_keys=50, packets=5000):
        characterizer = TrafficCharacterizer()
        for index, key in enumerate(_zipf_keys(n_keys, packets, seed=21)):
            characterizer.observe(make_tuple(key), (key % 9) + 1,
                                  now=index * 0.001)
        return characterizer

    def test_estimates_shape(self):
        estimates = self._fed().estimates()
        assert estimates["packets_observed"] == 5000
        assert set(estimates["examined_quantiles"]) == {"0.5", "0.9", "0.99"}
        assert estimates["heavy_hitters"]
        first = estimates["heavy_hitters"][0]
        assert {"key", "count", "error", "share"} <= set(first)
        assert 0 < estimates["population"] < 100

    def test_publish_creates_gauges(self):
        registry = MetricsRegistry()
        registry.publish(self._fed())
        snapshot = registry.snapshot()
        for name in (
            "traffic_examined_quantile",
            "traffic_heavy_hitter_share",
            "traffic_skew",
            "traffic_train_followers",
            "traffic_trainness",
            "traffic_population",
            "traffic_packets_observed",
        ):
            assert name in snapshot, name
        scopes = {
            sample["labels"]["scope"]
            for sample in snapshot["traffic_population"]["samples"]
        }
        assert scopes == {"total", "working_set"}

    def test_republish_clears_stale_heavy_hitters(self):
        registry = MetricsRegistry()
        characterizer = TrafficCharacterizer(top_n=4)
        for key in range(4):
            characterizer.observe(("old", key), 1.0)
        registry.publish(characterizer)
        # A new dominant population takes over the top-K.
        for key in range(4):
            for _ in range(100):
                characterizer.observe(("new", key), 1.0)
        registry.publish(characterizer)
        samples = registry.snapshot()["traffic_heavy_hitter_share"]["samples"]
        assert len(samples) == 4
        assert all("new" in s["labels"]["connection"] for s in samples)

    def test_attach_simulator_publishes_periodically(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        registry = MetricsRegistry()
        characterizer = self._fed(packets=100)
        characterizer.attach_simulator(sim, registry, interval=1.0)
        sim.schedule(5.5, lambda: None)  # run for 5.5 virtual seconds
        sim.run(until=5.5)
        assert characterizer.publishes == 5
        assert "traffic_skew" in registry.snapshot()

    def test_attach_simulator_rejects_bad_interval(self):
        from repro.sim.engine import Simulator

        with pytest.raises(ValueError):
            TrafficCharacterizer().attach_simulator(
                Simulator(), MetricsRegistry(), interval=0.0
            )

    def test_summary_is_one_line(self):
        summary = self._fed(packets=200).summary()
        assert "\n" not in summary
        assert "examined" in summary

    #: ``estimates()`` after :meth:`test_golden_tpca_estimates`'s
    #: replay, pinned bit for bit.
    GOLDEN_ESTIMATES = {
        "packets_observed": 108,
        "examined_quantiles": {
            "0.5": 2.9809707636964986,
            "0.9": 7.894716929630443,
            "0.99": 9.74848280997197,
        },
        "heavy_hitters": [
            {"key": "10.0.0.1:1521 <- 10.1.1.11:40010", "count": 8,
             "error": 5, "share": 0.07407407407407407},
            {"key": "10.0.0.1:1521 <- 10.1.1.60:40059", "count": 7,
             "error": 5, "share": 0.06481481481481481},
            {"key": "10.0.0.1:1521 <- 10.1.1.67:40066", "count": 7,
             "error": 5, "share": 0.06481481481481481},
            {"key": "10.0.0.1:1521 <- 10.1.1.89:40088", "count": 7,
             "error": 6, "share": 0.06481481481481481},
            {"key": "10.0.0.1:1521 <- 10.1.1.24:40023", "count": 7,
             "error": 6, "share": 0.06481481481481481},
            {"key": "10.0.0.1:1521 <- 10.1.1.92:40091", "count": 7,
             "error": 6, "share": 0.06481481481481481},
            {"key": "10.0.0.1:1521 <- 10.1.1.81:40080", "count": 7,
             "error": 6, "share": 0.06481481481481481},
            {"key": "10.0.0.1:1521 <- 10.1.1.41:40040", "count": 7,
             "error": 6, "share": 0.06481481481481481},
        ],
        "skew": 0.08655338731131312,
        "train_follower_ratio": 0.014842300556586271,
        "train_ness": 0.030570674465397907,
        "is_trainy": False,
        "population": 65.02133414826055,
        "working_set": 20.19789347612526,
    }
    #: sha256 of the retained spans' sorted-key JSON after that replay.
    GOLDEN_SPANS_SHA256 = (
        "2d141c52084c962525c97231e5449887d046924f77bd137a2f5b00878871f7c3"
    )

    def test_golden_tpca_estimates(self):
        """The seed-202 golden TPC/A stream in 7-packet ``lookup_batch``
        chunks, one virtual second per chunk (seven working-set
        rotations); a 16-counter heavy-hitter table keeps evicting."""
        params = json.loads(
            (GOLDEN_DIR / "tpca_seed202.json").read_text()
        )["stream"]
        stream = golden_stream(
            params["seed"], n_users=params["n_users"],
            duration=params["duration"],
        )
        clock = [0.0]
        algorithm = make_algorithm("fast-sequent:h=19")
        collector = SpanCollector(
            sample_every=5, clock=lambda: clock[0]
        ).attach(algorithm)
        characterizer = TrafficCharacterizer(heavy_capacity=16).attach(
            collector
        )
        for tup in stream.tuples:
            algorithm.insert(PCB(tup))
        packets = list(stream.packets)
        for start in range(0, len(packets), 7):
            clock[0] += 1.0
            algorithm.lookup_batch(packets[start:start + 7])
        assert characterizer.estimates() == self.GOLDEN_ESTIMATES
        assert characterizer.working_set.rotations == 7
        dump = json.dumps(
            [span.to_dict() for span in collector.recorder.all_spans()],
            sort_keys=True,
        )
        assert (
            hashlib.sha256(dump.encode()).hexdigest()
            == self.GOLDEN_SPANS_SHA256
        )
