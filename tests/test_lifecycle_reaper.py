"""Unit tests for the connection reaper and its lifecycle hooks."""

import pytest

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.lifecycle.metrics import count_interned
from repro.lifecycle.reaper import ConnectionReaper, TIME_WAIT_STATE
from repro.lifecycle.wheel import TimerWheel
from repro.packet.addresses import FourTuple, IPv4Address

SERVER = IPv4Address("10.0.0.1")


def tuple_for(index: int) -> FourTuple:
    return FourTuple(SERVER, 1521, IPv4Address("10.9.0.0") + index, 30000 + index)


def make_reaper(spec="fast-sequent:h=7", **kwargs):
    algorithm = make_algorithm(spec)
    kwargs.setdefault("idle_timeout", 10.0)
    return algorithm, ConnectionReaper(algorithm, **kwargs)


class TestConstruction:
    def test_requires_some_timeout(self):
        algorithm = make_algorithm("linear")
        with pytest.raises(ValueError):
            ConnectionReaper(algorithm)
        with pytest.raises(ValueError):
            ConnectionReaper(algorithm, idle_timeout=0.0)
        with pytest.raises(ValueError):
            ConnectionReaper(algorithm, time_wait=-1.0)

    def test_installs_itself_as_lifecycle(self):
        algorithm, reaper = make_reaper()
        assert algorithm.lifecycle is reaper
        reaper.detach()
        assert algorithm.lifecycle is None

    def test_adopts_preexisting_connections(self):
        algorithm = make_algorithm("fast-mtf")
        for i in range(5):
            algorithm.insert(PCB(tuple_for(i)))
        reaper = ConnectionReaper(algorithm, idle_timeout=10.0)
        assert reaper.live == 5
        assert reaper.advance(20.0) == 5
        assert len(algorithm) == 0


class TestIdleReaping:
    def test_idle_connections_are_reaped_and_interned_keys_evicted(self):
        algorithm, reaper = make_reaper(idle_timeout=10.0)
        for i in range(8):
            algorithm.insert(PCB(tuple_for(i)))
        assert count_interned(algorithm) == 8
        assert reaper.advance(9.0) == 0
        assert reaper.advance(11.0) == 8
        assert len(algorithm) == 0
        assert count_interned(algorithm) == 0
        assert reaper.stats.reaped_idle == 8
        assert reaper.stats.reaped_time_wait == 0

    def test_touch_via_lookup_defers_reaping(self):
        algorithm, reaper = make_reaper(idle_timeout=10.0)
        algorithm.insert(PCB(tuple_for(0)))
        algorithm.insert(PCB(tuple_for(1)))
        reaper.advance(8.0)
        algorithm.lookup(tuple_for(0), PacketKind.DATA)  # touch at t=8
        assert reaper.advance(11.0) == 1  # only the untouched one
        assert len(algorithm) == 1
        assert reaper.advance(19.0) == 1  # 8 + 10 + eps
        assert reaper.stats.spurious_wakeups >= 1

    def test_missed_lookup_does_not_touch(self):
        algorithm, reaper = make_reaper(idle_timeout=10.0)
        algorithm.insert(PCB(tuple_for(0)))
        reaper.advance(8.0)
        algorithm.lookup(tuple_for(99), PacketKind.DATA)  # a miss
        assert reaper.advance(11.0) == 1

    def test_note_send_touches(self):
        algorithm, reaper = make_reaper(idle_timeout=10.0)
        pcb = PCB(tuple_for(0))
        algorithm.insert(pcb)
        reaper.advance(8.0)
        algorithm.note_send(pcb)
        assert reaper.advance(11.0) == 0
        assert reaper.advance(18.5) == 1

    def test_explicit_remove_cancels_timer(self):
        algorithm, reaper = make_reaper(idle_timeout=10.0)
        algorithm.insert(PCB(tuple_for(0)))
        algorithm.remove(tuple_for(0))
        assert reaper.live == 0
        assert len(reaper.wheel) == 0
        assert reaper.stats.timers_cancelled == 1
        assert reaper.advance(100.0) == 0


class TestTimeWait:
    def test_time_wait_state_shortens_deadline(self):
        algorithm, reaper = make_reaper(idle_timeout=100.0, time_wait=2.0)
        pcb = PCB(tuple_for(0), state="ESTABLISHED")
        algorithm.insert(pcb)
        reaper.advance(5.0)
        pcb.state = TIME_WAIT_STATE
        reaper.note_state(pcb)
        assert reaper.advance(6.0) == 0
        assert reaper.advance(7.5) == 1
        assert reaper.stats.reaped_time_wait == 1
        assert reaper.stats.reaped_idle == 0

    def test_time_wait_only_reaper_ignores_established(self):
        algorithm, reaper = make_reaper(idle_timeout=None, time_wait=1.0)
        established = PCB(tuple_for(0), state="ESTABLISHED")
        waiting = PCB(tuple_for(1), state=TIME_WAIT_STATE)
        algorithm.insert(established)
        algorithm.insert(waiting)
        assert reaper.advance(500.0) == 1
        assert len(algorithm) == 1
        assert next(iter(algorithm)) is established

    def test_handles_time_wait_property(self):
        _, idle_only = make_reaper(idle_timeout=5.0)
        assert not idle_only.handles_time_wait
        _, both = make_reaper(idle_timeout=5.0, time_wait=1.0)
        assert both.handles_time_wait


class TestOnReapCallback:
    def test_callback_owns_the_eviction(self):
        reaps = []
        algorithm = make_algorithm("fast-bsd")

        def on_reap(pcb, reason):
            reaps.append((pcb.four_tuple, reason))
            algorithm.remove(pcb.four_tuple)

        reaper = ConnectionReaper(
            algorithm, idle_timeout=5.0, on_reap=on_reap
        )
        algorithm.insert(PCB(tuple_for(0)))
        assert reaper.advance(6.0) == 1
        assert reaps == [(tuple_for(0), "idle")]
        assert len(algorithm) == 0
        assert count_interned(algorithm) == 0

    def test_declining_callback_gets_backstopped(self):
        # A callback that does NOT remove the PCB must not leak it.
        algorithm = make_algorithm("fast-bsd")
        reaper = ConnectionReaper(
            algorithm, idle_timeout=5.0, on_reap=lambda pcb, reason: None
        )
        algorithm.insert(PCB(tuple_for(0)))
        assert reaper.advance(6.0) == 1
        assert len(algorithm) == 0


class TestClockAndWheel:
    def test_clock_stamps_touches_between_advances(self):
        clock_now = [0.0]
        algorithm = make_algorithm("fast-linear")
        reaper = ConnectionReaper(
            algorithm, idle_timeout=10.0, clock=lambda: clock_now[0]
        )
        algorithm.insert(PCB(tuple_for(0)))
        clock_now[0] = 9.0
        algorithm.lookup(tuple_for(0), PacketKind.ACK)  # touch at t=9
        assert reaper.advance(11.0) == 0
        assert reaper.advance(18.0) == 0
        assert reaper.advance(19.5) == 1

    def test_custom_wheel_is_used(self):
        wheel = TimerWheel(tick=0.5)
        algorithm = make_algorithm("linear")
        reaper = ConnectionReaper(algorithm, idle_timeout=3.0, wheel=wheel)
        assert reaper.wheel is wheel
        algorithm.insert(PCB(tuple_for(0)))
        assert len(wheel) == 1

    def test_default_wheel_tick_tracks_shortest_timeout(self):
        _, reaper = make_reaper(idle_timeout=80.0, time_wait=0.4)
        assert reaper.wheel.tick == pytest.approx(0.05)  # 0.4 / 8
        _, coarse = make_reaper(idle_timeout=1000.0)
        assert coarse.wheel.tick == 1.0  # clamped


class TestMetrics:
    def test_publish_lifecycle_gauges(self):
        from repro.obs.metrics import MetricsRegistry

        algorithm, reaper = make_reaper(idle_timeout=10.0)
        for i in range(3):
            algorithm.insert(PCB(tuple_for(i)))
        reaper.advance(11.0)
        registry = MetricsRegistry()
        registry.publish(reaper)
        snapshot = registry.snapshot()

        def gauge(metric, label_key, label_value):
            for sample in snapshot[metric]["samples"]:
                if sample["labels"][label_key] == label_value:
                    return sample["value"]
            raise AssertionError(f"{metric} has no {label_value} sample")

        assert gauge("lifecycle_reaper", "counter", "reaped_idle") == 3
        assert gauge("lifecycle_reaper", "counter", "live_connections") == 0
        assert gauge("lifecycle_retention", "population", "live_pcbs") == 0
        assert gauge("lifecycle_retention", "population", "interned_keys") == 0

    def test_count_interned_none_for_reference_structures(self):
        assert count_interned(make_algorithm("linear")) is None
        assert count_interned(make_algorithm("fast-linear")) == 0
