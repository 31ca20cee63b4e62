"""Unit tests for the reaper's timer store (``TimerWheel``)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.lifecycle.wheel import TimerWheel


def make_wheel():
    return TimerWheel(tick=0.1)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TimerWheel(tick=0.0)

    def test_starts_empty_at_time_zero(self):
        wheel = make_wheel()
        assert len(wheel) == 0
        assert wheel.now == 0.0


class TestScheduling:
    def test_schedule_and_fire(self):
        wheel = make_wheel()
        wheel.schedule("a", 0.35)
        assert "a" in wheel
        assert len(wheel) == 1
        assert wheel.advance(0.3) == []
        assert wheel.advance(0.4) == ["a"]
        assert "a" not in wheel

    def test_never_fires_early(self):
        wheel = make_wheel()
        wheel.schedule("a", 1.0)
        for now in (0.2, 0.5, 0.9):
            assert wheel.advance(now) == []
        assert wheel.advance(1.1) == ["a"]

    def test_fires_in_deadline_order_with_fifo_ties(self):
        wheel = make_wheel()
        wheel.schedule("late", 0.5)
        wheel.schedule("tie1", 0.3)
        wheel.schedule("early", 0.1)
        wheel.schedule("tie2", 0.3)
        assert wheel.advance(1.0) == ["early", "tie1", "tie2", "late"]

    def test_reschedule_replaces_existing_deadline(self):
        wheel = make_wheel()
        wheel.schedule("a", 0.2)
        wheel.schedule("a", 5.0)  # push it out
        assert len(wheel) == 1
        assert wheel.advance(1.0) == []
        assert wheel.advance(5.1) == ["a"]

    def test_cancel(self):
        wheel = make_wheel()
        wheel.schedule("a", 0.2)
        assert wheel.cancel("a") is True
        assert wheel.cancel("a") is False
        assert wheel.advance(1.0) == []

    def test_past_deadline_clamps_to_next_tick(self):
        wheel = make_wheel()
        wheel.advance(3.0)
        wheel.schedule("stale", 1.0)  # already past
        assert wheel.advance(3.2) == ["stale"]

    def test_deadline_of_and_next_deadline(self):
        wheel = make_wheel()
        wheel.schedule("a", 0.45)
        wheel.schedule("b", 2.0)
        assert wheel.deadline_of("a") == pytest.approx(0.45)  # raw, not rounded
        with pytest.raises(KeyError):
            wheel.deadline_of("missing")


class TestHierarchy:
    """Deadlines orders of magnitude apart each fire in their own
    advance, never early."""

    def test_cascade_preserves_far_deadlines(self):
        wheel = make_wheel()
        wheel.schedule("near", 0.3)
        wheel.schedule("mid", 3.0)
        wheel.schedule("far", 40.0)
        assert wheel.advance(0.5) == ["near"]
        assert wheel.advance(2.9) == []
        assert wheel.advance(3.3) == ["mid"]
        assert wheel.advance(39.0) == []
        assert wheel.advance(41.0) == ["far"]

    def test_beyond_horizon_parks_and_still_fires(self):
        wheel = make_wheel()
        wheel.schedule("parked", 500.0)
        assert wheel.advance(51.2) == []
        assert wheel.advance(499.0) == []
        assert wheel.advance(501.0) == ["parked"]

    def test_lateness_is_bounded_by_caller_granularity(self):
        # The wheel itself never fires early; how late is up to how
        # often advance() is called.  With exact advances, lateness is
        # under one tick.
        wheel = make_wheel()
        wheel.schedule("a", 1.23)
        fired_at = None
        now = 0.0
        while fired_at is None:
            now = round(now + 0.1, 10)
            if wheel.advance(now) == ["a"]:
                fired_at = now
        assert 1.23 <= fired_at < 1.23 + 2 * wheel.tick


class TestAdvance:
    def test_rejects_time_running_backwards(self):
        wheel = make_wheel()
        wheel.advance(5.0)
        with pytest.raises(ValueError):
            wheel.advance(4.0)

    def test_empty_wheel_fast_forwards(self):
        wheel = make_wheel()
        wheel.advance(1e6)  # must not iterate a billion ticks
        wheel.schedule("a", 1e6 + 0.5)
        assert wheel.advance(1e6 + 1.0) == ["a"]

    def test_many_keys_one_bucket(self):
        wheel = make_wheel()
        keys = [f"k{i}" for i in range(50)]
        for key in keys:
            wheel.schedule(key, 0.25)
        fired = wheel.advance(0.35)
        assert fired == keys  # FIFO among equal deadlines
        assert len(wheel) == 0


# -- the timer against a brute-force oracle ----------------------------

#: One step of a walk: ("schedule", key, offset from now),
#: ("cancel", key) or ("advance", step forward).
_KEYS = st.sampled_from("abcdefgh")
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"), _KEYS,
            st.floats(min_value=-3.0, max_value=60.0),
        ),
        st.tuples(st.just("cancel"), _KEYS),
        st.tuples(
            st.just("advance"),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=80.0),
            ),
        ),
    ),
    max_size=80,
)


class OracleTimer:
    """The timer contract, checked by brute force.

    A key fires on the first ``advance`` whose ``floor(now / tick)``
    reaches ``max(ceil(when / tick), cursor at schedule)``; the cursor
    is one past the last tick an advance covered.  A batch is ordered
    by ``(when, schedule order)``.
    """

    def __init__(self, tick):
        self.tick = tick
        self.cursor = 0
        self.order = 0
        self.timers = {}  # key -> (deadline tick, when, order)

    def schedule(self, key, when):
        due = max(math.ceil(when / self.tick), self.cursor)
        self.timers[key] = (due, when, self.order)
        self.order += 1

    def cancel(self, key):
        return self.timers.pop(key, None) is not None

    def advance(self, now):
        target = int(now / self.tick)
        fired = sorted(
            (when, order, key)
            for key, (due, when, order) in self.timers.items()
            if due <= target
        )
        for _, _, key in fired:
            del self.timers[key]
        self.cursor = max(self.cursor, target + 1)
        return [key for _, _, key in fired]


@given(
    tick=st.sampled_from([0.01, 0.1, 0.25, 1.0]),
    steps=_STEPS,
)
@settings(max_examples=300, deadline=None)
def test_matches_brute_force_oracle(tick, steps):
    wheel = TimerWheel(tick=tick)
    oracle = OracleTimer(tick)
    now = 0.0
    for step in steps:
        if step[0] == "schedule":
            _, key, offset = step
            wheel.schedule(key, now + offset)
            oracle.schedule(key, now + offset)
        elif step[0] == "cancel":
            assert wheel.cancel(step[1]) == oracle.cancel(step[1])
        else:
            now += step[1]
            fired = wheel.advance(now)
            assert fired == oracle.advance(now)
        assert len(wheel) == len(oracle.timers)
        for key, (_, when, _) in oracle.timers.items():
            assert wheel.deadline_of(key) == when
        # Stale entries never outnumber live timers.
        assert len(wheel._heap) <= 2 * len(wheel)
