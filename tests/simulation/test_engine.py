"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.simulation.engine import EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(2.0, lambda s, d: seen.append(d), "late")
        sched.schedule(1.0, lambda s, d: seen.append(d), "early")
        sched.run()
        assert seen == ["early", "late"]

    def test_fifo_tie_breaking(self):
        sched = EventScheduler()
        seen = []
        for label in "abc":
            sched.schedule(1.0, lambda s, d: seen.append(d), label)
        sched.run()
        assert seen == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sched = EventScheduler()
        times = []
        sched.schedule(3.5, lambda s, d: times.append(s.now))
        sched.run()
        assert times == [3.5]
        assert sched.now == 3.5

    def test_negative_delay_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.schedule(-1.0, lambda s, d: None)

    def test_events_can_schedule_events(self):
        sched = EventScheduler()
        seen = []

        def chain(s, depth):
            seen.append(depth)
            if depth < 3:
                s.schedule(1.0, chain, depth + 1)

        sched.schedule(0.0, chain, 0)
        sched.run()
        assert seen == [0, 1, 2, 3]
        assert sched.now == 3.0


class TestRunControl:
    def test_run_returns_processed_count(self):
        sched = EventScheduler()
        for _ in range(4):
            sched.schedule(1.0, lambda s, d: None)
        assert sched.run() == 4

    def test_run_until_limits_time(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(1.0, lambda s, d: seen.append(1))
        sched.schedule(5.0, lambda s, d: seen.append(5))
        processed = sched.run(until=2.0)
        assert processed == 1
        assert seen == [1]
        assert sched.now == 2.0
        # The remaining event still fires on the next run.
        sched.run()
        assert seen == [1, 5]

    def test_max_events(self):
        sched = EventScheduler()
        for _ in range(10):
            sched.schedule(1.0, lambda s, d: None)
        assert sched.run(max_events=3) == 3
        assert len(sched) == 7

    def test_step_on_empty_queue(self):
        sched = EventScheduler()
        assert sched.step() is False

    def test_cancel(self):
        sched = EventScheduler()
        seen = []
        keep = sched.schedule(1.0, lambda s, d: seen.append("keep"))
        drop = sched.schedule(2.0, lambda s, d: seen.append("drop"))
        sched.cancel(drop)
        sched.run()
        assert seen == ["keep"]
        assert keep.time == 1.0

    def test_peek_time_skips_cancelled(self):
        sched = EventScheduler()
        first = sched.schedule(1.0, lambda s, d: None)
        sched.schedule(2.0, lambda s, d: None)
        sched.cancel(first)
        assert sched.peek_time() == 2.0

    def test_processed_counter_accumulates(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda s, d: None)
        sched.run()
        sched.schedule(1.0, lambda s, d: None)
        sched.run()
        assert sched.processed == 2
