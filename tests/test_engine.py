"""Unit tests for the discrete-event simulation kernel.

Every test takes the engine of the selected kernel tier from the ``engine``
fixture (``tests/conftest.py``), so the same tests check the pure engine
and, under ``REPRO_KERNEL=compiled``, the C one.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError


class TestEventQueue:
    def test_events_pop_in_time_order(self, engine):
        sim = engine.Simulator()
        fired = []
        sim.queue.push(30, lambda: fired.append(sim.now))
        sim.queue.push(10, lambda: fired.append(sim.now))
        sim.queue.push(20, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10, 20, 30]

    def test_same_time_events_are_fifo(self, engine):
        sim = engine.Simulator()
        fired = []
        sim.queue.push(5, lambda: fired.append("first"))
        sim.queue.push(5, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_cancelled_events_are_skipped(self, engine):
        sim = engine.Simulator()
        queue = sim.queue
        fired = []
        event = queue.push(1, lambda: fired.append(1))
        queue.push(2, lambda: fired.append(2))
        event.cancel()
        assert len(queue) == 1
        sim.run()
        assert fired == [2]

    def test_direct_event_cancel_keeps_live_count_consistent(self, engine):
        """Regression: ``Event.cancel()`` used to leave ``len(queue)`` overcounted."""
        sim = engine.Simulator()
        queue = sim.queue
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        event.cancel()
        assert len(queue) == 1
        assert sim.run() == 2
        assert sim.events_executed == 1
        assert len(queue) == 0

    def test_double_cancel_decrements_once(self, engine):
        queue = engine.EventQueue()
        event = queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_corrupt_live_count(self, engine):
        """Cancelling an event that already fired must be count-neutral.

        A component may keep a handle past its event's firing, such as a
        transaction timeout that is cancelled when the transaction
        completes.
        """
        sim = engine.Simulator()
        queue = sim.queue
        fired = queue.push(1, lambda: None)
        later = []
        queue.push(2, lambda: later.append(sim.now))
        sim.run(until=1)
        fired.cancel()
        fired.cancel()
        assert len(queue) == 1
        sim.run()
        assert later == [2]
        assert len(queue) == 0

    def test_negative_time_rejected(self, engine):
        queue = engine.EventQueue()
        with pytest.raises(SimulationError):
            queue.push(-1, lambda: None)


class TestSimulator:
    def test_clock_advances_to_event_times(self, engine):
        sim = engine.Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(sim.now))
        sim.schedule(25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10, 25]
        assert sim.now == 25

    def test_callbacks_can_schedule_more_events(self, engine):
        sim = engine.Simulator()
        seen = []

        def chain(depth: int) -> None:
            seen.append(sim.now)
            if depth > 0:
                sim.schedule(5, lambda: chain(depth - 1))

        sim.schedule(0, lambda: chain(3))
        sim.run()
        assert seen == [0, 5, 10, 15]

    def test_run_until_bound(self, engine):
        sim = engine.Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append("early"))
        sim.schedule(100, lambda: fired.append("late"))
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50

    def test_stop_terminates_run(self, engine):
        sim = engine.Simulator()
        fired = []

        def first() -> None:
            fired.append(1)
            sim.stop()

        sim.schedule(1, first)
        sim.schedule(2, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_bound(self, engine):
        sim = engine.Simulator()
        count = []
        for i in range(10):
            sim.schedule(i, lambda: count.append(1))
        sim.run(max_events=4)
        assert len(count) == 4

    def test_cannot_schedule_in_the_past(self, engine):
        sim = engine.Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self, engine):
        sim = engine.Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-5, lambda: None)

    def test_cancel_prevents_callback(self, engine):
        sim = engine.Simulator()
        fired = []
        event = sim.schedule(5, lambda: fired.append("no"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_events_executed_counter(self, engine):
        sim = engine.Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_executed == 7
