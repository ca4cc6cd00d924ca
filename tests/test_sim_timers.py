"""Unit tests for Timer and PeriodicTimer."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer, Timer


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        sim.run()
        assert fired == [5.0]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(True))
        timer.start(5.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_restart_replaces_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        sim.run_until(2.0)
        timer.start(5.0)  # re-arm at t=2 -> fires at 7
        sim.run()
        assert fired == [7.0]

    def test_start_at_fires_at_absolute_time_and_replaces(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(9.0)
        sim.run_until(2.0)
        timer.start_at(4.5)  # re-arm earlier, by absolute time
        sim.run()
        assert fired == [4.5]

    def test_armed_flag(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        timer.cancel()
        assert not timer.armed

    def test_not_armed_after_firing(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        sim.run()
        assert not timer.armed

    def test_cancel_idempotent(self):
        timer = Timer(Simulator(), lambda: None)
        timer.cancel()
        timer.cancel()


class TestPeriodicTimer:
    def test_fires_repeatedly(self):
        sim = Simulator()
        hits = []
        timer = PeriodicTimer(sim, 2.0, lambda: hits.append(sim.now))
        timer.start()
        sim.run_until(7.0)
        timer.stop()
        assert hits == [2.0, 4.0, 6.0]

    def test_stop_halts(self):
        sim = Simulator()
        hits = []
        timer = PeriodicTimer(sim, 1.0, lambda: hits.append(sim.now))
        timer.start()
        sim.run_until(2.5)
        timer.stop()
        sim.run_until(10.0)
        assert hits == [1.0, 2.0]

    def test_action_may_stop_timer(self):
        sim = Simulator()
        hits = []
        timer = PeriodicTimer(sim, 1.0, lambda: None)

        def action():
            hits.append(sim.now)
            if len(hits) == 3:
                timer.stop()

        timer = PeriodicTimer(sim, 1.0, action)
        timer.start()
        sim.run_until(10.0)
        assert hits == [1.0, 2.0, 3.0]

    def test_start_idempotent(self):
        sim = Simulator()
        hits = []
        timer = PeriodicTimer(sim, 1.0, lambda: hits.append(sim.now))
        timer.start()
        timer.start()
        sim.run_until(1.0)
        assert hits == [1.0]

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)

    def test_running_flag(self):
        timer = PeriodicTimer(Simulator(), 1.0, lambda: None)
        assert not timer.running
        timer.start()
        assert timer.running
        timer.stop()
        assert not timer.running
