"""Tests for the phase stopwatch."""

import time

from repro.obs.tracing import Stopwatch


class TestStopwatch:
    def test_records_phase(self):
        watch = Stopwatch()
        with watch.phase("work"):
            time.sleep(0.01)
        assert watch.elapsed("work") >= 0.01

    def test_unknown_phase_is_zero(self):
        assert Stopwatch().elapsed("nothing") == 0.0

    def test_accumulates_on_reentry(self):
        watch = Stopwatch()
        for _ in range(3):
            with watch.phase("work"):
                time.sleep(0.002)
        assert watch.elapsed("work") >= 0.006

    def test_total_sums_phases(self):
        watch = Stopwatch()
        with watch.phase("a"):
            pass
        with watch.phase("b"):
            pass
        assert watch.total() == watch.elapsed("a") + watch.elapsed("b")

    def test_items_in_first_recorded_order(self):
        watch = Stopwatch()
        for name in ("z", "a", "m"):
            with watch.phase(name):
                pass
        assert [name for name, _ in watch.items()] == ["z", "a", "m"]

    def test_records_even_when_phase_raises(self):
        watch = Stopwatch()
        try:
            with watch.phase("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert watch.elapsed("boom") > 0.0

    def test_report_contains_total(self):
        watch = Stopwatch()
        with watch.phase("a"):
            pass
        assert "total" in watch.report()
        assert "a" in watch.report()
