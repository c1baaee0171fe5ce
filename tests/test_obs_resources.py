"""Resource monitor: watermark/CPU/throughput math on fake readers,
budgets, and the observation-only guarantee."""

import json

import pytest

from repro.obs.resources import (
    RESOURCES_SCHEMA_VERSION,
    UNIT_DOMAINS_SCORED,
    UNIT_GRAPH_EDGES,
    UNIT_TRACE_ROWS,
    ResourceBudget,
    ResourceBudgetError,
    ResourceMonitor,
    ResourceReader,
    count_units,
    current_monitor,
    derive_throughput,
    evaluate_budgets,
    load_resource_budgets,
    use_monitor,
)


class FakeReader(ResourceReader):
    """Scripted reads: every probe pops from a queue or returns a fixed
    value, so frame/watermark arithmetic can be asserted exactly."""

    def __init__(
        self,
        clocks=None,
        cpus=None,
        rss=None,
        ios=None,
        peak=None,
    ):
        super().__init__()
        self._clocks = list(clocks or [])
        self._cpus = list(cpus or [])
        self._rss = list(rss or [])
        self._ios = list(ios or [])
        self._peak = peak

    @staticmethod
    def _pop(queue, default):
        return queue.pop(0) if queue else default

    def clock(self):
        return self._pop(self._clocks, 0.0)

    def cpu_seconds(self):
        return self._pop(self._cpus, 0.0)

    def rss_mb(self):
        return self._pop(self._rss, None)

    def peak_rss_mb(self):
        return self._peak

    def io_bytes(self):
        return self._pop(self._ios, None)


def monitor_with(**reader_kwargs):
    return ResourceMonitor(enabled=True, reader=FakeReader(**reader_kwargs))


class TestRealReader:
    def test_linux_probes_degrade_to_none_not_raise(self):
        reader = ResourceReader()
        # on Linux these are real numbers; elsewhere None — never a raise
        for probe in (reader.rss_mb, reader.peak_rss_mb, reader.io_bytes):
            probe()
        assert reader.cpu_seconds() >= 0.0
        reader.close()
        reader.close()  # idempotent

    def test_missing_proc_paths_yield_none(self):
        class NoProc(ResourceReader):
            status_path = "/nonexistent/status"
            io_path = "/nonexistent/io"

        reader = NoProc()
        assert reader.rss_mb() is None
        assert reader.io_bytes() is None
        assert reader.io_bytes() is None  # cached unavailability


class TestFrames:
    def test_wall_cpu_io_deltas_exact(self):
        # open reads clock+cpu+io; close reads clock+cpu+io
        monitor = monitor_with(
            clocks=[10.0, 0.0, 12.5],  # __init__ consumes one clock,
            cpus=[1.0, 0.0, 3.0],  # one cpu read, and one io read
            ios=[(0, 0), (100, 200), (600, 900)],
        )
        frame = monitor.open_frame("fit")
        delta = monitor.close_frame(frame)
        assert delta["wall_s"] == pytest.approx(12.5)
        assert delta["cpu_s"] == pytest.approx(3.0)
        assert delta["io_read_bytes"] == 500
        assert delta["io_write_bytes"] == 700

    def test_watermark_peak_is_max_of_samples(self):
        monitor = monitor_with(rss=[100.0, 150.0, 120.0])
        frame = monitor.open_frame("fit")
        for _ in range(3):
            monitor.sample()
        delta = monitor.close_frame(frame)
        assert delta["peak_rss_mb"] == pytest.approx(150.0)
        assert monitor.n_samples == 3

    def test_frame_closed_before_first_sample_reads_directly(self):
        monitor = monitor_with(rss=[88.0])
        delta = monitor.close_frame(monitor.open_frame("fit"))
        assert delta["peak_rss_mb"] == pytest.approx(88.0)

    def test_same_name_frames_fold_into_one_phase(self):
        monitor = monitor_with(
            clocks=[0.0, 1.0, 3.0, 5.0, 6.0],
            cpus=[0.0, 1.0, 2.0, 4.0, 4.5],
        )
        monitor.close_frame(monitor.open_frame("fit"))  # wall 2, cpu 1
        monitor.close_frame(monitor.open_frame("fit"))  # wall 1, cpu 0.5
        stats = monitor.phases["fit"]
        assert stats["n"] == 2
        assert stats["wall_s"] == pytest.approx(3.0)
        assert stats["cpu_s"] == pytest.approx(1.5)

    def test_disabled_monitor_is_inert(self):
        monitor = ResourceMonitor(enabled=False)
        assert monitor.open_frame("fit") is None
        assert monitor.close_frame(None) is None
        monitor.count_units(UNIT_TRACE_ROWS, 100)
        assert monitor.units == {}
        assert monitor.day_mark() is None
        assert monitor.day_delta(None) is None


class TestThroughput:
    def test_rows_per_s_uses_build_graph_wall(self):
        out = derive_throughput(
            {UNIT_TRACE_ROWS: 1000}, {"build_graph": 2.0}, total_wall_s=50.0
        )
        assert out["trace_rows_per_s"] == pytest.approx(500.0)

    def test_scored_domains_use_test_phase_wall(self):
        out = derive_throughput(
            {UNIT_DOMAINS_SCORED: 300},
            {"measure_test_features": 1.0, "score_domains": 2.0},
            total_wall_s=50.0,
        )
        assert out["domains_scored_per_s"] == pytest.approx(100.0)

    def test_falls_back_to_total_wall(self):
        out = derive_throughput({UNIT_GRAPH_EDGES: 80}, {}, total_wall_s=4.0)
        assert out["graph_edges_per_s"] == pytest.approx(20.0)

    def test_zero_denominator_yields_none(self):
        out = derive_throughput({UNIT_TRACE_ROWS: 10}, {}, total_wall_s=0.0)
        assert out["trace_rows_per_s"] is None


class TestAmbientMonitor:
    def test_default_is_disabled(self):
        assert current_monitor().enabled is False
        count_units(UNIT_TRACE_ROWS, 5)  # must not raise or record

    def test_use_monitor_scopes_counting(self):
        monitor = monitor_with()
        with use_monitor(monitor):
            assert current_monitor() is monitor
            count_units(UNIT_TRACE_ROWS, 5)
            count_units(UNIT_TRACE_ROWS, 7)
        assert current_monitor().enabled is False
        assert monitor.units == {UNIT_TRACE_ROWS: 12}


class TestSummary:
    def test_schema_and_process_totals(self):
        monitor = monitor_with(
            clocks=[0.0, 10.0],
            cpus=[0.0, 8.0],
            ios=[(0, 0), (1000, 2000), (0, 0)],
            rss=[100.0, 100.0],
            peak=256.0,
        )
        summary = monitor.summary()
        assert summary["schema_version"] == RESOURCES_SCHEMA_VERSION
        process = summary["process"]
        assert process["wall_s"] == pytest.approx(10.0)
        assert process["cpu_s"] == pytest.approx(8.0)
        assert process["cpu_util"] == pytest.approx(0.8)
        assert process["peak_rss_mb"] == pytest.approx(256.0)
        assert process["io_read_bytes"] == 1000
        assert process["io_write_bytes"] == 2000
        assert not [key for key in process if key.startswith("child")]
        assert json.dumps(summary)  # JSON-serializable as a manifest key

    def test_off_linux_summary_omits_proc_columns(self):
        monitor = monitor_with(clocks=[0.0, 1.0], cpus=[0.0, 0.5])
        summary = monitor.summary()
        assert "peak_rss_mb" not in summary["process"]
        assert "io_read_bytes" not in summary["process"]
        assert summary["platform"]["has_proc_status"] is False

    def test_day_delta_attributes_cpu_and_units(self):
        monitor = monitor_with(cpus=[0.0, 1.0, 4.0])
        monitor.count_units(UNIT_TRACE_ROWS, 100)
        mark = monitor.day_mark()  # cpu=1.0, units snapshot
        monitor.count_units(UNIT_TRACE_ROWS, 50)
        delta = monitor.day_delta(mark)  # cpu=4.0
        assert delta["cpu_s"] == pytest.approx(3.0)
        assert delta["units"] == {UNIT_TRACE_ROWS: 50}


class TestBudgets:
    def resources(self):
        return {
            "process": {"peak_rss_mb": 512.0, "cpu_s": 100.0},
            "throughput": {"trace_rows_per_s": 5000.0},
        }

    def test_max_budget_trips_above_threshold(self):
        budget = ResourceBudget(
            name="rss-cap", path="process.peak_rss_mb", max=256.0, level="alert"
        )
        violations = evaluate_budgets(self.resources(), [budget])
        assert len(violations) == 1
        violation = violations[0]
        assert violation["rule"] == "rss-cap"
        assert violation["status"] == "alert"
        assert violation["path"] == "resources.process.peak_rss_mb"
        assert violation["value"] == pytest.approx(512.0)
        assert violation["threshold"] == pytest.approx(256.0)

    def test_min_budget_trips_below_floor(self):
        budget = ResourceBudget(
            name="rows-floor", path="throughput.trace_rows_per_s", min=10000.0
        )
        violations = evaluate_budgets(self.resources(), [budget])
        assert violations and violations[0]["status"] == "warn"

    def test_within_budget_is_clean(self):
        budgets = [
            ResourceBudget(name="rss", path="process.peak_rss_mb", max=1024.0),
            ResourceBudget(
                name="rows", path="throughput.trace_rows_per_s", min=1.0
            ),
        ]
        assert evaluate_budgets(self.resources(), budgets) == []

    def test_missing_path_is_skipped_not_tripped(self):
        budget = ResourceBudget(name="io", path="process.io_read_bytes", max=1.0)
        assert evaluate_budgets(self.resources(), [budget]) == []

    def test_exactly_one_bound_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            ResourceBudget(name="bad", path="x", max=1.0, min=2.0)
        with pytest.raises(ValueError, match="exactly one"):
            ResourceBudget(name="bad", path="x")

    def test_level_validated(self):
        with pytest.raises(ValueError, match="level"):
            ResourceBudget(name="bad", path="x", max=1.0, level="fatal")

    def test_load_accepts_bare_list_and_envelope(self, tmp_path):
        specs = [{"name": "rss", "path": "process.peak_rss_mb", "max": 512}]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(specs))
        enveloped = tmp_path / "env.json"
        enveloped.write_text(json.dumps({"budgets": specs}))
        for path in (bare, enveloped):
            (budget,) = load_resource_budgets(str(path))
            assert budget.name == "rss" and budget.max == 512.0

    def test_load_rejects_bad_payloads(self, tmp_path):
        cases = [
            ("not json", "invalid JSON"),
            ("{}", "expected a list"),
            ("[]", "no resource budgets"),
            ('[{"name": "x"}]', "missing required keys"),
            ('[{"name": "x", "path": "p", "max": 1, "nope": 2}]', "unknown keys"),
            ('[{"name": "x", "path": "p"}]', "exactly one"),
        ]
        for text, match in cases:
            path = tmp_path / "budgets.json"
            path.write_text(text)
            with pytest.raises(ResourceBudgetError, match=match):
                load_resource_budgets(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ResourceBudgetError, match="cannot read"):
            load_resource_budgets(str(tmp_path / "absent.json"))

    def test_example_budgets_file_loads(self):
        budgets = load_resource_budgets("examples/budgets.json")
        assert budgets
        paths = {budget.path for budget in budgets}
        assert any(path.startswith("process.") for path in paths)


class TestObservationOnly:
    """Profiling must never perturb decisions: ledger and decision stream
    byte-equal with the monitor on vs. off (the ISSUE's property test)."""

    def test_profiled_run_is_bit_identical(self):
        from repro.core.pipeline import SegugioConfig
        from repro.eval.bench import _tracked_campaign
        from repro.runtime.supervisor import world_days
        from repro.synth.scenario import Scenario

        contexts = list(world_days(Scenario.small(seed=11), 1, isp="isp1"))
        config = SegugioConfig(n_estimators=8, n_jobs=1)
        _, off_decisions, off_ledger, off_manifest = _tracked_campaign(
            contexts, config, 0.01, profile=False
        )
        _, on_decisions, on_ledger, on_manifest = _tracked_campaign(
            contexts, config, 0.01, profile=True
        )
        assert on_decisions == off_decisions
        assert on_ledger == off_ledger
        assert "resources" not in off_manifest
        assert on_manifest["resources"]["schema_version"] == (
            RESOURCES_SCHEMA_VERSION
        )
