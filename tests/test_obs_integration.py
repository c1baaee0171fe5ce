"""End-to-end telemetry: a tracked run's manifest agrees with its reports.

The run manifest is only trustworthy if the numbers it carries are the
*same* numbers the pipeline reported through its first-class APIs
(DayReport, IngestReport, Segugio.train_stats_).  These tests run real
(small) synthetic days under RunTelemetry and cross-check every channel.
"""

import json
import shutil

import pytest

from repro.core.pipeline import Segugio
from repro.core.tracker import DomainTracker
from repro.eval.document import render_text
from repro.eval.views import cost_view
from repro.obs import RunTelemetry, TelemetryRun, load_manifest
from repro.runtime.checkpoint import config_to_dict
from repro.runtime.ingest import load_observation_checked


def render_telemetry(manifest):
    return render_text(cost_view(TelemetryRun(manifest)))


def gauge_value(metrics, name, **labels):
    for series in metrics[name]["series"]:
        if series["labels"] == {k: str(v) for k, v in labels.items()}:
            return series["value"]
    raise AssertionError(f"no series {labels} in {name}: {metrics[name]}")


@pytest.fixture(scope="module")
def tracked_run(scenario):
    """Two tracked days under telemetry, plus the reports they returned."""
    telemetry = RunTelemetry(command="track")
    tracker = DomainTracker(telemetry=telemetry)
    telemetry.config = config_to_dict(tracker.config)
    reports = [
        tracker.process_day(scenario.context("isp1", scenario.eval_day(i)))
        for i in range(2)
    ]
    return telemetry, tracker, reports


class TestTrackRunManifest:
    def test_day_records_equal_day_reports(self, tracked_run):
        telemetry, _tracker, reports = tracked_run
        manifest = telemetry.build_manifest()
        assert len(manifest["days"]) == len(reports)
        for record, report in zip(manifest["days"], reports):
            assert record["day"] == report.day
            assert record["threshold"] == report.threshold
            assert record["n_scored"] == report.n_scored
            assert record["n_new_detections"] == len(report.new_detections)
            assert record["n_repeat_detections"] == len(report.repeat_detections)
            assert (
                record["n_implicated_machines"]
                == len(report.implicated_machines)
            )
            assert record["provenance"] == report.provenance

    def test_scored_counter_delta_matches_reports(self, tracked_run):
        telemetry, _tracker, reports = tracked_run
        for record, report in zip(telemetry.build_manifest()["days"], reports):
            [series] = record["metrics"]["segugio_classified_domains_total"][
                "series"
            ]
            assert series["value"] == report.n_scored

    def test_detection_counters_match_ledger(self, tracked_run):
        telemetry, tracker, reports = tracked_run
        metrics = telemetry.build_manifest()["metrics"]
        total_new = sum(len(r.new_detections) for r in reports)
        total_repeat = sum(len(r.repeat_detections) for r in reports)
        assert (
            gauge_value(metrics, "segugio_tracker_detections_total", kind="new")
            == total_new
        )
        if total_repeat:
            assert (
                gauge_value(
                    metrics, "segugio_tracker_detections_total", kind="repeat"
                )
                == total_repeat
            )
        assert (
            gauge_value(metrics, "segugio_tracker_ledger_size")
            == len(tracker)
            == total_new
        )

    def test_pruning_gauges_match_an_independent_fit(self, tracked_run, scenario):
        """Manifest pruning numbers equal Segugio's own train_stats_."""
        telemetry, _tracker, reports = tracked_run
        metrics = telemetry.build_manifest()["metrics"]
        # Gauges hold the last day's values; refit that day untelemetered.
        model = Segugio().fit(
            scenario.context("isp1", reports[-1].day)
        )
        stats = model.train_stats_
        assert gauge_value(
            metrics, "segugio_pruning_removed", rule="r1", kind="machines"
        ) == stats["removed_r1_machines"]
        assert gauge_value(
            metrics, "segugio_pruning_removed", rule="r3", kind="domains"
        ) == stats["removed_r3_domains"]
        assert gauge_value(
            metrics, "segugio_pruning_removed", rule="r4", kind="domains"
        ) == stats["removed_r4_domains"]
        assert gauge_value(
            metrics, "segugio_train_samples", label="malware"
        ) == stats["n_train_malware"]

    def test_span_tree_has_one_day_root_per_day(self, tracked_run):
        telemetry, _tracker, reports = tracked_run
        roots = [s for s in telemetry.build_manifest()["spans"]]
        day_roots = [s for s in roots if s["name"] == "segugio_run_day"]
        assert len(day_roots) == len(reports)
        for root in day_roots:
            names = {c["name"] for c in root["children"]}
            assert {
                "segugio_tracker_health_check",
                "segugio_tracker_fit",
                "segugio_tracker_classify",
                "segugio_tracker_ledger_update",
            } <= names

    def test_phase_seconds_cover_the_paper_phases(self, tracked_run):
        telemetry, _, _ = tracked_run
        for record in telemetry.build_manifest()["days"]:
            phases = record["phases"]
            for name in ("build_graph", "train_classifier", "score_domains"):
                assert phases[name] > 0

    def test_degradations_are_union_of_day_provenance(self, tracked_run):
        telemetry, _tracker, reports = tracked_run
        expected = sorted({tag for r in reports for tag in r.provenance})
        assert telemetry.build_manifest()["degradations"] == expected

    def test_written_artifacts_load_and_render(self, tracked_run, tmp_path):
        telemetry, _, _ = tracked_run
        manifest_path, trace_path = telemetry.write(str(tmp_path))
        manifest = load_manifest(manifest_path)
        assert manifest["config_sha256"] is not None
        text = render_telemetry(manifest)
        assert "(track), 2 day(s)" in text
        assert "learning total" in text
        with open(trace_path) as stream:
            spans = [json.loads(line) for line in stream]
        assert spans and {"id", "parent_id", "depth", "name"} <= set(spans[0])
        # Every span in the JSONL resolves its parent within the file.
        ids = {s["id"] for s in spans}
        assert all(
            s["parent_id"] is None or s["parent_id"] in ids for s in spans
        )


class TestIngestManifest:
    def test_lenient_load_counters_reach_the_manifest(
        self, tmp_path, train_context, scenario
    ):
        from repro.datasets.store import save_observation

        directory = str(tmp_path / "obs")
        save_observation(
            directory,
            train_context,
            private_suffixes=scenario.universe.identified_services,
        )
        with open(f"{directory}/trace.tsv", "a") as stream:
            stream.write("mX\tbroken.example\t10.0.0.999\n")

        telemetry = RunTelemetry(command="track")
        with telemetry.activate():
            _context, ingest = load_observation_checked(
                directory, mode="lenient"
            )
        telemetry.add_ingest_report(ingest)
        manifest = telemetry.build_manifest()

        [entry] = manifest["ingest"]
        assert entry["counters"] == ingest.counters
        assert entry["counters"]["trace:bad_ipv4"] == 1
        assert entry["n_ok"] == ingest.n_ok
        assert entry["n_quarantined"] == ingest.n_quarantined == 1
        assert entry["mode"] == "lenient"

        metrics = manifest["metrics"]
        assert gauge_value(
            metrics, "segugio_ingest_records_total", outcome="quarantined"
        ) == ingest.n_quarantined
        assert gauge_value(
            metrics, "segugio_ingest_records_total", outcome="kept"
        ) == ingest.n_ok
        assert gauge_value(
            metrics,
            "segugio_ingest_quarantined_total",
            category="trace:bad_ipv4",
        ) == 1
        # Bytes accounting covers the trace file we just appended to.
        assert gauge_value(
            metrics, "segugio_ingest_bytes_total", file="trace.tsv"
        ) > 0
        text = render_telemetry(manifest)
        assert "trace:bad_ipv4: 1" in text


class TestCliRoundTrip:
    def test_track_telemetry_dir_then_telemetry_subcommand(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out_dir = str(tmp_path / "telemetry")
        assert (
            main(
                [
                    "track",
                    "--scale",
                    "small",
                    "--days",
                    "1",
                    "--telemetry-dir",
                    out_dir,
                ]
            )
            == 0
        )
        track_out = capsys.readouterr().out
        assert f"run manifest written to {out_dir}/manifest.json" in track_out

        manifest = load_manifest(f"{out_dir}/manifest.json")
        assert manifest["command"] == "track"
        assert len(manifest["days"]) == 1

        assert main(["inspect", f"{out_dir}/manifest.json", "--view", "cost"]) == 0
        rendered = capsys.readouterr().out
        assert "cf. paper §IV-G" in rendered
        assert "unknown domains scored" in rendered

    def test_telemetry_subcommand_rejects_garbage(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "not-a-manifest.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="manifest"):
            main(["inspect", str(path)])
