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
from repro.obs.manifest import LEDGER_PHASES
from repro.runtime.checkpoint import config_to_dict
from repro.runtime.ingest import load_observation_checked
from repro.runtime.supervisor import track_days, world_days
from repro.synth.scenario import Scenario


def render_telemetry(manifest):
    return render_text(cost_view(TelemetryRun(manifest)))


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
        """Each day's ``n_scored`` equals its scored decision records."""
        telemetry, _tracker, reports = tracked_run
        for record, report in zip(telemetry.build_manifest()["days"], reports):
            scored = [
                decision
                for decision in telemetry.decisions.day_records(report.day)
                if decision["verdict"] == "scored"
            ]
            assert record["n_scored"] == len(scored) == report.n_scored > 0

    def test_detection_counters_match_ledger(self, tracked_run):
        telemetry, tracker, reports = tracked_run
        days = telemetry.build_manifest()["days"]
        total_new = sum(record["n_new_detections"] for record in days)
        total_repeat = sum(record["n_repeat_detections"] for record in days)
        assert total_new == sum(len(r.new_detections) for r in reports)
        assert total_repeat == sum(len(r.repeat_detections) for r in reports)
        assert len(tracker) == total_new

    def test_pruning_gauges_match_an_independent_fit(self, tracked_run, scenario):
        """The last day's pruning volumes in the manifest's drift block
        equal Segugio's own train_stats_ for that day."""
        telemetry, _tracker, reports = tracked_run
        pruning = telemetry.build_manifest()["days"][-1]["drift"]["pruning"]
        model = Segugio().fit(
            scenario.context("isp1", reports[-1].day)
        )
        stats = model.train_stats_
        for rule, key in (
            ("r1", "removed_r1_machines"),
            ("r2", "removed_r2_machines"),
            ("r3", "removed_r3_domains"),
            ("r4", "removed_r4_domains"),
        ):
            assert pruning[rule]["current"] == stats[key], rule

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

    def test_cost_view_totals_the_decision_ledger(self, tracked_run):
        """The run logged decisions: the cost view totals what emitting
        and flushing them cost per day, beside (not inside) the
        classification total."""
        telemetry, _, _ = tracked_run
        manifest = telemetry.build_manifest()
        seconds = [
            sum(day["phases"].get(name, 0.0) for name in LEDGER_PHASES)
            for day in manifest["days"]
        ]
        lines = render_telemetry(manifest).splitlines()
        [row] = [i for i, line in enumerate(lines) if "decision ledger" in line]
        assert "classification total" in lines[row - 1]
        assert lines[row].split()[2:] == [
            format(value, ".3f") for value in seconds + [sum(seconds)]
        ]

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

    def test_sharded_profiled_run_writes_no_metrics(
        self, tmp_path, monkeypatch, capsys
    ):
        """Neither the manifest nor any worker sidecar record carries a
        ``metrics`` key, and the manifest is version 3."""
        from repro.cli import main
        from repro.obs.workerctx import WorkerMergeBox, read_sidecars

        records = []
        merge = WorkerMergeBox.merge

        def spy(box):
            records.extend(read_sidecars(box.sidecar_dir)[0])
            records.extend(box._serial_records.values())
            return merge(box)

        monkeypatch.setattr(WorkerMergeBox, "merge", spy)
        out_dir = str(tmp_path / "telemetry")
        argv = ["track", "--scale", "small", "--days", "2", "--shards", "2"]
        argv += ["--jobs", "2", "--profile", "--telemetry-dir", out_dir]
        assert main(argv) == 0
        capsys.readouterr()

        manifest = load_manifest(f"{out_dir}/manifest.json")
        assert manifest["manifest_version"] == 3
        assert "metrics" not in manifest
        assert len(manifest["days"]) == 2
        assert all("metrics" not in day for day in manifest["days"])
        assert {record["label"] for record in records} >= {
            "shard_scan",
            "shard_labels",
        }
        assert all("metrics" not in record for record in records)

    def test_telemetry_subcommand_rejects_garbage(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "not-a-manifest.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="manifest"):
            main(["inspect", str(path)])


def covered_seconds(spans, first, last):
    """Seconds of ``[first, last]`` that the root spans cover."""
    intervals = sorted(
        (max(span["start"], first), min(span["start"] + span["duration"], last))
        for span in spans
        if span["depth"] == 0
    )
    covered, reached = 0.0, first
    for start, end in intervals:
        if end > reached:
            covered += end - max(start, reached)
            reached = end
    return covered


class TestTraceCoversTheCampaign:
    def test_spans_cover_the_wall_clock_between_days(self, tmp_path):
        """From the first day's start to the last day's end, the trace's
        spans account for at least 95% of the wall clock, the streamed
        ledger's flush and the synthetic source building each next day's
        context (under ``segugio_ingest_load_observation``) included.

        The scenario is built here, not taken from the session fixture:
        a scenario caches the days it has built, and days other tests
        already built would cost nothing to build again, hiding the gap.
        """
        scenario = Scenario.small(seed=7)
        telemetry = RunTelemetry(command="track")
        telemetry.stream_decisions(str(tmp_path))
        tracker = DomainTracker(telemetry=telemetry)
        days = world_days(scenario, 3, isp="isp1")
        assert len(list(track_days(tracker, days))) == 3
        telemetry.write(str(tmp_path))
        with open(tmp_path / "trace.jsonl") as stream:
            spans = [json.loads(line) for line in stream]
        run_days = [s for s in spans if s["name"] == "segugio_run_day"]
        flushes = [s for s in spans if s["name"] == "segugio_decisions_flush"]
        assert [s["parent_id"] for s in flushes] == [s["id"] for s in run_days]
        # Each day's context is built under its own root load span, after
        # the previous day and before its own (rounding: 1e-6 s per field).
        loads = [
            s
            for s in spans
            if s["name"] == "segugio_ingest_load_observation" and s["depth"] == 0
        ]
        assert len(loads) == len(run_days)
        previous_end = float("-inf")
        for load, day in zip(loads, run_days):
            assert load["attributes"]["day"] == day["attributes"]["day"]
            assert previous_end <= load["start"] + 2e-6
            assert load["start"] + load["duration"] <= day["start"] + 2e-6
            previous_end = day["start"] + day["duration"]
        first = run_days[0]["start"]
        last = run_days[-1]["start"] + run_days[-1]["duration"]
        covered = covered_seconds(spans, first, last)
        assert covered / (last - first) >= 0.95
