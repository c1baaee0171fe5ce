"""Tests for the ``segugio inspect`` unified timeline view."""

import json
import os

import pytest

from repro.eval.document import render_html, render_text
from repro.eval.trace import STRAGGLER_FACTOR, build_timeline
from repro.eval.views import ROW_LIMIT, timeline_view
from repro.obs.manifest import TelemetryError, TelemetryRun


def load_trace(path):
    run = TelemetryRun.open(path)
    return run.manifest, run.trace[0]


def render_trace(manifest, rows, limit=ROW_LIMIT):
    return render_text(
        timeline_view(TelemetryRun(manifest, trace_rows=rows), limit)
    )


def render_trace_html(manifest, rows):
    return render_html(timeline_view(TelemetryRun(manifest, trace_rows=rows)))


def manifest(run_id="run-1", events=None):
    return {
        "run_id": run_id,
        "command": "track",
        "health": {"status": "ok", "reasons": []},
        "runtime_events": events or [],
    }


def row(
    id,
    name,
    start,
    duration,
    parent_id=None,
    depth=0,
    **attributes,
):
    record = {
        "id": id,
        "parent_id": parent_id,
        "depth": depth,
        "name": name,
        "start": start,
        "duration": duration,
        "status": "ok",
    }
    if attributes:
        record["attributes"] = attributes
    return record


def worker_rows():
    """A parent span with worker tasks on two lanes plus a serial task."""
    rows = [row(1, "segugio_run_day", 0.0, 1.0, depth=0, day=3)]
    starts = [0.1, 0.2, 0.3, 0.4]
    durations = [0.1, 0.1, 0.1, 0.5]  # last one is the straggler
    workers = ["w0", "w1", "w0", "w1"]
    next_id = 2
    for task, (start, duration, worker) in enumerate(
        zip(starts, durations, workers)
    ):
        rows.append(
            row(
                next_id,
                "segugio_worker_task",
                start,
                duration,
                parent_id=1,
                depth=1,
                worker=worker,
                label="forest_fit",
                task=task,
            )
        )
        # a child span inherits its worker's lane through the ancestry
        rows.append(
            row(
                next_id + 1,
                "fit_batch",
                start,
                duration / 2,
                parent_id=next_id,
                depth=2,
            )
        )
        next_id += 2
    rows.append(
        row(
            next_id,
            "segugio_worker_task",
            0.9,
            0.05,
            parent_id=1,
            depth=1,
            worker="serial",
            label="forest_predict",
            task=0,
        )
    )
    return rows


class TestBuildTimeline:
    def test_lane_assignment_follows_worker_ancestry(self):
        timeline = build_timeline(manifest(), worker_rows())
        by_name = {}
        for entry in timeline["rows"]:
            by_name.setdefault(entry["name"], []).append(entry["lane"])
        assert by_name["segugio_run_day"] == ["parent"]
        assert set(by_name["segugio_worker_task"]) == {"w0", "w1", "serial"}
        # child spans land in their worker's lane, not the parent's
        assert set(by_name["fit_batch"]) == {"w0", "w1"}

    def test_lane_order_parent_then_workers_then_serial(self):
        timeline = build_timeline(manifest(), worker_rows())
        assert list(timeline["lanes"]) == ["parent", "w0", "w1", "serial"]

    def test_straggler_detection_uses_label_median(self):
        timeline = build_timeline(manifest(), worker_rows())
        stragglers = [
            entry for entry in timeline["rows"] if entry["straggler"]
        ]
        # only the 0.5s task beats 1.5x the 0.1s median of forest_fit
        assert [e["attributes"]["task"] for e in stragglers] == [3]
        assert timeline["n_stragglers"] == 1

    def test_no_straggler_verdict_under_three_tasks(self):
        rows = [
            row(1, "segugio_run_day", 0.0, 1.0),
            row(
                2,
                "segugio_worker_task",
                0.0,
                0.9,
                parent_id=1,
                depth=1,
                worker="w0",
                label="forest_fit",
                task=0,
            ),
        ]
        timeline = build_timeline(manifest(), rows)
        assert timeline["n_stragglers"] == 0

    def test_skew_normalized_spans_counted(self):
        rows = worker_rows()
        rows[1]["attributes"]["skew_normalized"] = True
        timeline = build_timeline(manifest(), rows)
        assert timeline["n_skew"] == 1

    def test_clock_spans_the_whole_run(self):
        timeline = build_timeline(manifest(), worker_rows())
        assert timeline["clock_s"] == 1.0

    def test_events_carried_from_manifest(self):
        events = [{"kind": "task_retry", "day": 3, "phase": "fit"}]
        timeline = build_timeline(manifest(events=events), worker_rows())
        assert timeline["events"] == events


class TestRenderTrace:
    def test_text_view_lists_lanes_and_annotations(self):
        text = render_trace(manifest(), worker_rows())
        assert "segugio inspect: timeline" in text
        assert "w0" in text and "w1" in text and "serial" in text
        assert "STRAGGLER" in text
        assert f"{STRAGGLER_FACTOR:g}x label median" in text

    def test_parent_only_trace_renders_with_hint(self):
        rows = [row(1, "segugio_run_day", 0.0, 1.0)]
        text = render_trace(manifest(), rows)
        assert "parent only" in text
        assert "--profile" in text

    def test_row_limit_truncates_with_note(self):
        text = render_trace(manifest(), worker_rows(), limit=2)
        assert "more row(s)" in text

    def test_degradation_events_listed(self):
        events = [{"kind": "worker_lost", "day": 3, "phase": "fit"}]
        text = render_trace(manifest(events=events), worker_rows())
        assert "worker_lost" in text
        assert "day=3" in text


class TestRenderTraceHtml:
    def test_html_has_lane_blocks_and_bars(self):
        html_text = render_trace_html(manifest(), worker_rows())
        assert "<!doctype html>" in html_text
        assert html_text.count('class="lane-block"') == 4
        assert 'class="bar worker straggler"' in html_text

    def test_html_escapes_untrusted_names(self):
        rows = [row(1, "<script>alert(1)</script>", 0.0, 1.0)]
        html_text = render_trace_html(manifest(run_id="<r>"), rows)
        assert "<script>" not in html_text
        assert "&lt;script&gt;" in html_text

    def test_events_table_present(self):
        events = [{"kind": "task_retry", "day": 3, "phase": "fit"}]
        html_text = render_trace_html(manifest(events=events), worker_rows())
        assert "Degradation events" in html_text
        assert "task_retry" in html_text


class TestLoadTrace:
    def write_dir(self, tmp_path):
        from repro.obs.manifest import write_manifest

        payload = {
            "manifest_version": 2,
            "run_id": "r",
            "command": "track",
            "health": {"status": "ok", "reasons": []},
            "days": [],
            "metrics": {},
            "spans": [],
        }
        write_manifest(payload, str(tmp_path / "manifest.json"))
        with open(tmp_path / "trace.jsonl", "w") as stream:
            stream.write(json.dumps(row(1, "a", 0.0, 1.0)) + "\n")
            stream.write("{torn\n")
            stream.write(json.dumps(row(2, "b", 0.1, 0.2, parent_id=1)) + "\n")

    def test_loads_directory_and_skips_torn_lines(self, tmp_path):
        self.write_dir(tmp_path)
        loaded_manifest, rows = load_trace(str(tmp_path))
        assert loaded_manifest["run_id"] == "r"
        assert [r["name"] for r in rows] == ["a", "b"]

    def test_loads_trace_file_path_directly(self, tmp_path):
        self.write_dir(tmp_path)
        _, rows = load_trace(str(tmp_path / "trace.jsonl"))
        assert len(rows) == 2

    def test_missing_dir_raises_trace_error(self, tmp_path):
        with pytest.raises(TelemetryError):
            load_trace(str(tmp_path / "nowhere"))

    def test_missing_trace_file_raises(self, tmp_path):
        self.write_dir(tmp_path)
        os.unlink(tmp_path / "trace.jsonl")
        with pytest.raises(TelemetryError, match="no trace file"):
            load_trace(str(tmp_path))


class TestTraceCli:
    def test_trace_view_over_real_profiled_run(self, tmp_path, capsys):
        from repro.cli import main

        telemetry_dir = str(tmp_path / "telemetry")
        assert (
            main(
                [
                    "track",
                    "--days",
                    "1",
                    "--jobs",
                    "2",
                    "--telemetry-dir",
                    telemetry_dir,
                    "--profile",
                ]
            )
            == 0
        )
        capsys.readouterr()
        html_path = str(tmp_path / "trace.html")
        assert (
            main(
                ["inspect", telemetry_dir, "--view", "timeline", "--html", html_path]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "segugio inspect: timeline" in out
        assert "timeline" in out
        with open(html_path) as stream:
            assert "lane-block" in stream.read()

    def test_trace_missing_dir_exits_with_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["inspect", str(tmp_path / "nowhere")])
