"""Tests for the ``segugio inspect`` timeline view."""

import json
import os

import pytest

from repro.eval.document import render_html, render_text
from repro.eval.trace import build_timeline
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


def day_rows():
    """One day span with nested phases, given out of start order."""
    return [
        row(4, "segugio_forest_predict", 0.8, 0.1, parent_id=3, depth=2),
        row(1, "segugio_run_day", 0.0, 1.0, depth=0, day=3),
        row(2, "build_graph", 0.1, 0.3, parent_id=1, depth=1),
        row(3, "score_domains", 0.7, 0.25, parent_id=1, depth=1),
        # a pool task span written before the day ran in one process
        row(5, "segugio_worker_task", 0.4, 0.2, parent_id=1, depth=1,
            worker="w0", label="forest_fit", task=0),
    ]


class TestBuildTimeline:
    def test_rows_in_start_order(self):
        timeline = build_timeline(manifest(), day_rows())
        assert [entry["id"] for entry in timeline["rows"]] == [1, 2, 5, 3, 4]

    def test_busy_time_sums_the_root_spans(self):
        rows = day_rows() + [row(6, "segugio_checkpoint_save", 1.0, 0.5)]
        assert build_timeline(manifest(), rows)["busy_s"] == 1.5

    def test_clock_spans_the_whole_run(self):
        timeline = build_timeline(manifest(), day_rows())
        assert timeline["clock_s"] == 1.0

    def test_events_carried_from_manifest(self):
        events = [{"kind": "day_retry", "day": 3, "attempt": 0}]
        timeline = build_timeline(manifest(events=events), day_rows())
        assert timeline["events"] == events


class TestRenderTrace:
    def test_text_view_lists_every_span(self):
        text = render_trace(manifest(), day_rows())
        assert "segugio inspect: timeline" in text
        assert "spans: 5 span(s), busy 1.000s" in text
        # an old worker span is one more span, annotated like any other
        assert "segugio_worker_task (label=forest_fit, task=0)" in text

    def test_row_limit_truncates_with_note(self):
        text = render_trace(manifest(), day_rows(), limit=2)
        assert "more row(s)" in text

    def test_degradation_events_listed(self):
        events = [{"kind": "day_retry", "day": 3, "attempt": 0}]
        text = render_trace(manifest(events=events), day_rows())
        assert "day_retry" in text
        assert "day=3" in text


class TestRenderTraceHtml:
    def test_html_draws_one_track_per_depth(self):
        html_text = render_trace_html(manifest(), day_rows())
        assert "<!doctype html>" in html_text
        assert html_text.count('class="timeline-block"') == 1
        assert html_text.count('class="track"') == 3
        assert html_text.count('class="bar"') == 5

    def test_html_escapes_untrusted_names(self):
        rows = [row(1, "<script>alert(1)</script>", 0.0, 1.0)]
        html_text = render_trace_html(manifest(run_id="<r>"), rows)
        assert "<script>" not in html_text
        assert "&lt;script&gt;" in html_text

    def test_events_table_present(self):
        events = [{"kind": "day_retry", "day": 3, "attempt": 0}]
        html_text = render_trace_html(manifest(events=events), day_rows())
        assert "Degradation events" in html_text
        assert "day_retry" in html_text


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
            assert "timeline-block" in stream.read()

    def test_trace_missing_dir_exits_with_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["inspect", str(tmp_path / "nowhere")])
