"""The ``segugio inspect`` health view: loading, rendering, CLI, edge cases."""

import pytest

from repro.cli import main
from repro.eval.document import render_html, render_text
from repro.eval.monitor import parse_reference, reference_deltas, sparkline
from repro.eval.views import health_view
from repro.obs import TelemetryError, TelemetryRun

load_runs = TelemetryRun.open_all


def render_monitor(runs, reference="previous"):
    return render_text(health_view(runs, reference))


def render_monitor_html(runs, reference="previous"):
    return render_html(health_view(runs, reference))


@pytest.fixture(scope="module")
def telemetry_dir(tmp_path_factory):
    """A real two-day tracked run's telemetry directory."""
    out = str(tmp_path_factory.mktemp("telemetry") / "run")
    assert (
        main(
            ["track", "--scale", "small", "--days", "2", "--telemetry-dir", out]
        )
        == 0
    )
    return out


def _alert_run():
    """A synthetic in-memory run with one tripped alert day."""
    manifest = {
        "run_id": "test-run",
        "command": "track",
        "health": {
            "status": "alert",
            "reasons": [
                {
                    "day": 161,
                    "rule": "label_churn",
                    "status": "alert",
                    "message": "label_churn: ground truth churned",
                }
            ],
        },
        "days": [
            {
                "day": 160,
                "threshold": 0.4,
                "n_scored": 900,
                "n_new_detections": 20,
                "n_repeat_detections": 0,
                "drift": None,
                "health": {"status": "ok", "reasons": []},
            },
            {
                "day": 161,
                "threshold": 0.35,
                "n_scored": 880,
                "n_new_detections": 12,
                "n_repeat_detections": 15,
                "drift": {
                    "score": {"psi": 0.4, "ks": 0.2},
                    "features_max": {"feature": "machine_total", "psi": 0.1, "ks": 0.1},
                    "features": {"machine_total": {"psi": 0.1, "ks": 0.1}},
                    "labels": {"n_added": 50, "n_removed": 40, "churn_pct": 90.0},
                },
                "health": {
                    "status": "alert",
                    "reasons": [
                        {
                            "rule": "label_churn",
                            "status": "alert",
                            "message": "label_churn: ground truth churned",
                        }
                    ],
                },
            },
        ],
    }
    return TelemetryRun(manifest, path="/synthetic")


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_mid_blocks(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▄▄▄"

    def test_monotone_series_spans_the_blocks(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(line) == 8


class TestLoadRuns:
    def test_loads_manifest_and_decisions(self, telemetry_dir):
        (run,) = load_runs([telemetry_dir])
        assert run.manifest["command"] == "track"
        assert len(run.days) == 2
        assert len(run.decisions) > 0
        assert run.health["status"] in ("ok", "warn", "alert")

    def test_missing_directory_is_an_error(self):
        with pytest.raises(TelemetryError, match="not a directory"):
            load_runs(["/no/such/telemetry"])

    def test_directory_without_manifest_is_an_error(self, tmp_path):
        with pytest.raises(TelemetryError, match="manifest"):
            load_runs([str(tmp_path)])

    def test_no_paths_is_an_error(self, capsys):
        # the CLI owns this case now: `inspect` takes one or more paths
        with pytest.raises(SystemExit):
            main(["inspect"])
        assert "PATH" in capsys.readouterr().err

    def test_all_problems_reported_together(self, tmp_path, telemetry_dir):
        with pytest.raises(TelemetryError) as excinfo:
            load_runs([telemetry_dir, "/no/such/dir", str(tmp_path)])
        assert "/no/such/dir" in str(excinfo.value)
        assert str(tmp_path) in str(excinfo.value)


class TestRenderText:
    def test_real_run_dashboard(self, telemetry_dir):
        text = render_monitor(load_runs([telemetry_dir]))
        assert "segugio inspect: health — 1 run(s), 2 tracked day(s)" in text
        assert "per-day trend:" in text
        assert "[+] ok" in text
        assert "trend sparklines" in text
        assert "decision verdicts per day" in text
        # day 2 has a drift reference -> a per-feature drift table renders
        assert "per-feature drift" in text

    def test_alert_run_lists_tripped_rules(self):
        text = render_monitor([_alert_run()])
        assert "overall health [x] alert" in text
        assert "tripped alert rules:" in text
        assert "day 161: [x] alert label_churn" in text

    def test_run_level_reasons_are_listed(self):
        # a retried day is healthy in its own record; only the run-level
        # health (the supervisor's per-day reason) says it needed a retry
        from repro.obs.monitor import run_health

        days = [
            {"day": 160, "n_scored": 900, "health": {"status": "ok", "reasons": []}}
        ]
        events = [{"kind": "day_retry", "day": 160, "attempt": 0, "error": "io"}]
        manifest = {
            "run_id": "retried",
            "command": "track",
            "health": run_health(days, events),
            "runtime_events": events,
            "days": days,
        }
        text = render_monitor([TelemetryRun(manifest, path="/synthetic")])
        assert "overall health [!] warn" in text
        assert "tripped alert rules: none" not in text
        assert "day 160: [!] warn supervisor_degraded" in text

    def test_quiet_run_says_none(self, telemetry_dir):
        text = render_monitor(load_runs([telemetry_dir]))
        assert "tripped alert rules: none" in text

    def test_day_zero_decisions_are_bucketed_as_day_zero(self):
        # regression: `int(record.get("day", -1) or -1)` read day 0 as -1,
        # so a campaign starting at day 0 grew a phantom "-1" verdict row
        manifest = {
            "run_id": "r",
            "command": "track",
            "days": [{"day": 0, "n_scored": 1}],
        }
        decisions = [
            {"day": 0, "verdict": "scored", "detected": True},
            {"day": 0, "verdict": "pruned", "detected": None},
        ]
        text = render_monitor([TelemetryRun(manifest, decisions=decisions)])
        table = text.split("decision verdicts per day")[1].splitlines()[1:3]
        assert table[1].split() == ["0", "1", "1", "0", "1"]
        assert "-1" not in text

    def test_manifest_without_days(self):
        run = TelemetryRun({"run_id": "r", "command": "track"}, path="/empty")
        text = render_monitor([run])
        assert "nothing to trend" in text


class TestRenderHtml:
    def test_real_run_html(self, telemetry_dir):
        html_text = render_monitor_html(load_runs([telemetry_dir]))
        assert html_text.startswith("<!doctype html>")
        assert "<table>" in html_text
        assert 'class="badge ok"' in html_text
        assert "[+] ok" in html_text  # status is symbol+word, not color alone

    def test_alert_run_html_badges(self):
        html_text = render_monitor_html([_alert_run()])
        assert 'class="badge alert"' in html_text
        assert "[x] alert" in html_text
        assert "label_churn" in html_text

    def test_path_is_escaped(self):
        run = _alert_run()
        run.path = "/tmp/<script>"
        assert "<script>" not in render_monitor_html([run])


class TestMonitorCli:
    def test_monitor_renders_and_writes_html(
        self, telemetry_dir, tmp_path, capsys
    ):
        out = str(tmp_path / "dash.html")
        assert (
            main(["inspect", telemetry_dir, "--view", "health", "--html", out])
            == 0
        )
        printed = capsys.readouterr().out
        assert "segugio inspect: health" in printed
        assert f"html report written to {out}" in printed
        with open(out) as stream:
            assert "<!doctype html>" in stream.read()

    def test_monitor_missing_dir_exits_nonzero(self):
        with pytest.raises(SystemExit, match="not a directory"):
            main(["inspect", "/no/such/telemetry"])

    def test_monitor_empty_dir_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit, match="manifest"):
            main(["inspect", str(tmp_path)])


class TestExplainReplayCli:
    def test_explain_top_detection_from_artifacts(self, telemetry_dir, capsys):
        assert main(["explain", "--telemetry-dir", telemetry_dir]) == 0
        out = capsys.readouterr().out
        assert "forest vote" in out
        assert "malware score" in out
        assert "DETECTED" in out

    def test_explain_named_domain_from_artifacts(self, telemetry_dir, capsys):
        assert main(["explain", "--telemetry-dir", telemetry_dir]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        domain = first.split(" — ")[0]
        assert main(
            ["explain", "--telemetry-dir", telemetry_dir, "--domain", domain]
        ) == 0
        assert domain in capsys.readouterr().out

    def test_explain_unknown_domain_exits_nonzero(self, telemetry_dir):
        with pytest.raises(SystemExit, match="no decision record"):
            main(
                [
                    "explain",
                    "--telemetry-dir",
                    telemetry_dir,
                    "--domain",
                    "absent.example",
                ]
            )

    def test_explain_dir_without_decisions_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit, match="decisions.jsonl"):
            main(["explain", "--telemetry-dir", str(tmp_path)])


_REFERENCE_DAYS = [
    {"day": 1, "n_scored": 100, "n_new_detections": 10, "threshold": 0.5},
    {"day": 2, "n_scored": 150, "n_new_detections": 0, "threshold": 0.5},
    {"day": 3, "n_scored": 200, "n_new_detections": 5, "threshold": 0.25},
]


class TestReferenceWindows:
    def test_parse_reference_specs(self):
        assert parse_reference("previous") == ("previous", None)
        assert parse_reference("pinned:160") == ("pinned", 160)
        assert parse_reference("rolling:7") == ("rolling", 7)

    @pytest.mark.parametrize(
        "spec", ["bogus", "pinned:", "pinned:soon", "rolling:0", "rolling:x"]
    )
    def test_bad_specs_name_the_offender(self, spec):
        with pytest.raises(ValueError, match="reference") as excinfo:
            parse_reference(spec)
        assert spec in str(excinfo.value)

    def test_previous_mode_adds_no_rows(self):
        assert reference_deltas(_REFERENCE_DAYS, "previous", None) == []

    def test_pinned_compares_every_other_day_to_the_pin(self):
        rows = reference_deltas(_REFERENCE_DAYS, "pinned", 1)
        assert {row["day"] for row in rows} == {2, 3}  # the pin itself skipped
        by_key = {(row["day"], row["metric"]): row for row in rows}
        assert by_key[(2, "scored")]["delta_pct"] == pytest.approx(50.0)
        assert by_key[(2, "new detections")]["delta_pct"] == pytest.approx(-100.0)
        assert by_key[(3, "threshold")]["delta_pct"] == pytest.approx(-50.0)

    def test_pinned_day_must_be_loaded(self):
        with pytest.raises(ValueError, match="not.*among") as excinfo:
            reference_deltas(_REFERENCE_DAYS, "pinned", 99)
        assert "1, 2, 3" in str(excinfo.value)  # the error lists what IS loaded

    def test_zero_baseline_yields_no_percentage(self):
        rows = reference_deltas(_REFERENCE_DAYS, "pinned", 2)
        by_key = {(row["day"], row["metric"]): row for row in rows}
        assert by_key[(3, "new detections")]["delta_pct"] is None

    def test_rolling_mean_skips_days_without_history(self):
        rows = reference_deltas(_REFERENCE_DAYS, "rolling", 2)
        assert {row["day"] for row in rows} == {2, 3}  # day 1 has no history
        by_key = {(row["day"], row["metric"]): row for row in rows}
        assert by_key[(3, "scored")]["reference"] == pytest.approx(125.0)
        assert by_key[(3, "scored")]["delta_pct"] == pytest.approx(60.0)

    def test_render_includes_reference_table(self):
        text = render_monitor([_alert_run()], reference="pinned:160")
        assert "reference drift vs pinned day 160:" in text
        html = render_monitor_html([_alert_run()], reference="rolling:1")
        assert "rolling mean of previous 1 day(s)" in html

    def test_render_previous_mode_is_unchanged(self):
        assert "reference drift" not in render_monitor([_alert_run()])


class TestExplainManifestResolution:
    """``segugio explain`` resolves the decisions file through the
    manifest's ``decisions_file`` key rather than assuming the default
    filename (the SEG103 manifest-contract consumer for that key)."""

    @pytest.fixture
    def run_copy(self, telemetry_dir, tmp_path):
        import shutil

        dest = str(tmp_path / "run")
        shutil.copytree(telemetry_dir, dest)
        return dest

    def test_renamed_decisions_file_followed_via_manifest(
        self, run_copy, capsys
    ):
        import json
        import os

        os.rename(
            os.path.join(run_copy, "decisions.jsonl"),
            os.path.join(run_copy, "verdicts.jsonl"),
        )
        manifest_path = os.path.join(run_copy, "manifest.json")
        with open(manifest_path) as stream:
            manifest = json.load(stream)
        manifest["decisions_file"] = "verdicts.jsonl"
        with open(manifest_path, "w") as stream:
            json.dump(manifest, stream)
        assert main(["explain", "--telemetry-dir", run_copy]) == 0
        assert "forest vote" in capsys.readouterr().out

    def test_null_decisions_file_is_a_located_error(self, run_copy):
        import json
        import os

        manifest_path = os.path.join(run_copy, "manifest.json")
        with open(manifest_path) as stream:
            manifest = json.load(stream)
        manifest["decisions_file"] = None
        with open(manifest_path, "w") as stream:
            json.dump(manifest, stream)
        with pytest.raises(SystemExit, match="no decision provenance"):
            main(["explain", "--telemetry-dir", run_copy])

    def test_no_manifest_falls_back_to_default_name(self, run_copy, capsys):
        import os

        os.remove(os.path.join(run_copy, "manifest.json"))
        assert main(["explain", "--telemetry-dir", run_copy]) == 0
        assert "forest vote" in capsys.readouterr().out
