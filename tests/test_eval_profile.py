"""The ``segugio inspect`` profile view: aggregation, hotspots, budgets, render."""

import json

import pytest

from repro.eval.document import render_html, render_text
from repro.eval.profile import (
    aggregate_spans,
    budget_verdicts,
    latency_summary,
    phase_hotspots,
)
from repro.eval.views import profile_view
from repro.obs.manifest import (
    MANIFEST_VERSION,
    TelemetryError,
    TelemetryRun,
    config_hash,
)


def load_profile(path):
    return TelemetryRun.open(path).manifest


def render_profile(manifest):
    return render_text(profile_view(TelemetryRun(manifest)))


def render_profile_html(manifest):
    return render_html(profile_view(TelemetryRun(manifest)))


def span(name, duration, cpu=None, rss=None, children=()):
    attributes = {}
    resources = {}
    if cpu is not None:
        resources["cpu_s"] = cpu
    if rss is not None:
        resources["peak_rss_mb"] = rss
    if resources:
        attributes["resources"] = resources
    return {
        "name": name,
        "duration": duration,
        "attributes": attributes,
        "children": list(children),
    }


def manifest_with(**overrides):
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "run_id": "r1",
        "command": "track",
        "config": {},
        "config_sha256": config_hash({}),
        "days": [{"day": 160}],
        "metrics": {},
        "spans": [
            span(
                "segugio_run_day",
                2.0,
                cpu=1.8,
                rss=120.0,
                children=[
                    span("build_graph", 0.5, cpu=0.4, rss=100.0),
                    span("train_classifier", 1.2, cpu=1.1, rss=118.0),
                ],
            ),
            span(
                "segugio_run_day",
                3.0,
                cpu=2.6,
                rss=140.0,
                children=[
                    span("build_graph", 0.7, cpu=0.6, rss=130.0),
                    span("train_classifier", 1.9, cpu=1.7, rss=139.0),
                ],
            ),
        ],
        "ingest": [],
        "degradations": [],
        "warnings": [],
        "trace_file": "trace.jsonl",
    }
    manifest.update(overrides)
    return manifest


def profiled_manifest(**overrides):
    base = manifest_with(
        resources={
            "schema_version": 1,
            "platform": {
                "has_proc_status": True,
                "has_proc_io": True,
                "n_rss_samples": 12,
                "sample_interval_s": 0.05,
            },
            "process": {
                "wall_s": 5.0,
                "cpu_s": 4.4,
                "child_cpu_s": 0.0,
                "cpu_util": 0.88,
                "peak_rss_mb": 140.0,
                "io_read_bytes": 0,
                "io_write_bytes": 4096,
            },
            "phases": {
                "build_graph": {"wall_s": 1.2, "cpu_s": 1.0, "n": 2},
                "train_classifier": {
                    "wall_s": 3.1,
                    "cpu_s": 2.8,
                    "n": 2,
                    "peak_rss_mb": 139.0,
                },
            },
            "units": {"trace_rows": 120000},
            "throughput": {"trace_rows_per_s": 100000.0},
            "pool": {
                "forest_fit": {
                    "n_tasks": 4,
                    "busy_s": 2.0,
                    "cpu_s": 1.9,
                    "queue_wait_s": 0.2,
                    "queue_wait_max_s": 0.08,
                    "latency": {
                        "buckets": {"0.5": 3, "1": 1, "inf": 0},
                        "sum": 2.2,
                        "count": 4,
                    },
                    "workers": {
                        "w0": {"n_tasks": 2, "busy_s": 1.1},
                        "w1": {"n_tasks": 2, "busy_s": 0.9},
                    },
                }
            },
        },
        health={
            "status": "warn",
            "reasons": [
                {"day": 160, "rule": "fp-rate", "status": "warn", "message": "x"},
                {
                    "day": None,
                    "rule": "rss-cap",
                    "status": "warn",
                    "path": "resources.process.peak_rss_mb",
                    "value": 140.0,
                    "threshold": 128.0,
                    "message": "rss-cap: peak rss over budget",
                },
            ],
        },
    )
    base.update(overrides)
    return base


class TestAggregateSpans:
    def test_merges_same_named_siblings(self):
        tree = aggregate_spans(manifest_with()["spans"])
        assert len(tree) == 1
        root = tree[0]
        assert root["name"] == "segugio_run_day"
        assert root["n"] == 2
        assert root["wall_s"] == pytest.approx(5.0)
        assert root["cpu_s"] == pytest.approx(4.4)
        assert root["peak_rss_mb"] == pytest.approx(140.0)
        children = {c["name"]: c for c in root["children"]}
        assert children["build_graph"]["wall_s"] == pytest.approx(1.2)
        assert children["train_classifier"]["n"] == 2

    def test_unprofiled_spans_have_none_columns(self):
        tree = aggregate_spans([span("fit", 1.0), span("fit", 2.0)])
        assert tree[0]["wall_s"] == pytest.approx(3.0)
        assert tree[0]["cpu_s"] is None
        assert tree[0]["peak_rss_mb"] is None

    def test_tolerates_junk_entries(self):
        assert aggregate_spans(["nope", 42, {"name": "x"}])[0]["n"] == 1


class TestHotspots:
    def test_profiled_ranked_by_cpu(self):
        rows = phase_hotspots(profiled_manifest())
        assert [r["name"] for r in rows] == ["train_classifier", "build_graph"]
        assert rows[0]["cpu_s"] == pytest.approx(2.8)

    def test_limit_respected(self):
        rows = phase_hotspots(profiled_manifest(), limit=1)
        assert len(rows) == 1

    def test_unprofiled_falls_back_to_span_wall(self):
        rows = phase_hotspots(manifest_with())
        assert rows[0]["name"] == "segugio_run_day"
        assert rows[0]["cpu_s"] is None


class TestBudgetVerdicts:
    def test_filters_resource_reasons_only(self):
        verdicts = budget_verdicts(profiled_manifest())
        assert len(verdicts) == 1
        assert verdicts[0]["rule"] == "rss-cap"

    def test_empty_without_health(self):
        assert budget_verdicts(manifest_with()) == []


class TestLatencySummary:
    def test_mean_and_p95_bucket_bound(self):
        histogram = {
            "buckets": {"0.05": 10, "0.1": 9, "0.25": 1},
            "sum": 2.0,
            "count": 20,
        }
        mean, p95 = latency_summary(histogram)
        assert mean == pytest.approx(0.1)
        # target = 0.95 * 20 = 19 cumulative, reached inside the 0.1 bucket
        assert p95 == pytest.approx(0.1)

    def test_empty_histogram(self):
        assert latency_summary({"buckets": {}, "sum": 0, "count": 0}) == (
            None,
            None,
        )

    def test_overflow_p95_is_none(self):
        histogram = {"buckets": {"inf": 5}, "sum": 60.0, "count": 5}
        mean, p95 = latency_summary(histogram)
        assert mean == pytest.approx(12.0)
        assert p95 is None


class TestRenderText:
    def test_unprofiled_manifest_renders_na_not_crash(self):
        text = render_profile(manifest_with())
        assert "resources: n/a" in text
        assert "phase tree" in text
        assert "segugio_run_day" in text

    def test_profiled_manifest_renders_all_sections(self):
        text = render_profile(profiled_manifest())
        assert "process: wall 5.000s, cpu 4.400s (util 0.88)" in text
        assert "peak rss 140.0 MB" in text
        assert "trace_rows 100000.0/s" in text
        assert "hotspots (top phases by cpu seconds):" in text
        assert "forest_fit: 4 task(s)" in text
        assert "w0: 2 task(s)" in text
        assert "rss-cap: peak rss over budget" in text

    def test_within_budget_message(self):
        manifest = profiled_manifest(health={"status": "ok", "reasons": []})
        assert "all within budget" in render_profile(manifest)


class TestRenderHtml:
    def test_self_contained_document(self):
        html_text = render_profile_html(profiled_manifest())
        assert html_text.startswith("<!doctype html>")
        assert "segugio inspect: profile" in html_text
        assert "train_classifier" in html_text
        assert "Supervised pool" in html_text
        assert "rss-cap" in html_text

    def test_unprofiled_html_renders(self):
        html_text = render_profile_html(manifest_with())
        assert "resources: n/a" in html_text


class TestLoadProfile:
    def test_loads_directory_or_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_with()))
        assert load_profile(str(tmp_path))["run_id"] == "r1"
        assert load_profile(str(path))["run_id"] == "r1"

    def test_profiled_resources_key_survives_load(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(profiled_manifest()))
        manifest = load_profile(str(tmp_path))
        assert manifest["resources"]["schema_version"] == 1

    def test_missing_manifest_raises_profile_error(self, tmp_path):
        with pytest.raises(TelemetryError):
            load_profile(str(tmp_path))

    def test_invalid_manifest_raises_profile_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{}")
        with pytest.raises(TelemetryError):
            load_profile(str(tmp_path))
