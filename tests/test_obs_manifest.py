"""Run manifests: hashing, atomic write/load validation, §IV-G rendering."""

import json
import os

import pytest

from repro.eval.document import render_text
from repro.eval.views import cost_view
from repro.obs.manifest import (
    MANIFEST_VERSION,
    ManifestError,
    TelemetryRun,
    config_hash,
    load_manifest,
    write_manifest,
)


def render_telemetry(manifest):
    return render_text(cost_view(TelemetryRun(manifest)))


def minimal_manifest(**overrides):
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "run_id": "r1",
        "command": "track",
        "config": {"n_trees": 100},
        "config_sha256": config_hash({"n_trees": 100}),
        "days": [],
        "spans": [],
        "ingest": [],
        "degradations": [],
        "warnings": [],
        "trace_file": "trace.jsonl",
    }
    manifest.update(overrides)
    return manifest


class TestConfigHash:
    def test_key_order_invariant(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_none_config_hashes_to_none(self):
        assert config_hash(None) is None


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = minimal_manifest(days=[{"day": 21, "phases": {}}])
        write_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_write_leaves_no_staging_file(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        write_manifest(minimal_manifest(), path)
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="does not exist"):
            load_manifest(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(str(path))

    def test_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ManifestError, match="JSON object"):
            load_manifest(str(path))

    def test_wrong_version(self, tmp_path):
        path = str(tmp_path / "v99.json")
        write_manifest(minimal_manifest(manifest_version=99), path)
        with pytest.raises(ManifestError, match="version 99"):
            load_manifest(path)

    def test_v1_manifest_is_rejected_by_version(self, tmp_path):
        # no writer has produced version 1 since the bump to 2; the reader
        # names the version it found and the ones it reads
        path = str(tmp_path / "v1.json")
        write_manifest(minimal_manifest(manifest_version=1), path)
        with pytest.raises(ManifestError, match="version 1 is not supported") as excinfo:
            load_manifest(path)
        assert str(excinfo.value).startswith(path)
        assert "reads versions 2 and 3" in str(excinfo.value)

    def test_v2_manifest_opens_with_its_metrics_unread(self, tmp_path):
        path = str(tmp_path / "v2.json")
        manifest = minimal_manifest(
            manifest_version=2,
            metrics={"segugio_tracker_days_total": {"type": "counter"}},
            days=[{"day": 21, "phases": {}, "metrics": {"segugio_x": {}}}],
        )
        write_manifest(manifest, path)
        assert load_manifest(path) == manifest
        assert TelemetryRun.open(path).days[0]["day"] == 21

    def test_missing_required_key(self, tmp_path):
        path = str(tmp_path / "partial.json")
        manifest = minimal_manifest()
        del manifest["days"]
        write_manifest(manifest, path)
        with pytest.raises(ManifestError, match="missing 'days'"):
            load_manifest(path)


class TestRenderTelemetry:
    def make_manifest(self):
        return minimal_manifest(
            days=[
                {
                    "day": 21,
                    "threshold": 0.4,
                    "n_scored": 930,
                    "n_new_detections": 23,
                    "n_repeat_detections": 0,
                    "n_implicated_machines": 37,
                    "provenance": [],
                    "phases": {
                        "build_graph": 0.5,
                        "train_classifier": 1.5,
                        "measure_test_features": 0.6,
                        "score_domains": 0.4,
                    },
                },
                {
                    "day": 22,
                    "threshold": 0.37,
                    "n_scored": 916,
                    "n_new_detections": 10,
                    "n_repeat_detections": 15,
                    "n_implicated_machines": 43,
                    "provenance": ["blacklist_stale:warning"],
                    "phases": {
                        "build_graph": 0.5,
                        "train_classifier": 1.5,
                        "measure_test_features": 0.4,
                        "score_domains": 0.6,
                    },
                },
            ],
            ingest=[
                {
                    "source": "/data/obs",
                    "mode": "lenient",
                    "n_ok": 1000,
                    "n_quarantined": 3,
                    "counters": {"trace:bad_ipv4": 3},
                }
            ],
            degradations=["blacklist_stale:warning"],
            warnings=["one warning"],
        )

    def test_header_and_phase_rows(self):
        text = render_telemetry(self.make_manifest())
        assert "run r1 (track), 2 day(s)" in text
        assert "cf. paper §IV-G" in text
        # Phase rows carry per-day and total columns.
        build = next(l for l in text.splitlines() if "build_graph" in l)
        assert "0.500" in build and "1.000" in build

    def test_learning_vs_classification_totals(self):
        lines = render_telemetry(self.make_manifest()).splitlines()
        learning = next(l for l in lines if "learning total" in l)
        classification = next(l for l in lines if "classification total" in l)
        ratio = next(l for l in lines if "learning/classification" in l)
        assert "2.000" in learning and "4.000" in learning
        assert "1.000" in classification and "2.000" in classification
        assert "2.0x" in ratio  # 4.0 / 2.0 overall
        # no decision log on this run: no ledger row
        assert not any("decision ledger" in l for l in lines)

    def test_decision_ledger_total_row(self):
        manifest = self.make_manifest()
        for day, seconds in zip(manifest["days"], (0.25, 0.75)):
            day["phases"]["segugio_decisions_emit"] = seconds
        lines = render_telemetry(manifest).splitlines()
        ledger = next(l for l in lines if "decision ledger" in l)
        assert ledger.split()[2:] == ["0.250", "0.750", "1.000"]
        # the ledger follows the classification total and stays out of it
        classification = next(
            i for i, l in enumerate(lines) if "classification total" in l
        )
        assert "decision ledger" in lines[classification + 1]
        assert lines[classification].split()[2:] == ["1.000", "1.000", "2.000"]

    def test_outcome_counters_summed(self):
        text = render_telemetry(self.make_manifest())
        scored = next(
            l for l in text.splitlines() if "unknown domains scored" in l
        )
        assert "1846" in scored  # 930 + 916
        assert "detection threshold" in text
        assert "0.400" in text and "0.370" in text

    def test_ingest_degradations_warnings_sections(self):
        text = render_telemetry(self.make_manifest())
        assert "/data/obs (lenient): 1000 kept, 3 quarantined" in text
        assert "trace:bad_ipv4: 3" in text
        assert "degradations observed:" in text
        assert "blacklist_stale:warning" in text
        assert "warnings:" in text

    def test_renders_empty_run_without_crashing(self):
        text = render_telemetry(minimal_manifest())
        assert "0 day(s)" in text
        assert "ingest accounting" not in text

    def test_render_is_json_safe(self, tmp_path):
        """Whatever write_manifest persisted must render after reload."""
        path = str(tmp_path / "manifest.json")
        write_manifest(self.make_manifest(), path)
        text = render_telemetry(load_manifest(path))
        assert "run r1" in text

    def test_unprofiled_manifest_renders_resource_na(self):
        text = render_telemetry(self.make_manifest())
        assert "resource cost: n/a" in text
        assert "--profile" in text

    def test_profiled_manifest_renders_resource_section(self):
        manifest = self.make_manifest()
        manifest["resources"] = {
            "schema_version": 1,
            "platform": {"n_rss_samples": 8},
            "process": {
                "wall_s": 4.0,
                "cpu_s": 3.5,
                "cpu_util": 0.875,
                "peak_rss_mb": 130.5,
                "io_read_bytes": 100,
                "io_write_bytes": 2048,
            },
            "phases": {
                "build_graph": {"wall_s": 1.0, "cpu_s": 0.9, "n": 2,
                                "peak_rss_mb": 120.0},
                "train_classifier": {"wall_s": 3.0, "cpu_s": 2.6, "n": 2},
            },
            "units": {"trace_rows": 50000},
            "throughput": {"trace_rows_per_s": 50000.0},
        }
        text = render_telemetry(manifest)
        assert "resource cost (profiled run)" in text
        assert "peak rss 130.5 MB" in text
        row = next(
            l
            for l in text.splitlines()
            if "build_graph" in l and "0.900" in l
        )
        assert "120.0" in row
        assert "trace_rows 50000.0/s" in text

    def test_resources_key_survives_write_and_load(self, tmp_path):
        """The additive contract: extra keys round-trip untouched."""
        manifest = self.make_manifest()
        manifest["resources"] = {"schema_version": 1, "process": {"wall_s": 1}}
        path = str(tmp_path / "manifest.json")
        write_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded["resources"] == manifest["resources"]


class TestRenderTelemetryArtifacts:
    """The header/footer fields added for the SEG103 manifest contract:
    every key the producers write has a reader in the rendered view."""

    def test_created_stamp_in_header(self):
        # 2026-08-06 00:33:20 UTC
        text = render_telemetry(minimal_manifest(created_unix=1785976400.0))
        header = text.splitlines()[0]
        assert "created 2026-08-05" in header or "created 2026-08-06" in header
        assert header.endswith("Z") or "Z" in header

    def test_unparseable_created_stamp_degrades(self):
        text = render_telemetry(minimal_manifest(created_unix=1e300))
        assert "created ?" in text.splitlines()[0]

    def test_no_upgrade_marker_on_native_manifest(self):
        text = render_telemetry(minimal_manifest())
        assert "upgraded from" not in text

    def test_artifacts_footer_lists_companions(self):
        text = render_telemetry(
            minimal_manifest(decisions_file="decisions.jsonl")
        )
        footer = text.splitlines()[-1]
        assert footer == "artifacts: trace trace.jsonl, decisions decisions.jsonl"

    def test_artifacts_footer_without_decisions(self):
        text = render_telemetry(minimal_manifest())
        footer = text.splitlines()[-1]
        assert "trace trace.jsonl" in footer
        assert "decisions" not in footer
