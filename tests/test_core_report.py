"""Tests for detection-report export."""

import csv
import io
import json

import pytest

from repro.core.report import detection_rows, to_json_text, write_csv, write_json


@pytest.fixture(scope="module")
def report_and_extractor(scenario, fitted_model, test_context):
    report = fitted_model.classify(test_context)
    extractor = fitted_model.prepare_day(test_context).extractor
    return report, extractor


class TestRows:
    def test_rows_sorted_by_score(self, report_and_extractor):
        report, _ = report_and_extractor
        rows = detection_rows(report, threshold=0.3)
        scores = [row["score"] for row in rows]
        assert scores == sorted(scores, reverse=True)

    def test_threshold_respected(self, report_and_extractor):
        report, _ = report_and_extractor
        rows = detection_rows(report, threshold=0.5)
        assert all(row["score"] >= 0.5 for row in rows)

    def test_machines_included_and_capped(self, report_and_extractor):
        report, _ = report_and_extractor
        rows = detection_rows(report, threshold=0.3, max_machines=2)
        for row in rows:
            assert len(row["machines"]) <= 2
            assert row["n_machines"] >= len(row["machines"]) or row["n_machines"] <= 2

    def test_feature_context_attached(self, report_and_extractor):
        report, extractor = report_and_extractor
        rows = detection_rows(report, threshold=0.3, extractor=extractor)
        assert rows, "need detections at this threshold"
        for row in rows:
            assert 0.0 <= row["frac_infected_machines"] <= 1.0
            assert row["days_active"] >= 0

    def test_empty_when_threshold_high(self, report_and_extractor):
        report, _ = report_and_extractor
        assert detection_rows(report, threshold=2.0) == []


class TestJson:
    def test_payload_structure(self, report_and_extractor):
        report, extractor = report_and_extractor
        payload = json.loads(to_json_text(report, 0.4, extractor))
        assert payload["day"] == report.day
        assert payload["n_detections"] == len(payload["detections"])
        assert payload["n_scored"] == len(report)

    def test_file_output(self, report_and_extractor, tmp_path):
        report, _ = report_and_extractor
        path = str(tmp_path / "detections.json")
        write_json(report, 0.4, path)
        with open(path) as stream:
            payload = json.load(stream)
        assert "detections" in payload


class TestCsv:
    def test_round_trip(self, report_and_extractor):
        report, extractor = report_and_extractor
        buffer = io.StringIO()
        write_csv(report, 0.4, buffer, extractor)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert rows
        for row in rows:
            assert float(row["score"]) >= 0.4
            assert "|".join([]) == "" or "machines" in row

    def test_empty_report_writes_header(self, report_and_extractor):
        report, _ = report_and_extractor
        buffer = io.StringIO()
        write_csv(report, 2.0, buffer)
        assert buffer.getvalue().startswith("domain,score")
