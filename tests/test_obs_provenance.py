"""Decision provenance: schema stability, emission coverage, and replay.

The decisions.jsonl schema is a public artifact contract (``segugio
explain --telemetry-dir`` replays verdicts from it alone), so these tests
pin the exact record shape — the golden key set must only change together
with a DECISION_SCHEMA_VERSION bump.
"""

import json

import pytest

from repro.core.features import FEATURE_NAMES
from repro.core.pipeline import Segugio
from repro.core.pruning import RULE_NAMES
from repro.obs.provenance import (
    DECISION_SCHEMA_VERSION,
    DecisionLog,
    ProvenanceError,
    VERDICT_LABELED,
    VERDICT_PRUNED,
    VERDICT_SCORED,
    VOTE_BINS,
    current_decision_log,
    decisions_for_domain,
    load_decisions,
    render_decision,
    use_decision_log,
)

#: the golden v1 record shape — every record carries exactly these keys
GOLDEN_KEYS = {
    "schema",
    "day",
    "domain",
    "verdict",
    "label",
    "label_source",
    "pruning",
    "features",
    "votes",
    "score",
    "threshold",
    "detected",
}


@pytest.fixture(scope="module")
def decision_run(train_context):
    """One classified day with the decision log active."""
    log = DecisionLog(enabled=True)
    with use_decision_log(log):
        model = Segugio().fit(train_context)
        report = model.classify(train_context)
        log.finalize_day(train_context.day, 0.5)
    return log, model, report


class TestGoldenSchema:
    def test_every_record_has_exactly_the_golden_keys(self, decision_run):
        log, _model, _report = decision_run
        assert len(log) > 0
        for record in log.records:
            assert set(record) == GOLDEN_KEYS
            assert record["schema"] == DECISION_SCHEMA_VERSION

    def test_verdict_partition_is_complete_and_consistent(self, decision_run):
        log, _model, report = decision_run
        by_verdict = {VERDICT_SCORED: 0, VERDICT_PRUNED: 0, VERDICT_LABELED: 0}
        for record in log.records:
            by_verdict[record["verdict"]] += 1
            pruning = record["pruning"]
            if record["verdict"] == VERDICT_PRUNED:
                assert not pruning["kept"]
                assert pruning["removed_by"] in set(RULE_NAMES.values())
            else:
                assert pruning["kept"]
                assert pruning["removed_by"] is None
        assert by_verdict[VERDICT_SCORED] == len(report)
        assert by_verdict[VERDICT_PRUNED] > 0
        assert by_verdict[VERDICT_LABELED] > 0

    def test_scored_records_carry_full_provenance(self, decision_run):
        log, _model, report = decision_run
        scored = [r for r in log.records if r["verdict"] == VERDICT_SCORED]
        for record in scored:
            assert record["score"] == pytest.approx(
                report.score_of(record["domain"])
            )
            assert len(record["features"]) == 11
            votes = record["votes"]
            assert len(votes["histogram"]) == VOTE_BINS == votes["bins"]
            assert sum(votes["histogram"]) == votes["n_trees"]
            assert -1.0 <= votes["margin"] <= 1.0
            # finalize_day stamped the threshold and the verdict
            assert record["threshold"] == 0.5
            assert record["detected"] == (record["score"] >= 0.5)

    def test_scored_payload_equals_a_value_at_a_time_conversion(
        self, decision_run
    ):
        """``_emit_decisions`` converts each array with one ``tolist()``; the
        per-value ``float()``/``int()`` it replaced is the oracle, and the
        serialized lines must agree byte for byte."""
        log, model, report = decision_run
        histogram, margin = model.classifier_.tree_vote_histogram(
            report.features[:, model.config.columns()], n_bins=VOTE_BINS
        )
        scored = {
            r["domain"]: r for r in log.records if r["verdict"] == VERDICT_SCORED
        }
        assert len(scored) == len(report) > 0
        for row, domain_id in enumerate(report.domain_ids):
            record = scored[report.graph.domains.name(int(domain_id))]
            oracle = dict(
                record,
                features={
                    name: float(value)
                    for name, value in zip(FEATURE_NAMES, report.features[row])
                },
                votes={
                    "n_trees": int(len(model.classifier_.trees_)),
                    "bins": VOTE_BINS,
                    "histogram": [int(v) for v in histogram[row]],
                    "margin": float(margin[row]),
                },
                score=float(report.scores[row]),
            )
            assert json.dumps(record, sort_keys=True) == json.dumps(
                oracle, sort_keys=True
            )
            assert all(type(v) is float for v in record["features"].values())
            assert all(type(v) is int for v in record["votes"]["histogram"])

    def test_unscored_records_have_no_score_payload(self, decision_run):
        log, _, _ = decision_run
        for record in log.records:
            if record["verdict"] != VERDICT_SCORED:
                assert record["features"] is None
                assert record["votes"] is None
                assert record["score"] is None
                assert record["threshold"] is None
                assert record["detected"] is None

    def test_jsonl_round_trip_preserves_records(self, decision_run, tmp_path):
        log, _, _ = decision_run
        path = tmp_path / "decisions.jsonl"
        with open(path, "w") as stream:
            assert log.write_jsonl(stream) == len(log)
        loaded = load_decisions(str(path))
        assert loaded == log.records
        # keys are sorted on disk: artifacts diff cleanly across runs
        first = path.read_text().splitlines()[0]
        assert list(json.loads(first)) == sorted(GOLDEN_KEYS)


class TestDecisionLogUnit:
    def test_disabled_log_records_nothing(self):
        log = DecisionLog(enabled=False)
        log.record(1, "x.example", VERDICT_SCORED, "unknown", "none", {"kept": True})
        assert len(log) == 0
        assert log.finalize_day(1, 0.5) == 0

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ProvenanceError, match="verdict"):
            DecisionLog().record(
                1, "x.example", "guessed", "unknown", "none", {"kept": True}
            )

    def test_ambient_default_is_disabled(self):
        assert not current_decision_log().enabled

    def test_use_decision_log_scopes_activation(self):
        log = DecisionLog()
        with use_decision_log(log):
            assert current_decision_log() is log
        assert current_decision_log() is not log

    def test_finalize_only_touches_the_given_day(self):
        log = DecisionLog()
        log.record(
            1, "a.example", VERDICT_SCORED, "unknown", "none",
            {"kept": True}, score=0.9,
        )
        log.record(
            2, "a.example", VERDICT_SCORED, "unknown", "none",
            {"kept": True}, score=0.2,
        )
        assert log.finalize_day(2, 0.5) == 1
        day1, day2 = log.records
        assert day1["threshold"] is None and day1["detected"] is None
        assert day2["threshold"] == 0.5 and day2["detected"] is False


class TestLoadValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ProvenanceError, match="cannot read"):
            load_decisions(str(tmp_path / "absent.jsonl"))

    def test_non_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": 1}\nnot json\n')
        with pytest.raises(ProvenanceError, match="bad.jsonl:2"):
            load_decisions(str(path))

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"schema": 99, "domain": "x"}\n')
        with pytest.raises(ProvenanceError, match="schema 99"):
            load_decisions(str(path))

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ProvenanceError, match="JSON object"):
            load_decisions(str(path))


class TestRenderDecision:
    def test_scored_detected_record_renders_full_chain(self, decision_run):
        log, _, _ = decision_run
        detected = [r for r in log.records if r.get("detected")]
        assert detected
        text = render_decision(detected[0])
        assert detected[0]["domain"] in text
        assert "ground truth" in text
        assert "features measured" in text
        assert "forest vote" in text
        assert "vote margin" in text
        assert "DETECTED" in text

    def test_pruned_record_explains_the_rule(self, decision_run):
        log, _, _ = decision_run
        pruned = [r for r in log.records if r["verdict"] == VERDICT_PRUNED]
        assert pruned
        text = render_decision(pruned[0])
        assert "pruning R1-R4: removed" in text
        assert "not scored (pruned before classification)" in text

    def test_labeled_record_is_explicitly_unscored(self):
        text = render_decision(
            {
                "schema": 1,
                "day": 3,
                "domain": "known.example",
                "verdict": VERDICT_LABELED,
                "label": "malware",
                "label_source": "blacklist",
                "pruning": {"kept": True, "removed_by": None},
            }
        )
        assert "ground truth already known" in text

    def test_decisions_for_domain_filters(self, decision_run):
        log, _, _ = decision_run
        domain = log.records[0]["domain"]
        matches = decisions_for_domain(log.records, domain)
        assert matches and all(r["domain"] == domain for r in matches)


class TestPipelineDoesNotEmitWhenDisabled:
    def test_classify_without_active_log_is_silent(self, train_context):
        model = Segugio().fit(train_context)
        model.classify(train_context)  # ambient log is the disabled default
        assert len(current_decision_log()) == 0
