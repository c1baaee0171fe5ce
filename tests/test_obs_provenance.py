"""Decision provenance: schema stability, emission coverage, and replay.

The decisions.jsonl schema is a public artifact contract (``segugio
explain --telemetry-dir`` replays verdicts from it alone), so these tests
pin the exact record shape — the golden key set must only change together
with a DECISION_SCHEMA_VERSION bump.
"""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import FEATURE_NAMES
from repro.core.labeling import BENIGN, MALWARE, UNKNOWN
from repro.core.pipeline import _LEDGER_LABELS, _LEDGER_RULES, Segugio
from repro.core.pruning import RULE_KEPT, RULE_NAMES
from repro.obs import provenance
from repro.obs.provenance import (
    DECISION_SCHEMA_VERSION,
    DecisionBlock,
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
        """The writer renders each column in bulk; a per-value
        ``float()``/``int()`` conversion is the oracle, and the serialized
        lines must agree byte for byte."""
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


def one_domain_block(day, name="a.example", score=0.5):
    """A day with one scored domain and no vote histogram."""
    return DecisionBlock(
        day=day,
        domain_ids=np.array([0]),
        names=[name],
        rules=np.array([0], dtype=np.int8),
        labels=np.array([0], dtype=np.int8),
        hidden=np.array([False]),
        score_rows=np.array([0]),
        features=np.zeros((1, len(FEATURE_NAMES))),
        scores=np.array([score]),
        feature_names=FEATURE_NAMES,
        rule_names=_LEDGER_RULES,
        label_names=_LEDGER_LABELS,
    )


class TestDecisionLogUnit:
    def test_disabled_log_records_nothing(self):
        log = DecisionLog(enabled=False)
        log.add_block(one_domain_block(1))
        assert len(log) == 0
        assert log.finalize_day(1, 0.5) == 0

    def test_ambient_default_is_disabled(self):
        assert not current_decision_log().enabled

    def test_use_decision_log_scopes_activation(self):
        log = DecisionLog()
        with use_decision_log(log):
            assert current_decision_log() is log
        assert current_decision_log() is not log

    def test_finalize_only_touches_the_given_day(self):
        log = DecisionLog()
        log.add_block(one_domain_block(1, score=0.9))
        log.add_block(one_domain_block(2, score=0.2))
        assert log.finalize_day(2, 0.5) == 1
        day1, day2 = log.records
        assert day1["threshold"] is None and day1["detected"] is None
        assert day2["threshold"] == 0.5 and day2["detected"] is False

    def test_rollback_drops_the_blocks_added_since_the_mark(self):
        log = DecisionLog()
        log.add_block(one_domain_block(1, name="kept.example"))
        mark = log.mark()
        log.add_block(one_domain_block(2, name="failed.example"))
        log.rollback(mark)
        assert [r["domain"] for r in log.records] == ["kept.example"]
        assert len(log) == 1


def oracle_lines(block):
    """The block's lines the way the per-record writer made them: one
    dict per domain, ``json.dumps(record, sort_keys=True, default=str)``."""
    lines = []
    for i, (name, rule, label) in enumerate(
        zip(block.names, block.rules.tolist(), block.labels.tolist())
    ):
        if label == MALWARE:
            label, source = "malware", "blacklist"
        elif label == BENIGN:
            label, source = "benign", "whitelist"
        elif block.hidden[i]:
            label, source = "unknown", "hidden_for_evaluation"
        else:
            label, source = "unknown", "none"
        kept = rule == int(RULE_KEPT)
        record = {
            "schema": DECISION_SCHEMA_VERSION,
            "day": int(block.day),
            "domain": str(name),
            "verdict": VERDICT_LABELED if kept else VERDICT_PRUNED,
            "label": label,
            "label_source": source,
            "pruning": {"kept": kept, "removed_by": RULE_NAMES.get(rule)},
            "features": None,
            "votes": None,
            "score": None,
            "threshold": None,
            "detected": None,
        }
        row = int(block.score_rows[i])
        if row >= 0:
            score = float(block.scores[row])
            record.update(
                verdict=VERDICT_SCORED,
                features={
                    feature: float(value)
                    for feature, value in zip(FEATURE_NAMES, block.features[row])
                },
                score=score,
            )
            if block.histograms is not None:
                record["votes"] = {
                    "n_trees": block.n_trees,
                    "bins": VOTE_BINS,
                    "histogram": [int(v) for v in block.histograms[row]],
                    "margin": float(block.margins[row]),
                }
            if block.threshold is not None:
                record["threshold"] = float(block.threshold)
                record["detected"] = bool(score >= float(block.threshold))
        lines.append(json.dumps(record, sort_keys=True, default=str) + "\n")
    return lines


def written_lines(block, finalize):
    log = DecisionLog()
    log.add_block(block)
    if finalize is not None:
        log.finalize_day(block.day, finalize)
    stream = io.StringIO()
    assert log.write_jsonl(stream) == len(block)
    return stream.getvalue().splitlines(keepends=True)


#: rows every generated day holds: each verdict, each label source, each
#: rule, a hidden domain, names JSON must escape, and two scored rows (one
#: with NaN and infinite features)
#: (name, rule code, label code, hidden, scored)
COVERING_ROWS = [
    ('quote"d.example', 0, UNKNOWN, False, True),
    ("back\\slash.example", 0, UNKNOWN, True, True),
    ("ctrl\x00\x1f\n\t.example", 0, MALWARE, False, False),
    ("b\u00fccher.example", 0, BENIGN, False, False),
    ("\u043f\u0440\u0438\u043c\u0435\u0440.\U0001f600", 0, UNKNOWN, True, False),
] + [
    (f"{name}-{i}.example", code, label, False, False)
    for i, (code, name) in enumerate(sorted(RULE_NAMES.items()))
    for label in (UNKNOWN, MALWARE)
]

feature_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-310, 0.1, 1.0 / 3.0, 1e300]),
)


@st.composite
def day_blocks(draw):
    extra = draw(
        st.lists(
            st.tuples(
                st.text(max_size=12),
                st.sampled_from(sorted(_LEDGER_RULES)),
                st.sampled_from([UNKNOWN, BENIGN, MALWARE]),
                st.booleans(),
                st.booleans(),
            ),
            max_size=20,
        )
    )
    rows = draw(st.permutations(COVERING_ROWS + extra))
    n_scored = sum(1 for row in rows if row[4])
    n_features = len(FEATURE_NAMES)
    features = np.array(
        draw(st.lists(feature_value, min_size=n_scored * n_features,
                      max_size=n_scored * n_features)),
        dtype=float,
    ).reshape(n_scored, n_features)
    # always: a row with NaN and infinities, and -0.0 beside 0.0
    features[0, :4] = (np.nan, np.inf, -np.inf, -0.0)
    features[1, 3] = 0.0
    score_rows = np.full(len(rows), -1)
    scored_at = [i for i, row in enumerate(rows) if row[4]]
    score_rows[scored_at] = draw(st.permutations(range(n_scored)))
    with_votes = draw(st.booleans())
    return DecisionBlock(
        day=draw(st.integers(0, 400)),
        domain_ids=np.arange(len(rows)),
        names=[row[0] for row in rows],
        rules=np.array([row[1] for row in rows], dtype=np.int8),
        labels=np.array([row[2] for row in rows], dtype=np.int8),
        hidden=np.array([row[3] for row in rows]),
        score_rows=score_rows,
        features=features,
        scores=np.array(
            draw(st.lists(feature_value, min_size=n_scored, max_size=n_scored))
        ),
        feature_names=FEATURE_NAMES,
        rule_names=_LEDGER_RULES,
        label_names=_LEDGER_LABELS,
        histograms=(
            np.array(
                draw(st.lists(st.integers(0, 500), min_size=n_scored * VOTE_BINS,
                              max_size=n_scored * VOTE_BINS)),
                dtype=np.int64,
            ).reshape(n_scored, VOTE_BINS)
            if with_votes
            else None
        ),
        margins=(
            np.array(
                draw(st.lists(feature_value, min_size=n_scored, max_size=n_scored))
            )
            if with_votes
            else None
        ),
        n_trees=draw(st.integers(1, 500)) if with_votes else 0,
    )


class TestByteIdentityOracle:
    """The column writer against the per-record ``json.dumps`` it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        block=day_blocks(),
        threshold=st.one_of(st.none(), feature_value),
        chunk_rows=st.sampled_from([1, 3, 1 << 16]),
    )
    def test_lines_equal_json_dumps_of_each_record(
        self, block, threshold, chunk_rows
    ):
        with mock.patch.object(provenance, "_CHUNK_ROWS", chunk_rows):
            written = written_lines(block, threshold)
        expected = oracle_lines(
            block if threshold is None
            else DecisionBlock(**{**vars(block), "threshold": float(threshold)})
        )
        assert len(written) == len(expected) == len(block)
        for line, oracle in zip(written, expected):
            assert line == oracle

    @settings(max_examples=5, deadline=None)
    @given(block=day_blocks())
    def test_every_verdict_source_and_rule_is_written(self, block):
        records = [json.loads(line) for line in written_lines(block, None)]
        assert {r["verdict"] for r in records} == {
            VERDICT_SCORED, VERDICT_PRUNED, VERDICT_LABELED
        }
        assert {r["label_source"] for r in records} == {
            "blacklist", "whitelist", "hidden_for_evaluation", "none"
        }
        assert {r["pruning"]["removed_by"] for r in records} == (
            set(RULE_NAMES.values()) | {None}
        )
        # a day flushed without finalize_day writes null threshold/detected
        assert all(
            r["threshold"] is None and r["detected"] is None for r in records
        )
        assert any(
            r["features"] and "NaN" in json.dumps(r["features"]) for r in records
        )


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
