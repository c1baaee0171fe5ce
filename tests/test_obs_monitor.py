"""Health rules: unit semantics plus the seeded drift scenario.

The integration class is the acceptance test for the alert pipeline: a
tracker fed consecutive days of the *same* world stays ``ok`` (the rules
sit above the daily-retraining noise floor), and a seeded environment
break — swapping in a different synthetic world mid-run, i.e. a feed/
collector replacement — flips the day and the run manifest to ``alert``
with the exact rules that describe what changed.
"""

import pytest

from repro.core.tracker import DomainTracker
from repro.obs.monitor import (
    DEFAULT_ALERT_RULES,
    STATUS_ALERT,
    STATUS_OK,
    STATUS_WARN,
    AlertRule,
    evaluate_health,
    lookup_path,
    run_health,
    rules_from_dicts,
    worst_status,
)
from repro.synth.scenario import Scenario


class TestAlertRuleUnit:
    RULE = AlertRule(
        name="r", path="drift.score.psi", warn=1.0, alert=2.0, description="d"
    )

    def test_quiet_below_warn(self):
        assert self.RULE.evaluate({"drift": {"score": {"psi": 0.5}}}) is None

    def test_warn_band(self):
        violation = self.RULE.evaluate({"drift": {"score": {"psi": 1.5}}})
        assert violation["status"] == STATUS_WARN
        assert violation["threshold"] == 1.0
        assert "drift.score.psi=1.5" in violation["message"]

    def test_alert_at_threshold(self):
        violation = self.RULE.evaluate({"drift": {"score": {"psi": 2.0}}})
        assert violation["status"] == STATUS_ALERT
        assert violation["threshold"] == 2.0

    def test_missing_path_is_skipped(self):
        assert self.RULE.evaluate({}) is None
        assert self.RULE.evaluate({"drift": {}}) is None

    def test_non_numeric_value_is_skipped(self):
        assert self.RULE.evaluate({"drift": {"score": {"psi": "n/a"}}}) is None

    def test_warn_only_rule(self):
        rule = AlertRule(name="r", path="x", warn=1.0, alert=None, description="d")
        assert rule.evaluate({"x": 99.0})["status"] == STATUS_WARN

    def test_thresholdless_rule_rejected(self):
        with pytest.raises(ValueError, match="no thresholds"):
            AlertRule(name="r", path="x", warn=None, alert=None, description="d")

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError, match="below warn"):
            AlertRule(name="r", path="x", warn=2.0, alert=1.0, description="d")


class TestHealthFolding:
    def test_worst_status(self):
        assert worst_status([]) == STATUS_OK
        assert worst_status(["ok", "warn", "ok"]) == STATUS_WARN
        assert worst_status(["warn", "alert"]) == STATUS_ALERT

    def test_lookup_path(self):
        assert lookup_path({"a": {"b": 3}}, "a.b") == 3
        assert lookup_path({"a": {"b": 3}}, "a.c") is None
        assert lookup_path({"a": 1}, "a.b") is None

    def test_empty_summary_is_ok(self):
        assert evaluate_health({}) == {"status": STATUS_OK, "reasons": []}

    def test_default_rules_trip_on_a_step_change(self):
        health = evaluate_health(
            {"drift": {"score": {"psi": 5.0, "ks": 0.9}}, "n_degradations": 0}
        )
        assert health["status"] == STATUS_ALERT
        assert {r["rule"] for r in health["reasons"]} == {"score_psi", "score_ks"}

    def test_degraded_inputs_warn(self):
        health = evaluate_health({"n_degradations": 1})
        assert health["status"] == STATUS_WARN
        assert health["reasons"][0]["rule"] == "degraded_inputs"

    def test_run_health_is_worst_day_with_day_tagged_reasons(self):
        days = [
            {"day": 1, "health": {"status": "ok", "reasons": []}},
            {
                "day": 2,
                "health": {
                    "status": "alert",
                    "reasons": [{"rule": "score_psi", "status": "alert"}],
                },
            },
        ]
        health = run_health(days)
        assert health["status"] == STATUS_ALERT
        assert health["reasons"] == [
            {"day": 2, "rule": "score_psi", "status": "alert"}
        ]
        # runtime events are counted per day: warn at one, alert at four
        events = [{"kind": "day_retry", "day": 1}] * 4 + [
            {"kind": "io_retry", "day": 2}
        ]
        health = run_health(days[:1], events)
        assert health["status"] == STATUS_ALERT
        assert [
            (r["day"], r["rule"], r["status"], r["value"])
            for r in health["reasons"]
        ] == [
            (1, "supervisor_degraded", "alert", 4.0),
            (2, "supervisor_degraded", "warn", 1.0),
        ]

    def test_rules_from_dicts(self):
        (rule,) = rules_from_dicts(
            [{"name": "n", "path": "p.q", "warn": 1, "alert": None}]
        )
        assert rule == AlertRule(
            name="n", path="p.q", warn=1.0, alert=None, description=""
        )

    def test_default_rules_cover_every_drift_channel(self):
        paths = {rule.path for rule in DEFAULT_ALERT_RULES}
        for prefix in ("drift.score", "drift.features_max", "drift.pruning_max",
                       "drift.labels", "drift.volume"):
            assert any(p.startswith(prefix) for p in paths), prefix


@pytest.fixture(scope="module")
def drifted_run():
    """Two quiet days of one world, then a day from a *different* world.

    Swapping the scenario mid-run models an environment break (collector
    replacement / feed swap): the domain population, the blacklist, and
    the traffic mix all change at once while day numbers stay monotonic.
    """
    baseline = Scenario.small(seed=7)
    swapped = Scenario.small(seed=101)
    tracker = DomainTracker()
    quiet = [
        tracker.process_day(baseline.context("isp1", baseline.eval_day(i)))
        for i in range(2)
    ]
    broken = tracker.process_day(swapped.context("isp1", swapped.eval_day(2)))
    return quiet, broken


class TestSeededDriftScenario:
    def test_first_day_has_no_drift_reference(self, drifted_run):
        quiet, _ = drifted_run
        assert quiet[0].drift is None
        assert quiet[0].health == {"status": STATUS_OK, "reasons": []}

    def test_quiet_baseline_day_stays_ok(self, drifted_run):
        quiet, _ = drifted_run
        day2 = quiet[1]
        assert day2.drift is not None
        assert day2.health["status"] == STATUS_OK
        assert day2.health["reasons"] == []
        # the drift summary is populated even when nothing trips
        assert day2.drift["score"]["psi"] >= 0.0
        assert 0.0 <= day2.drift["score"]["ks"] <= 1.0
        assert day2.drift["reference_day"] == quiet[0].day

    def test_environment_break_flips_to_alert(self, drifted_run):
        _, broken = drifted_run
        assert broken.health["status"] == STATUS_ALERT
        tripped = {r["rule"]: r["status"] for r in broken.health["reasons"]}
        # the whole ground-truth population changed -> full label churn
        assert tripped["label_churn"] == STATUS_ALERT
        assert broken.drift["labels"]["churn_pct"] > 60.0

    def test_alert_reasons_are_self_describing(self, drifted_run):
        _, broken = drifted_run
        for reason in broken.health["reasons"]:
            assert reason["value"] >= reason["threshold"]
            assert reason["path"]
            assert reason["rule"] in reason["message"]

    def test_summary_line_carries_the_health_flag(self, drifted_run):
        quiet, broken = drifted_run
        assert "[health: alert]" in broken.summary()
        assert "[health:" not in quiet[1].summary()
