"""Declarative SLO-style health rules for day-over-day tracker quality.

The tracker computes a per-day *drift summary* (feature/score PSI+KS,
pruning-volume deltas, blacklist label churn — numbers only, produced in
:mod:`repro.core.tracker` from :mod:`repro.ml.drift`) and hands it to this
module as a plain mapping.  :func:`evaluate_health` walks a set of
:class:`AlertRule` thresholds over that mapping and folds the violations
into a single ``{"status": ok|warn|alert, "reasons": [...]}`` verdict that
lands in the day record and, aggregated by :func:`run_health`, at the top
of the run manifest.

Rules are *data*, not code: each one names a dotted path into the day
summary plus a warn and an alert threshold.  Missing paths are skipped
(a first day has no drift reference — it must stay ``ok``), so the same
rule set applies to every day unconditionally.  Custom rule sets can be
built from plain dicts via :func:`rules_from_dicts`.

Zero-dependency and deterministic, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

STATUS_OK = "ok"
STATUS_WARN = "warn"
STATUS_ALERT = "alert"

_STATUS_RANK = {STATUS_OK: 0, STATUS_WARN: 1, STATUS_ALERT: 2}


@dataclass(frozen=True)
class AlertRule:
    """One threshold check against a dotted path in the day summary.

    The value at *path* trips ``warn`` at >= ``warn`` and ``alert`` at
    >= ``alert``; either threshold may be ``None`` to disable that level.
    ``description`` says what a violation *means* operationally — it is
    echoed into the health reasons so an alert is self-explanatory.
    """

    name: str
    path: str
    warn: Optional[float]
    alert: Optional[float]
    description: str

    def __post_init__(self) -> None:
        if self.warn is None and self.alert is None:
            raise ValueError(f"rule {self.name!r} has no thresholds")
        if (
            self.warn is not None
            and self.alert is not None
            and self.alert < self.warn
        ):
            raise ValueError(
                f"rule {self.name!r}: alert threshold below warn threshold"
            )

    def evaluate(self, summary: Mapping[str, object]) -> Optional[Dict[str, object]]:
        """The violation dict for *summary*, or None when quiet/missing."""
        value = lookup_path(summary, self.path)
        if value is None:
            return None
        try:
            value = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        status = STATUS_OK
        threshold: Optional[float] = None
        if self.alert is not None and value >= self.alert:
            status, threshold = STATUS_ALERT, self.alert
        elif self.warn is not None and value >= self.warn:
            status, threshold = STATUS_WARN, self.warn
        if status == STATUS_OK:
            return None
        return {
            "rule": self.name,
            "status": status,
            "path": self.path,
            "value": value,
            "threshold": threshold,
            "message": (
                f"{self.name}: {self.description} "
                f"({self.path}={value:.4g} >= {threshold:.4g})"
            ),
        }


#: Default SLO rule set.  The classic scorecard PSI thresholds (0.10
#: watch / 0.25 retrain, mirrored in repro.ml.drift) assume a *fixed*
#: model scoring a stable population; a Segugio tracker retrains daily,
#: so consecutive days legitimately differ by the retraining noise —
#: empirically up to PSI ~1.0 / KS ~0.4 on the small synthetic scenario.
#: The defaults sit above that noise floor: they flag step changes in the
#: environment (feed swaps, collector outages, traffic regime shifts),
#: not day-to-day model wobble.
DEFAULT_ALERT_RULES: Tuple[AlertRule, ...] = (
    AlertRule(
        name="score_psi",
        path="drift.score.psi",
        warn=1.20,
        alert=2.00,
        description="malware-score distribution shifted vs the previous day",
    ),
    AlertRule(
        name="score_ks",
        path="drift.score.ks",
        warn=0.45,
        alert=0.70,
        description="malware-score CDF gap vs the previous day",
    ),
    AlertRule(
        name="feature_psi",
        path="drift.features_max.psi",
        warn=0.50,
        alert=1.00,
        description="a feature's input distribution shifted vs the previous day",
    ),
    AlertRule(
        name="pruning_volume",
        path="drift.pruning_max.delta_pct",
        warn=75.0,
        alert=200.0,
        description="a pruning rule's removal volume jumped vs the previous day",
    ),
    AlertRule(
        name="label_churn",
        path="drift.labels.churn_pct",
        warn=25.0,
        alert=60.0,
        description="blacklist ground truth churned vs the previous day",
    ),
    AlertRule(
        name="scored_volume",
        path="drift.volume.delta_pct_abs",
        warn=60.0,
        alert=90.0,
        description="the number of scored domains swung vs the previous day",
    ),
    AlertRule(
        name="degraded_inputs",
        path="n_degradations",
        warn=1.0,
        alert=None,
        description="the day ran on degraded inputs (see provenance tags)",
    ),
)

#: The run-level rule over the runtime event log, counted per day by
#: :func:`run_health`: a day's retries are recorded after its attempt
#: failed, outside every day summary, so no per-day rule can see them.
SUPERVISOR_DEGRADED = AlertRule(
    name="supervisor_degraded",
    path="runtime_events",
    warn=1.0,
    alert=4.0,
    description=(
        "the runtime retried while computing the day "
        "(a day retry or a checkpoint-write retry)"
    ),
)


def lookup_path(summary: Mapping[str, object], path: str) -> Optional[object]:
    """Resolve a dotted *path* through nested mappings (None if absent)."""
    node: object = summary
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def worst_status(statuses: Iterable[str]) -> str:
    """The most severe status present (``ok`` for an empty iterable)."""
    worst = STATUS_OK
    for status in statuses:
        if _STATUS_RANK.get(status, 0) > _STATUS_RANK[worst]:
            worst = status
    return worst


def evaluate_health(
    summary: Mapping[str, object],
    rules: Sequence[AlertRule] = DEFAULT_ALERT_RULES,
) -> Dict[str, object]:
    """Fold *rules* over one day's summary into a health verdict.

    Returns ``{"status": ..., "reasons": [...]}`` where each reason is a
    rule violation dict (see :meth:`AlertRule.evaluate`).  A day with no
    drift reference (first day, resume) trips nothing and stays ``ok``.
    """
    reasons = [
        violation
        for rule in rules
        if (violation := rule.evaluate(summary)) is not None
    ]
    status = worst_status(str(r["status"]) for r in reasons)
    return {"status": status, "reasons": reasons}


def run_health(
    day_records: Sequence[Mapping[str, object]],
    runtime_events: Sequence[Mapping[str, object]] = (),
) -> Dict[str, object]:
    """Aggregate per-day health verdicts into the run-level manifest entry.

    The run is as healthy as its worst day; reasons are flattened with the
    day number attached so the manifest is readable without the day table.
    ``runtime_events`` is the run's event log (day retries, checkpoint-write
    retries): grouped by each event's ``day``, every day with one adds a
    :data:`SUPERVISOR_DEGRADED` reason, so a retried-then-succeeded day
    cannot look clean.  An event without a day is reported under ``day:
    None``.
    """
    statuses: List[str] = []
    reasons: List[Dict[str, object]] = []
    for record in day_records:
        health = record.get("health")
        if not isinstance(health, Mapping):
            continue
        statuses.append(str(health.get("status", STATUS_OK)))
        for reason in health.get("reasons", ()):  # type: ignore[union-attr]
            if isinstance(reason, Mapping):
                reasons.append({"day": record.get("day"), **reason})
    per_day = Counter(event.get("day") for event in runtime_events)
    for day, n_events in per_day.items():
        violation = SUPERVISOR_DEGRADED.evaluate({"runtime_events": n_events})
        if violation is not None:
            statuses.append(str(violation["status"]))
            reasons.append({"day": day, **violation})
    return {"status": worst_status(statuses), "reasons": reasons}


def rules_from_dicts(
    specs: Iterable[Mapping[str, object]]
) -> Tuple[AlertRule, ...]:
    """Build a rule set from plain dicts (e.g. parsed from JSON)."""
    rules = []
    for spec in specs:
        rules.append(
            AlertRule(
                name=str(spec["name"]),
                path=str(spec["path"]),
                warn=None if spec.get("warn") is None else float(spec["warn"]),  # type: ignore[arg-type]
                alert=None if spec.get("alert") is None else float(spec["alert"]),  # type: ignore[arg-type]
                description=str(spec.get("description", "")),
            )
        )
    return tuple(rules)


class AlertRuleError(ValueError):
    """An alert-rules file that cannot be parsed or validated."""


_RULE_KEYS = frozenset({"name", "path", "warn", "alert", "description"})


def load_alert_rules(path: str) -> Tuple[AlertRule, ...]:
    """Load a deployment rule set from JSON, with located validation errors.

    Accepts either a bare list of rule objects or ``{"rules": [...]}``;
    every error names the file and the offending rule index so a bad spec
    is fixable from the message alone (``rules.json: rules[2] (score_psi):
    alert threshold below warn threshold``).
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except OSError as error:
        raise AlertRuleError(f"{path}: cannot read alert rules: {error}") from error
    except json.JSONDecodeError as error:
        raise AlertRuleError(f"{path}: invalid JSON: {error}") from error
    if isinstance(payload, Mapping):
        extra = sorted(set(payload) - {"rules"})
        if extra or "rules" not in payload:
            raise AlertRuleError(
                f"{path}: expected a list of rule objects or {{\"rules\": [...]}}"
            )
        payload = payload["rules"]
    if not isinstance(payload, list):
        raise AlertRuleError(
            f"{path}: expected a list of rule objects, got {type(payload).__name__}"
        )
    if not payload:
        raise AlertRuleError(f"{path}: no alert rules defined")
    rules: List[AlertRule] = []
    for index, spec in enumerate(payload):
        if not isinstance(spec, Mapping):
            raise AlertRuleError(
                f"{path}: rules[{index}]: expected an object, "
                f"got {type(spec).__name__}"
            )
        where = f"{path}: rules[{index}]"
        if isinstance(spec.get("name"), str):
            where = f"{where} ({spec['name']})"
        unknown = sorted(set(spec) - _RULE_KEYS)
        if unknown:
            raise AlertRuleError(f"{where}: unknown keys {unknown}")
        missing = sorted({"name", "path"} - set(spec))
        if missing:
            raise AlertRuleError(f"{where}: missing required keys {missing}")
        try:
            rules.extend(rules_from_dicts([spec]))
        except (TypeError, ValueError) as error:
            raise AlertRuleError(f"{where}: {error}") from error
    return tuple(rules)
