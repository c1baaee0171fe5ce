"""Multi-day deployment: track malware-control domains as they appear.

The paper's deployment mode (§IV-F) retrains Segugio on each day's traffic,
sets the detection threshold from a target false-positive rate on the
training-day benign scores, and flags the day's unknown domains.
:class:`DomainTracker` runs that loop statefully across days:

* per day it reports the *new* detections (first sighting) and the
  machines implicated,
* it maintains a ledger of every tracked domain (first/last detection day,
  sighting count, best score),
* :meth:`DomainTracker.confirmations` checks the ledger against a
  blacklist feed — how many tracked domains the feed later confirmed, and
  with what lead time (the Fig. 11 measurement, as an operational API).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import FEATURE_GROUPS, FEATURE_NAMES
from repro.core.pipeline import (
    DetectionReport,
    ObservationContext,
    Segugio,
    SegugioConfig,
)
from repro.intel.blacklist import CncBlacklist
from repro.ml.drift import feature_drift, ks_statistic, population_stability_index
from repro.ml.metrics import threshold_for_fpr
from repro.obs.logs import get_logger
from repro.obs.monitor import AlertRule, STATUS_OK, evaluate_health
from repro.obs.provenance import current_decision_log
from repro.obs.tracing import current_tracer

_log = get_logger("tracker")

#: pruning-rule volume keys compared day over day in the drift summary
_PRUNE_VOLUME_KEYS = {
    "r1": "removed_r1_machines",
    "r2": "removed_r2_machines",
    "r3": "removed_r3_domains",
    "r4": "removed_r4_domains",
}


@dataclass
class TrackedDomain:
    """Ledger entry for one detected domain."""

    name: str
    first_detected_day: int
    last_detected_day: int
    sightings: int = 1
    best_score: float = 0.0

    def update(self, day: int, score: float) -> None:
        self.last_detected_day = max(self.last_detected_day, day)
        self.sightings += 1
        self.best_score = max(self.best_score, score)


@dataclass
class DayReport:
    """What one tracked day produced."""

    day: int
    threshold: float
    n_scored: int
    new_detections: List[TrackedDomain] = field(default_factory=list)
    repeat_detections: List[str] = field(default_factory=list)
    implicated_machines: List[str] = field(default_factory=list)
    provenance: List[str] = field(default_factory=list)
    """The pre-flight health warnings in effect while this day was scored
    (``pdns_empty_window:warning``, ...: one ``check:severity`` tag per
    fault, see :func:`repro.runtime.health.check_context`); empty for a
    healthy day."""

    drift: Optional[Dict[str, object]] = None
    """Day-over-day quality summary vs the previous processed day (feature
    and score PSI/KS, pruning-volume deltas, blacklist churn) — None on the
    first day of a run, which has no reference."""

    health: Dict[str, object] = field(
        default_factory=lambda: {"status": STATUS_OK, "reasons": []}
    )
    """SLO verdict for the day (:func:`repro.obs.monitor.evaluate_health`
    over ``drift`` + degradations): ``ok``, ``warn``, or ``alert`` with the
    tripped rules as reasons."""

    runtime_events: List[Dict[str, object]] = field(default_factory=list)
    """Always empty: a day's retries are recorded after its attempt fails,
    outside the attempt, so the run's event log is where they live
    (:func:`repro.obs.monitor.run_health` assigns them to their days).
    The field stays only because the benchmark harness still reads it;
    the benchmark's next revision, which retires its
    ``runtime.supervisor.degradations`` metric, removes it."""

    def summary(self) -> str:
        degraded = (
            f" [degraded: {', '.join(self.provenance)}]"
            if self.provenance
            else ""
        )
        status = str(self.health.get("status", STATUS_OK))
        unhealthy = f" [health: {status}]" if status != STATUS_OK else ""
        return (
            f"day {self.day}: scored {self.n_scored} unknown domains, "
            f"{len(self.new_detections)} new + "
            f"{len(self.repeat_detections)} repeat detections, "
            f"{len(self.implicated_machines)} machines implicated"
            f"{degraded}{unhealthy}"
        )


@dataclass
class Confirmation:
    """A tracked domain later confirmed by a blacklist feed."""

    name: str
    detected_day: int
    blacklisted_day: int

    @property
    def lead_days(self) -> int:
        return self.blacklisted_day - self.detected_day


def calibrate_threshold(model: Segugio, fp_target: float) -> float:
    """The detection threshold for a fitted *model* (§IV-F).

    The smallest score cut that flags at most *fp_target* of the model's
    own training-day benign domains — no test ground truth is involved,
    so a deployment can set it every day.
    """
    training = model.training_set_
    benign_scores = model.classifier_.predict_proba(training.X[training.y == 0])
    return threshold_for_fpr(benign_scores, fp_target)


class DomainTracker:
    """Stateful day-by-day malware-control domain tracking."""

    def __init__(
        self,
        config: Optional[SegugioConfig] = None,
        fp_target: float = 0.001,
        telemetry=None,
        alert_rules: Optional[Sequence[AlertRule]] = None,
    ) -> None:
        if not 0 < fp_target < 1:
            raise ValueError("fp_target must be in (0, 1)")
        self.config = config if config is not None else SegugioConfig()
        self.fp_target = fp_target
        self.alert_rules: Optional[Tuple[AlertRule, ...]] = (
            tuple(alert_rules) if alert_rules is not None else None
        )
        """Deployment-tuned SLO rules for the per-day health verdict; None
        uses :data:`repro.obs.monitor.DEFAULT_ALERT_RULES` (see
        ``--alert-rules``)."""
        self.tracked: Dict[str, TrackedDomain] = {}
        self.days_processed: List[int] = []
        self.day_thresholds: Dict[int, float] = {}
        self._drift_ref: Optional[Dict[str, object]] = None
        """Previous processed day's observables (feature matrix, scores,
        blacklist snapshot, pruning volumes) — the reference the next day's
        drift summary is computed against.  Deliberately *not* part of
        :meth:`state_dict` (it holds full feature matrices and would bloat
        the checksummed payload); the checkpoint layer persists it in a
        ``.drift.npz`` sidecar instead, so a resumed run keeps its drift
        monitor armed (see :func:`repro.runtime.checkpoint.save_drift_sidecar`)."""
        self.telemetry = telemetry
        """Optional :class:`repro.obs.run.RunTelemetry`: when set, every
        :meth:`process_day` records spans and a day record
        into it, ready to be written as a run manifest."""

    # ------------------------------------------------------------------ #

    def process_day(self, context: ObservationContext) -> DayReport:
        """Train on *context*, detect, and fold results into the ledger.

        Pre-flight health warnings (stale blacklist, collector gaps,
        degenerate graph) are recorded in the returned report's
        ``provenance`` — the day still runs, but its detections carry the
        record of what was known-degraded at the time.
        """
        if self.telemetry is None:
            return self._process_day(context)
        with self.telemetry.activate():
            with self.telemetry.day_scope(context.day) as record:
                day_report = self._process_day(context)
                record.update(
                    threshold=day_report.threshold,
                    n_scored=day_report.n_scored,
                    n_new_detections=len(day_report.new_detections),
                    n_repeat_detections=len(day_report.repeat_detections),
                    n_implicated_machines=len(day_report.implicated_machines),
                    provenance=list(day_report.provenance),
                    drift=day_report.drift,
                    health=dict(day_report.health),
                )
        return day_report

    def _process_day(self, context: ObservationContext) -> DayReport:
        if self.days_processed and context.day <= self.days_processed[-1]:
            raise ValueError(
                f"days must be processed in order; got {context.day} after "
                f"{self.days_processed[-1]}"
            )
        from repro.runtime.health import check_context

        tracer = current_tracer()
        with tracer.span("segugio_tracker_health_check", day=context.day):
            health = check_context(
                context,
                activity_window=self.config.activity_window,
                pdns_window=self.config.pdns_window_days,
            )
        model = Segugio(self.config)
        # The day is graphed, labeled and pruned once; fit, calibration and
        # classify below all work on this one PreparedDay.  n_trace_rows
        # sizes the day's input on the span so the resource profile
        # (``segugio inspect``) can relate phase cost to volume.
        with tracer.span(
            "segugio_tracker_prepare",
            day=context.day,
            n_trace_rows=int(context.trace.n_edges),
        ):
            prepared = model.prepare_day(context)
        with tracer.span("segugio_tracker_fit", day=context.day):
            model.fit(context, prepared=prepared)

        with tracer.span("segugio_tracker_calibrate"):
            threshold = calibrate_threshold(model, self.fp_target)

        with tracer.span("segugio_tracker_classify", day=context.day):
            report = model.classify(context, prepared=prepared)
        current_decision_log().finalize_day(context.day, threshold)
        detections = report.detections(threshold)

        provenance = health.provenance()
        with tracer.span("segugio_tracker_quality_check", day=context.day):
            drift = self._check_quality(context, prepared.prune.stats, report)
            summary = {
                "drift": drift if drift is not None else {},
                "n_degradations": len(provenance),
            }
            day_health = (
                evaluate_health(summary)
                if self.alert_rules is None
                else evaluate_health(summary, rules=self.alert_rules)
            )
        day_report = DayReport(
            day=context.day,
            threshold=threshold,
            n_scored=len(report),
            implicated_machines=report.infected_machines(threshold),
            provenance=provenance,
            drift=drift,
            health=day_health,
        )
        with tracer.span("segugio_tracker_ledger_update", n_detections=len(detections)):
            for name, score in detections:
                entry = self.tracked.get(name)
                if entry is None:
                    entry = TrackedDomain(
                        name=name,
                        first_detected_day=context.day,
                        last_detected_day=context.day,
                        best_score=score,
                    )
                    self.tracked[name] = entry
                    day_report.new_detections.append(entry)
                else:
                    entry.update(context.day, score)
                    day_report.repeat_detections.append(name)
        self.days_processed.append(context.day)
        self.day_thresholds[context.day] = threshold

        _log.info(
            "day_processed",
            day=context.day,
            threshold=round(threshold, 6),
            n_scored=day_report.n_scored,
            n_new=len(day_report.new_detections),
            n_repeat=len(day_report.repeat_detections),
            n_machines=len(day_report.implicated_machines),
            provenance=provenance,
            health=str(day_health["status"]),
        )
        return day_report

    # ------------------------------------------------------------------ #
    # day-over-day quality monitoring
    # ------------------------------------------------------------------ #

    def _check_quality(
        self,
        context: ObservationContext,
        prune_stats: Dict[str, float],
        report: DetectionReport,
    ) -> Optional[Dict[str, object]]:
        """Drift summary for this day vs the previous processed day.

        Compares what the detector *saw* (feature distributions, pruning
        volumes, blacklist ground truth) and what it *produced* (the score
        distribution) against yesterday's snapshot, using the statistics in
        :mod:`repro.ml.drift`.  Returns None on the first day of a run, or
        on the first day after a resume whose checkpoint had no readable
        drift sidecar.  Always rotates the reference snapshot forward as a
        side effect.
        """
        snapshot: Dict[str, object] = {
            "day": context.day,
            "features": report.features,
            "scores": np.asarray(report.scores, dtype=np.float64),
            "blacklist": frozenset(context.blacklist.domains(as_of_day=context.day)),
            "prune_stats": dict(prune_stats),
            "n_scored": len(report),
        }
        reference, self._drift_ref = self._drift_ref, snapshot
        if reference is None:
            return None

        drift: Dict[str, object] = {"reference_day": int(reference["day"])}

        ref_X = reference["features"]
        cur_X = report.features
        if (
            isinstance(ref_X, np.ndarray)
            and isinstance(cur_X, np.ndarray)
            and ref_X.shape[0] > 0
            and cur_X.shape[0] > 0
        ):
            per_feature = feature_drift(ref_X, cur_X, FEATURE_NAMES)
            drift["features"] = per_feature
            worst = max(per_feature, key=lambda name: per_feature[name]["psi"])
            drift["features_max"] = {"feature": worst, **per_feature[worst]}
            drift["feature_groups"] = {
                group: {
                    "psi": max(
                        per_feature[FEATURE_NAMES[c]]["psi"] for c in columns
                    )
                }
                for group, columns in FEATURE_GROUPS.items()
            }

        ref_scores = reference["scores"]
        if ref_scores.size > 0 and report.scores.size > 0:  # type: ignore[union-attr]
            drift["score"] = {
                "psi": population_stability_index(ref_scores, report.scores),
                "ks": ks_statistic(ref_scores, report.scores),
            }

        ref_prune = reference["prune_stats"]
        pruning: Dict[str, object] = {}
        for rule, key in _PRUNE_VOLUME_KEYS.items():
            previous = float(ref_prune.get(key, 0.0))  # type: ignore[union-attr]
            current = float(prune_stats.get(key, 0.0))
            pruning[rule] = {
                "previous": previous,
                "current": current,
                "delta_pct": 100.0 * abs(current - previous) / max(previous, 1.0),
            }
        drift["pruning"] = pruning
        worst_rule = max(
            pruning, key=lambda rule: pruning[rule]["delta_pct"]  # type: ignore[index]
        )
        drift["pruning_max"] = {"rule": worst_rule, **pruning[worst_rule]}  # type: ignore[dict-item]

        ref_black = reference["blacklist"]
        cur_black = snapshot["blacklist"]
        n_added = len(cur_black - ref_black)  # type: ignore[operator]
        n_removed = len(ref_black - cur_black)  # type: ignore[operator]
        drift["labels"] = {
            "n_added": n_added,
            "n_removed": n_removed,
            "churn_pct": 100.0 * (n_added + n_removed) / max(len(ref_black), 1),  # type: ignore[arg-type]
        }

        previous_scored = int(reference["n_scored"])  # type: ignore[arg-type]
        current_scored = len(report)
        drift["volume"] = {
            "previous_scored": previous_scored,
            "current_scored": current_scored,
            "delta_pct_abs": 100.0
            * abs(current_scored - previous_scored)
            / max(previous_scored, 1),
        }
        return drift

    # ------------------------------------------------------------------ #

    def confirmations(
        self, blacklist: CncBlacklist, horizon: Optional[int] = None
    ) -> List[Confirmation]:
        """Tracked domains the feed confirmed *after* we detected them.

        ``horizon`` caps the considered lead time in days (Fig. 11 uses 35).
        """
        confirmed: List[Confirmation] = []
        for entry in self.tracked.values():
            added = blacklist.added_day(entry.name)
            if added is None or added <= entry.first_detected_day:
                continue
            lead = added - entry.first_detected_day
            if horizon is not None and lead > horizon:
                continue
            confirmed.append(
                Confirmation(
                    name=entry.name,
                    detected_day=entry.first_detected_day,
                    blacklisted_day=added,
                )
            )
        return sorted(confirmed, key=lambda c: (c.detected_day, c.name))

    # ------------------------------------------------------------------ #
    # checkpoint / resume (see repro.runtime.checkpoint)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the tracker's mutable state.

        Captures everything :meth:`process_day` mutates — the ledger, the
        processed-day cursor, and per-day thresholds — so that
        ``from_state(state_dict())`` continues a run to a bit-identical
        ledger.  The (immutable) config and fp_target are serialized by the
        checkpoint layer alongside this state.  The drift reference
        (``_drift_ref``) is deliberately excluded: it holds full feature
        matrices, and the ledger stays bit-identical without it.  It is
        persisted separately in a best-effort ``.drift.npz`` sidecar
        (:mod:`repro.runtime.checkpoint`) so resumed runs keep their drift
        monitor armed; a missing or corrupt sidecar only costs the first
        post-resume drift summary, never the ledger.
        """
        return {
            "fp_target": self.fp_target,
            "days_processed": list(self.days_processed),
            "day_thresholds": {
                str(day): threshold
                for day, threshold in sorted(self.day_thresholds.items())
            },
            "tracked": [
                {
                    "name": entry.name,
                    "first_detected_day": entry.first_detected_day,
                    "last_detected_day": entry.last_detected_day,
                    "sightings": entry.sightings,
                    "best_score": entry.best_score,
                }
                for entry in sorted(
                    self.tracked.values(), key=lambda e: e.name
                )
            ],
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, object],
        config: Optional[SegugioConfig] = None,
    ) -> "DomainTracker":
        """Rebuild a tracker from :meth:`state_dict` output."""
        tracker = cls(config=config, fp_target=float(state["fp_target"]))
        tracker.days_processed = [int(d) for d in state["days_processed"]]
        tracker.day_thresholds = {
            int(day): float(threshold)
            for day, threshold in state["day_thresholds"].items()
        }
        for row in state["tracked"]:
            entry = TrackedDomain(
                name=str(row["name"]),
                first_detected_day=int(row["first_detected_day"]),
                last_detected_day=int(row["last_detected_day"]),
                sightings=int(row["sightings"]),
                best_score=float(row["best_score"]),
            )
            tracker.tracked[entry.name] = entry
        return tracker

    def drift_reference(self) -> Optional[Dict[str, object]]:
        """The previous day's drift-monitor reference (sidecar payload)."""
        return self._drift_ref

    def restore_drift_reference(
        self, reference: Optional[Dict[str, object]]
    ) -> None:
        """Re-arm the day-over-day drift monitor (checkpoint-resume path)."""
        self._drift_ref = reference

    def save_checkpoint(self, path: str) -> None:
        """Write a checksummed checkpoint (atomic write-then-rename)."""
        from repro.runtime.checkpoint import save_checkpoint

        save_checkpoint(self, path)

    @classmethod
    def resume(cls, path: str) -> "DomainTracker":
        """Load a checkpoint written by :meth:`save_checkpoint`.

        Raises :class:`repro.utils.errors.CheckpointError` for corrupted,
        truncated, or version-incompatible checkpoints.
        """
        from repro.runtime.checkpoint import resume_tracker

        return resume_tracker(path)

    def persistent_domains(self, min_sightings: int = 2) -> List[TrackedDomain]:
        """Domains detected on several days (stable C&C, prime takedown
        candidates)."""
        return sorted(
            (e for e in self.tracked.values() if e.sightings >= min_sightings),
            key=lambda e: -e.sightings,
        )

    def __len__(self) -> int:
        return len(self.tracked)

    def __repr__(self) -> str:
        return (
            f"DomainTracker(days={len(self.days_processed)}, "
            f"tracked={len(self.tracked)})"
        )
