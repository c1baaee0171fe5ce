"""The ``segugio chaos`` harness: prove the fault-tolerance claims, don't hope.

Runs the same multi-day tracking campaign twice over one synthetic world:

* a **baseline** run — serial, fault-free, the reference bytes;
* a **chaos** run — parallel, under an injected :class:`FaultPlan`
  (:mod:`repro.runtime.faults`), supervised by the degradation ladder
  (:mod:`repro.runtime.supervisor`), checkpointed after every day, and
  optionally "crashed" after a chosen day and resumed from its checkpoint
  (which exercises the drift-monitor sidecar restore path).

Then it asserts the paper-level invariants the robustness layer promises:

1. the campaign **completes** — every scheduled day produced a report;
2. the tracker ledger is **bit-identical** to the baseline's;
3. per-day detection **thresholds** and **detections** are identical;
4. the final **checkpoint is intact** (checksum-valid and resumable to the
   same state — a torn write must never survive the atomic-rename layer);
5. every injected fault left **degradation provenance** in the run
   manifest, and the run's **health verdict reflects** it;
6. the day-over-day **drift monitor stayed armed** across faults and
   resume — chaos drift summaries match the baseline's.

Degradation may only ever cost wall-clock, never bytes; any divergence is
an invariant failure, the report says which one, and ``segugio chaos``
exits nonzero.  Everything is deterministic: the same plan, seed, and
scenario always fire the same faults and produce the same verdict.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import SegugioConfig
from repro.core.tracker import DayReport, DomainTracker
from repro.obs.manifest import TelemetryRun
from repro.obs.monitor import STATUS_OK, AlertRule
from repro.obs.run import RunTelemetry
from repro.runtime.checkpoint import config_to_dict
from repro.runtime.faults import FaultPlan, plan_from_dict, use_fault_plan
from repro.runtime.supervisor import (
    SupervisorPolicy,
    policy_from_overrides,
    track_days,
    world_days,
)
from repro.synth.scenario import Scenario
from repro.utils.errors import CheckpointError

#: canned plan used when ``segugio chaos`` is run without ``--plan`` (and
#: mirrored by ``examples/fault-plan.json``): one worker killed mid-fit,
#: one transient I/O error failing a whole day's fit, and one torn
#: checkpoint write.  Fast to run, touches all three recovery layers
#: (ladder, day retry, atomic checkpoint write).
DEFAULT_CHAOS_PLAN: Dict[str, object] = {
    "seed": 0,
    "policy": {"base_delay": 0.01, "max_retries": 1},
    "faults": [
        {"kind": "worker_kill", "site": "forest_fit", "task": 0},
        {"kind": "io_error", "site": "pipeline_fit", "count": 1},
        {"kind": "corrupt_intermediate", "site": "checkpoint_save", "count": 1},
    ],
}

CHECKPOINT_FILENAME = "chaos.ckpt"


@dataclass(frozen=True)
class Invariant:
    """One verified chaos invariant: what was promised, and whether it held."""

    name: str
    passed: bool
    detail: str


@dataclass
class ChaosReport:
    """The chaos run's verdict: invariants, fired faults, degradations."""

    n_days: int
    invariants: List[Invariant] = field(default_factory=list)
    fired: List[Dict[str, object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    manifest_path: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(invariant.passed for invariant in self.invariants)

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            kind = str(event.get("kind", "?"))
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"segugio chaos — {self.n_days} day(s), "
            f"{len(self.fired)} fault(s) fired, "
            f"{len(self.events)} degradation event(s): {verdict}"
        ]
        if self.fired:
            lines.append("faults fired:")
            for entry in self.fired:
                site = entry.get("site", "?")
                task = entry.get("task")
                where = f"{site}[{task}]" if task is not None else str(site)
                lines.append(f"  {entry.get('kind', '?')} at {where}")
        counts = self.event_counts()
        if counts:
            lines.append("degradation events:")
            for kind in sorted(counts):
                lines.append(f"  {kind}: {counts[kind]}")
        lines.append("invariants:")
        for invariant in self.invariants:
            mark = "[+]" if invariant.passed else "[x]"
            lines.append(f"  {mark} {invariant.name}: {invariant.detail}")
        if self.manifest_path:
            lines.append(f"run manifest: {self.manifest_path}")
        return "\n".join(lines)


def _day_fingerprint(report: DayReport) -> Dict[str, object]:
    """The per-day outputs the bit-identity invariants compare."""
    return {
        "day": int(report.day),
        "threshold": float(report.threshold),
        "n_scored": int(report.n_scored),
        "new": sorted(entry.name for entry in report.new_detections),
        "repeat": sorted(report.repeat_detections),
    }


def _drift_equal(
    left: Optional[Dict[str, object]], right: Optional[Dict[str, object]]
) -> bool:
    """Exact equality for drift-monitor references (numpy-array aware)."""
    if left is None or right is None:
        return left is right
    if set(left) != set(right):
        return False
    for key in left:
        a, b = left[key], right[key]
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not (
                isinstance(a, np.ndarray)
                and isinstance(b, np.ndarray)
                and a.shape == b.shape
                and np.array_equal(a, b)
            ):
                return False
        elif a != b:
            return False
    return True


def run_chaos(
    plan: Optional[FaultPlan] = None,
    *,
    out_dir: str,
    scale: str = "small",
    seed: int = 7,
    isp: str = "isp1",
    days: int = 3,
    jobs: int = 2,
    estimators: int = 24,
    fp_target: float = 0.01,
    kill_day_offset: Optional[int] = None,
    policy: Optional[SupervisorPolicy] = None,
    alert_rules: Optional[Sequence[AlertRule]] = None,
    profile: bool = False,
) -> ChaosReport:
    """Run the chaos scenario and verify every invariant; never raises on
    a mere invariant failure — the report carries the verdict.

    ``kill_day_offset`` simulates a coordinator crash *after* that day's
    checkpoint: the tracker object is discarded and resumed from disk,
    which must restore both the ledger and the drift-monitor sidecar.
    ``estimators`` should be >= 17 so the parallel predict path has more
    than one tree chunk and ``forest_predict`` fault sites can fire.
    ``profile`` turns on resource accounting for the chaos run: the
    manifest gains its additive ``resources`` key and the bit-identity
    invariants then double as proof that profiling perturbs nothing.
    """
    if plan is None:
        plan = plan_from_dict(DEFAULT_CHAOS_PLAN, source="<default chaos plan>")
    base = SupervisorPolicy(base_delay=0.01)
    if policy is None:
        policy = policy_from_overrides(plan.policy, base=base)

    contexts = list(world_days(Scenario.at_scale(scale, seed), days, isp=isp))

    # --- baseline: serial, fault-free ---------------------------------- #
    baseline = DomainTracker(
        config=SegugioConfig(n_estimators=estimators, n_jobs=1),
        fp_target=fp_target,
        alert_rules=alert_rules,
    )
    baseline_days = [_day_fingerprint(baseline.process_day(ctx)) for ctx in contexts]
    baseline_drift = baseline.drift_reference()

    # --- chaos: parallel, faulted, checkpointed, optionally resumed ---- #
    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, CHECKPOINT_FILENAME)
    config = SegugioConfig(n_estimators=estimators, n_jobs=jobs)
    telemetry = RunTelemetry(
        command="chaos", config=config_to_dict(config), profile=profile
    )
    tracker = DomainTracker(
        config=config,
        fp_target=fp_target,
        telemetry=telemetry,
        alert_rules=alert_rules,
    )
    chaos_days: List[Dict[str, object]] = []
    resume_error: Optional[str] = None
    with use_fault_plan(plan):
        while True:
            # the runner skips what the ledger covers, so the segment after
            # a crash is the same call over the same days
            for report in track_days(
                tracker, contexts, policy=policy, checkpoint=checkpoint_path
            ):
                chaos_days.append(_day_fingerprint(report))
                if len(chaos_days) - 1 == kill_day_offset:
                    break
            else:
                break
            # simulated coordinator crash: forget the live tracker and
            # come back from the bytes on disk (ledger + drift sidecar)
            try:
                tracker = DomainTracker.resume(checkpoint_path)
            except CheckpointError as error:
                resume_error = str(error)
                break
            tracker.telemetry = telemetry
    manifest_path, _ = telemetry.write(out_dir)
    run = TelemetryRun.open(out_dir)

    # --- invariants ---------------------------------------------------- #
    report_out = ChaosReport(
        n_days=days,
        fired=list(plan.fired),
        events=telemetry.events.to_list(),
        manifest_path=manifest_path,
    )
    add = report_out.invariants.append

    completed = resume_error is None and len(chaos_days) == len(contexts)
    add(
        Invariant(
            "completes",
            completed,
            f"{len(chaos_days)}/{len(contexts)} day(s) processed"
            + (f"; resume failed: {resume_error}" if resume_error else ""),
        )
    )

    ledger_same = tracker.state_dict() == baseline.state_dict()
    add(
        Invariant(
            "ledger_bit_identical",
            completed and ledger_same,
            "chaos ledger == serial fault-free ledger"
            if ledger_same
            else "chaos tracker state diverged from the baseline",
        )
    )

    diverged = [
        str(b["day"]) for b, c in zip(baseline_days, chaos_days) if b != c
    ]
    add(
        Invariant(
            "outputs_bit_identical",
            completed and not diverged,
            "per-day thresholds and detections identical"
            if not diverged
            else f"day(s) {', '.join(diverged)} diverged from the baseline",
        )
    )

    try:
        restored = DomainTracker.resume(checkpoint_path)
        ckpt_ok = restored.state_dict() == tracker.state_dict()
        ckpt_detail = (
            "final checkpoint checksum-valid and resumes to the same state"
            if ckpt_ok
            else "resumed checkpoint state differs from the live tracker"
        )
    except (CheckpointError, OSError) as error:
        ckpt_ok, ckpt_detail = False, f"checkpoint unusable: {error}"
    add(Invariant("checkpoint_intact", ckpt_ok, ckpt_detail))

    fired_ok = plan.n_fired > 0 or not plan.specs
    add(
        Invariant(
            "faults_fired",
            fired_ok,
            f"{plan.n_fired} fault(s) fired ({', '.join(plan.fired_kinds()) or 'none'})"
            if fired_ok
            else "plan has fault specs but none fired — nothing was exercised",
        )
    )

    if plan.n_fired:
        recorded = bool(run.runtime_events)
        add(
            Invariant(
                "degradations_recorded",
                recorded,
                f"{len(report_out.events)} degradation event(s) in the manifest"
                if recorded
                else "faults fired but the manifest records no degradation events",
            )
        )
        status = run.health.get("status")
        add(
            Invariant(
                "health_reflects_degradation",
                status is not None and status != STATUS_OK,
                f"run health is {status!r}"
                + ("" if status != STATUS_OK else " despite fired faults"),
            )
        )

    drift_ok = completed and _drift_equal(tracker.drift_reference(), baseline_drift)
    add(
        Invariant(
            "drift_monitor_continuity",
            drift_ok,
            "drift reference identical to the baseline's after faults"
            + (" and resume" if kill_day_offset is not None else "")
            if drift_ok
            else "drift-monitor reference diverged (or was lost) under chaos",
        )
    )

    if profile:
        add(_worker_span_invariant(run, completed))
    return report_out


def _worker_span_invariant(run: TelemetryRun, completed: bool) -> Invariant:
    """Worker spans survive faults or are cleanly quarantined.

    A profiled chaos run must account for every supervised pool task: the
    attempt that completed each task contributes exactly one merged
    ``segugio_worker_task`` span (so merged span count == the pool's task
    count, per label), nothing goes missing, and any quarantined sidecar
    record (a retried attempt's spill, e.g. after ``worker_kill`` broke
    the pool mid-round) is surfaced in run health as the
    ``worker_spans_quarantined`` warning — degraded observability is
    reported, never silent (DESIGN.md §15).
    """
    counts = run.worker_accounting()
    n_spans, n_merged = counts["n_worker_spans"], counts["n_merged"]
    n_quarantined, n_missing = counts["n_quarantined"], counts["n_missing"]
    accounted = n_spans == n_merged and counts["merged_per_label"]
    loss_flagged = any(
        reason.get("rule") == "worker_spans_quarantined"
        for reason in run.health["reasons"]
    )
    ok = (
        completed
        and n_merged > 0
        and accounted
        and n_missing == 0
        and (n_quarantined == 0 or loss_flagged)
    )
    detail = (
        f"{n_spans} worker span(s) merged, {n_quarantined} quarantined, "
        f"{n_missing} missing"
        + (
            "; quarantine surfaced in run health"
            if n_quarantined and loss_flagged
            else ""
        )
    )
    if not ok:
        if not accounted:
            detail += "; merged span count disagrees with pool task accounting"
        if n_missing:
            detail += "; completed task(s) lost their sidecar record"
        if n_quarantined and not loss_flagged:
            detail += "; quarantine not reflected in run health"
    return Invariant("worker_spans_accounted", ok, detail)
