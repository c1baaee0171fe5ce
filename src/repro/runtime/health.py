"""Pre-flight health checks over an observation day.

``segugio health`` (and :meth:`DomainTracker.process_day`) run these checks
before committing a day's compute.  Each check yields a
:class:`HealthFinding` with a severity and a *decision* — the documented
way the pipeline degrades (or aborts) under that fault:

========================  ========  =========================================
check                     severity  decision
========================  ========  =========================================
``blacklist_empty``       critical  training aborts (no malware ground truth)
``blacklist_unpublished`` critical  no entries published by the observation
                                    day: training aborts
``blacklist_stale``       warning   train on old ground truth; new families
                                    surface only through behavior features
``whitelist_empty``       critical  training aborts (no benign ground truth)
``blacklist_coverage``    critical  feed has entries but none appear in the
                                    trace: training aborts
``pdns_empty_window``     warning   F3 (IP-abuse) features fall back to zero
``activity_gaps``         warning   F2 (activity) features undercount on the
                                    missing days
``activity_empty``        warning   F2 features fall back to zero
``e2ld_activity_empty``   warning   F2 e2LD activity features fall back to
                                    zero
``graph_empty``           critical  no edges: nothing to build, fit aborts
``graph_degenerate``      warning   fewer than 2 machines or 2 domains:
                                    machine-behavior features are meaningless
========================  ========  =========================================

Warnings degrade with provenance: :meth:`HealthReport.provenance` tags
each one ``check:severity`` once, and those tags are the tracked day's
``DayReport.provenance``.  Criticals are faults the pipeline refuses to
paper over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.features import DEFAULT_ACTIVITY_WINDOW
from repro.core.pipeline import DEFAULT_PDNS_WINDOW_DAYS, ObservationContext
from repro.obs.logs import get_logger

_log = get_logger("health")

OK = "ok"
WARNING = "warning"
CRITICAL = "critical"

_SEVERITY_RANK = {OK: 0, WARNING: 1, CRITICAL: 2}

DEFAULT_BLACKLIST_STALE_DAYS = 30


@dataclass(frozen=True)
class HealthFinding:
    """Outcome of one health check."""

    check: str
    severity: str
    message: str
    decision: str

    def __str__(self) -> str:
        return f"[{self.severity.upper():8s}] {self.check}: {self.message} -> {self.decision}"


@dataclass
class HealthReport:
    """All findings for one observation day."""

    day: int
    findings: List[HealthFinding] = field(default_factory=list)

    @property
    def worst(self) -> str:
        if not self.findings:
            return OK
        return max(self.findings, key=lambda f: _SEVERITY_RANK[f.severity]).severity

    @property
    def ok(self) -> bool:
        return self.worst != CRITICAL

    def warnings(self) -> List[HealthFinding]:
        return [f for f in self.findings if f.severity == WARNING]

    def criticals(self) -> List[HealthFinding]:
        return [f for f in self.findings if f.severity == CRITICAL]

    def provenance(self) -> List[str]:
        """Compact ``check:severity`` tags for threading into day reports."""
        return [
            f"{f.check}:{f.severity}"
            for f in self.findings
            if f.severity != OK
        ]

    def raise_for_critical(self) -> None:
        """Raise ``ValueError`` describing every critical finding."""
        criticals = self.criticals()
        if criticals:
            details = "; ".join(
                f"{f.check}: {f.message} ({f.decision})" for f in criticals
            )
            raise ValueError(
                f"observation day {self.day} failed pre-flight health "
                f"checks: {details}"
            )

    def summary(self) -> str:
        lines = [
            f"health of observation day {self.day}: {self.worst.upper()} "
            f"({len(self.criticals())} critical, "
            f"{len(self.warnings())} warning)"
        ]
        lines.extend(str(f) for f in self.findings if f.severity != OK)
        return "\n".join(lines)


def check_context(
    context: ObservationContext,
    activity_window: int = DEFAULT_ACTIVITY_WINDOW,
    pdns_window: int = DEFAULT_PDNS_WINDOW_DAYS,
    blacklist_stale_days: int = DEFAULT_BLACKLIST_STALE_DAYS,
) -> HealthReport:
    """Run every pre-flight check against *context*."""
    report = HealthReport(day=context.day)
    add = report.findings.append
    day = context.day

    # --- feeds ------------------------------------------------------- #
    if len(context.blacklist) == 0:
        add(HealthFinding(
            "blacklist_empty", CRITICAL,
            "the C&C blacklist feed has no entries",
            "training aborts: no malware ground truth",
        ))
    else:
        published = context.blacklist.domains(as_of_day=day)
        if not published:
            add(HealthFinding(
                "blacklist_unpublished", CRITICAL,
                f"feed holds {len(context.blacklist)} entries but none "
                f"published by day {day}",
                "training aborts: no malware ground truth as of this day",
            ))
        else:
            newest = max(
                entry.added_day
                for entry in context.blacklist
                if entry.added_day <= day
            )
            age = day - newest
            if age > blacklist_stale_days:
                add(HealthFinding(
                    "blacklist_stale", WARNING,
                    f"newest published entry is {age} days old "
                    f"(threshold {blacklist_stale_days})",
                    "train on old ground truth; newly-registered C&C "
                    "surfaces only through behavior features",
                ))
            else:
                add(HealthFinding(
                    "blacklist_fresh", OK,
                    f"newest published entry is {age} days old", "none",
                ))
            in_trace = sum(
                1
                for name in published
                if context.domain_id(name) is not None
            )
            if in_trace == 0:
                add(HealthFinding(
                    "blacklist_coverage", CRITICAL,
                    "no published blacklist domain appears in the day's "
                    "trace",
                    "training aborts: no malware-labeled graph nodes",
                ))

    if len(context.whitelist) == 0:
        add(HealthFinding(
            "whitelist_empty", CRITICAL,
            "the benign whitelist has no e2LDs",
            "training aborts: no benign ground truth",
        ))

    # --- collectors -------------------------------------------------- #
    pdns_start = max(day - pdns_window, 0)
    pdns_days, _, _ = context.pdns.window_records(pdns_start, day - 1)
    if pdns_days.size == 0:
        add(HealthFinding(
            "pdns_empty_window", WARNING,
            f"no passive-DNS records in [{pdns_start}, {day - 1}] "
            f"(collector dead or window misaligned)",
            "F3 IP-abuse features fall back to zero",
        ))

    act_start = max(day - activity_window + 1, 0)
    active_days = set(
        context.fqd_activity.days_with_activity(act_start, day)
    )
    if not active_days:
        add(HealthFinding(
            "activity_empty", WARNING,
            f"activity index has no data in [{act_start}, {day}]",
            "F2 activity features fall back to zero",
        ))
    else:
        gaps = [d for d in range(act_start, day + 1) if d not in active_days]
        if gaps:
            add(HealthFinding(
                "activity_gaps", WARNING,
                f"no activity recorded on days {gaps} inside the "
                f"{activity_window}-day feature window",
                "F2 activity features undercount on the missing days",
            ))
    if not context.e2ld_activity.days_with_activity(act_start, day):
        add(HealthFinding(
            "e2ld_activity_empty", WARNING,
            f"e2LD activity index has no data in [{act_start}, {day}]",
            "F2 e2LD activity features fall back to zero",
        ))

    # --- graph -------------------------------------------------------- #
    n_edges = context.trace.n_edges
    if n_edges == 0:
        add(HealthFinding(
            "graph_empty", CRITICAL,
            "the day's trace has no query edges",
            "fit aborts: there is no behavior graph to build",
        ))
    else:
        n_machines = int(context.trace.unique_machine_ids().size)
        n_domains = int(context.trace.unique_domain_ids().size)
        if n_machines < 2 or n_domains < 2:
            add(HealthFinding(
                "graph_degenerate", WARNING,
                f"graph has {n_machines} machines and {n_domains} domains",
                "machine-behavior features are meaningless at this size",
            ))

    if not report.findings:
        add(HealthFinding("all", OK, "all checks passed", "none"))

    for finding in report.findings:
        if finding.severity == WARNING:
            _log.warning(
                "health_finding",
                day=day,
                check=finding.check,
                message=finding.message,
                decision=finding.decision,
            )
        elif finding.severity == CRITICAL:
            _log.error(
                "health_finding",
                day=day,
                check=finding.check,
                message=finding.message,
                decision=finding.decision,
            )
    return report
