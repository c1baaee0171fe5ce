"""Per-run telemetry capture: one object that owns the run's tracing,
decision log, runtime events and resource monitor.

:class:`RunTelemetry` owns a :class:`~repro.obs.tracing.Tracer`, binds the
run id into the structured-logging context, and accumulates per-day
records so a ``track``/``bigday`` run can be written out as a run manifest
plus a span-trace JSONL (see :mod:`repro.obs.manifest` for the schema)::

    telemetry = RunTelemetry(command="track", config=config_to_dict(cfg))
    tracker = DomainTracker(cfg, telemetry=telemetry)
    for context in days:
        tracker.process_day(context)          # records spans and day rows
    manifest_path, trace_path = telemetry.write(out_dir)

The object is inert until :meth:`activate` installs its tracer, decision
log and event log as the ambient instances; instrumented library code
never sees it directly.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.obs import logs as _logs
from repro.obs import manifest as _manifest
from repro.obs import monitor as _monitor
from repro.obs.events import RuntimeEventLog, use_event_log
from repro.obs.provenance import DECISIONS_FILENAME, DecisionLog, use_decision_log
from repro.obs.resources import (
    ResourceBudget,
    ResourceMonitor,
    evaluate_budgets,
    use_monitor,
)
from repro.obs.tracing import Tracer, use_tracer


def _new_run_id() -> str:
    return f"{int(time.time()):x}-{os.urandom(4).hex()}"


class RunTelemetry:
    """Collects spans, day records, decisions, and warnings for one run."""

    def __init__(
        self,
        command: str = "run",
        config: Optional[Mapping[str, object]] = None,
        run_id: Optional[str] = None,
        enabled: bool = True,
        profile: bool = False,
        budgets: Optional[Sequence[ResourceBudget]] = None,
        resource_monitor: Optional[ResourceMonitor] = None,
    ) -> None:
        self.run_id = run_id if run_id is not None else _new_run_id()
        self.command = command
        self.config = dict(config) if config is not None else None
        self.enabled = bool(enabled)
        self.tracer = Tracer(enabled=enabled)
        self.decisions = DecisionLog(enabled=enabled)
        self.events = RuntimeEventLog(enabled=enabled)
        # Resource accounting is a second opt-in on top of telemetry: the
        # monitor observes only (decision outputs stay bit-identical), but
        # its samplers are not free, so ``--profile`` turns them on.
        self.resources = (
            resource_monitor
            if resource_monitor is not None
            else ResourceMonitor(enabled=bool(enabled and profile))
        )
        self.budgets: Tuple[ResourceBudget, ...] = tuple(budgets or ())
        self.days: List[Dict[str, object]] = []
        self.ingest_reports: List[Dict[str, object]] = []
        self.warnings: List[str] = []
        self.created_unix = time.time()

    # ------------------------------------------------------------------ #
    # activation
    # ------------------------------------------------------------------ #

    @contextmanager
    def activate(self) -> Iterator["RunTelemetry"]:
        """Install this run's tracer and logs as the ambient telemetry."""
        with ExitStack() as stack:
            stack.enter_context(use_tracer(self.tracer))
            stack.enter_context(use_decision_log(self.decisions))
            stack.enter_context(use_event_log(self.events))
            if self.resources.enabled:
                stack.enter_context(use_monitor(self.resources))
                stack.enter_context(self.resources.running())
            stack.enter_context(_logs.bound(run_id=self.run_id))
            yield self

    @contextmanager
    def day_scope(self, day: int) -> Iterator[Dict[str, object]]:
        """Record one day: spans nest under ``segugio_run_day``, and the day
        record receives the phase-seconds produced inside the block.  The
        caller fills outcome fields (threshold, detection counts,
        provenance) into the yielded dict."""
        phases_before = self.tracer.phase_totals()
        resources_mark = self.resources.day_mark()
        record: Dict[str, object] = {"day": int(day)}
        with _logs.bound(day=int(day)):
            with self.tracer.span("segugio_run_day", day=int(day)):
                yield record
                # A finalized day's decision records are immutable; when
                # the log streams, append them to disk now instead of
                # holding every domain's record for the whole campaign.
                # Not in a ``finally``: a day that raised must not flush
                # the records of its failed attempt.
                with self.tracer.span("segugio_decisions_flush"):
                    self.decisions.flush_pending()
        phases_after = self.tracer.phase_totals()
        record["phases"] = {
            name: round(seconds - phases_before.get(name, 0.0), 6)
            for name, seconds in phases_after.items()
            if name != "segugio_run_day"
            and seconds - phases_before.get(name, 0.0) > 0
        }
        resources_delta = self.resources.day_delta(resources_mark)
        if resources_delta is not None:
            record["resources"] = resources_delta
        self.days.append(record)

    # ------------------------------------------------------------------ #
    # accumulation
    # ------------------------------------------------------------------ #

    def stream_decisions(self, out_dir: str) -> None:
        """Stream ``decisions.jsonl`` incrementally into *out_dir*.

        Must name the same directory later passed to :meth:`write`.
        Byte-identical to the buffered path (records flush only after
        their day finalized), so callers can enable it whenever the
        output directory is known up front.  No-op when disabled.
        """
        if not self.enabled:
            return
        os.makedirs(out_dir, exist_ok=True)
        self.decisions.stream_to(os.path.join(out_dir, DECISIONS_FILENAME))

    def add_ingest_report(self, report) -> None:
        """Attach an :class:`repro.runtime.ingest.IngestReport` (or its
        dict form) to the manifest's ingest section."""
        payload = report.to_dict() if hasattr(report, "to_dict") else dict(report)
        self.ingest_reports.append(payload)

    def add_warning(self, text: str) -> None:
        self.warnings.append(str(text))

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #

    def degradations(self) -> List[str]:
        """Union of provenance tags across all recorded days."""
        tags = set()
        for record in self.days:
            tags.update(record.get("provenance", []))  # type: ignore[arg-type]
        return sorted(tags)

    def build_manifest(self) -> Dict[str, object]:
        health = _monitor.run_health(self.days, self.events.records)
        # ``resources`` is a purely additive v2 key:
        # absent unless the run profiled, and readers must render "n/a"
        # for manifests without it rather than fail.
        resources: Optional[Dict[str, object]] = None
        if self.resources.enabled:
            resources = self.resources.summary()
            violations = evaluate_budgets(resources, self.budgets)
            if violations:
                reasons: List[Dict[str, object]] = health["reasons"]  # type: ignore[assignment]
                reasons.extend({"day": None, **v} for v in violations)
                health["status"] = _monitor.worst_status(
                    [str(health["status"])]
                    + [str(v["status"]) for v in violations]
                )
        manifest: Dict[str, object] = {
            "manifest_version": _manifest.MANIFEST_VERSION,
            "run_id": self.run_id,
            "command": self.command,
            "created_unix": round(self.created_unix, 6),
            "config": self.config,
            "config_sha256": _manifest.config_hash(self.config),
            "health": health,
            "days": self.days,
            "spans": self.tracer.span_tree(),
            "ingest": self.ingest_reports,
            "degradations": self.degradations(),
            "runtime_events": self.events.to_list(),
            "warnings": self.warnings,
            "trace_file": _manifest.TRACE_FILENAME,
            "decisions_file": (
                DECISIONS_FILENAME if len(self.decisions) else None
            ),
        }
        if resources is not None:
            manifest["resources"] = resources
        return manifest

    def write(self, out_dir: str) -> Tuple[str, str]:
        """Write ``manifest.json`` + ``trace.jsonl`` into *out_dir*.

        When decision-provenance records were collected, also writes
        ``decisions.jsonl`` next to them (same atomic staging pattern).
        """
        os.makedirs(out_dir, exist_ok=True)
        manifest_path = os.path.join(out_dir, _manifest.MANIFEST_FILENAME)
        trace_path = os.path.join(out_dir, _manifest.TRACE_FILENAME)
        _manifest.write_manifest(self.build_manifest(), manifest_path)
        staging = f"{trace_path}.tmp.{os.getpid()}"
        with open(staging, "w") as stream:
            self.tracer.write_jsonl(stream)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(staging, trace_path)
        if self.decisions.streaming:
            self.decisions.finalize_stream()
        elif len(self.decisions):
            decisions_path = os.path.join(out_dir, DECISIONS_FILENAME)
            staging = f"{decisions_path}.tmp.{os.getpid()}"
            with open(staging, "w") as stream:
                self.decisions.write_jsonl(stream)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(staging, decisions_path)
        return manifest_path, trace_path

    def __repr__(self) -> str:
        return (
            f"RunTelemetry(run_id={self.run_id!r}, command={self.command!r}, "
            f"days={len(self.days)}, enabled={self.enabled})"
        )
