"""Fault-tolerant runtime for continuous Segugio deployments.

A deployment that retrains and re-scores every day (paper §IV-F) fails in
practice not because the classifier is wrong but because an *input* is torn:
a blacklist feed gone stale, a trace file truncated mid-write, a pDNS
collector that died, a crash halfway through a multi-week tracking run.
This package wraps the fit→classify→track loop against exactly those
faults:

* :mod:`repro.runtime.ingest` — strict/lenient observation loading with
  malformed records quarantined into an :class:`IngestReport` and a
  configurable error-rate cap above which loading fails loudly.
* :mod:`repro.runtime.health` — pre-flight :class:`HealthReport` over an
  :class:`~repro.core.pipeline.ObservationContext`: stale feeds, empty pDNS
  windows, activity gaps, degenerate graphs, each mapped to a documented
  degradation decision.
* :mod:`repro.runtime.retry` — deterministic-backoff retries for flaky
  loaders and atomic write-temp-then-rename saves.
* :mod:`repro.runtime.checkpoint` — checksummed checkpoint/resume for
  :class:`~repro.core.tracker.DomainTracker` so a killed run resumes to a
  bit-identical ledger.
* :mod:`repro.runtime.supervisor` — the tracking campaign, one day at a
  time in one process, with a day retried after a transient error only
  while its ledger is untouched, so a retry is a recorded slowdown
  instead of a wrong or missing result.
* :mod:`repro.runtime.faults` — deterministic, seed-keyed fault injection
  (``--inject-faults`` / ``segugio chaos``) proving
  the retries' bit-identical-output invariant.

Submodules are resolved lazily so low-level packages (``repro.datasets``)
can import :mod:`repro.runtime.retry` without dragging in the ingest and
checkpoint layers that themselves build on those packages.
"""

from __future__ import annotations

from repro.utils.errors import (
    CheckpointError,
    FeedFormatError,
    FormatVersionError,
    IngestError,
)

_LAZY_EXPORTS = {
    "IngestReport": "repro.runtime.ingest",
    "QuarantinedRecord": "repro.runtime.ingest",
    "load_observation_checked": "repro.runtime.ingest",
    "HealthFinding": "repro.runtime.health",
    "HealthReport": "repro.runtime.health",
    "check_context": "repro.runtime.health",
    "OK": "repro.runtime.health",
    "WARNING": "repro.runtime.health",
    "CRITICAL": "repro.runtime.health",
    "retry": "repro.runtime.retry",
    "backoff_schedule": "repro.runtime.retry",
    "atomic_file": "repro.runtime.retry",
    "atomic_directory": "repro.runtime.retry",
    "save_checkpoint": "repro.runtime.checkpoint",
    "load_checkpoint": "repro.runtime.checkpoint",
    "resume_tracker": "repro.runtime.checkpoint",
    "load_drift_sidecar": "repro.runtime.checkpoint",
    "save_drift_sidecar": "repro.runtime.checkpoint",
    "SupervisorPolicy": "repro.runtime.supervisor",
    "supervised_process_day": "repro.runtime.supervisor",
    "FaultPlan": "repro.runtime.faults",
    "FaultPlanError": "repro.runtime.faults",
    "FaultSpec": "repro.runtime.faults",
    "load_fault_plan": "repro.runtime.faults",
    "use_fault_plan": "repro.runtime.faults",
    "current_fault_plan": "repro.runtime.faults",
    "maybe_fault": "repro.runtime.faults",
}

__all__ = sorted(
    [
        "CheckpointError",
        "FeedFormatError",
        "FormatVersionError",
        "IngestError",
        *_LAZY_EXPORTS,
    ]
)


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return __all__
