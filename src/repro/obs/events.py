"""Runtime events: structured degradation provenance from the execution layer.

The supervised executor (:mod:`repro.runtime.supervisor`) never changes
*what* a run computes — worker death, hung tasks, and transient I/O are
absorbed by resubmitting seed-keyed work, shrinking the pool, or falling
back to bit-identical serial execution.  What it must change is the run's
*story*: an operator looking at a manifest has to see that day 41 limped
home on one worker.  This module is that story's ledger — an append-only
log of small structured events (``worker_lost``, ``task_hang``,
``pool_shrunk``, ``serial_fallback``, …), each a plain dict with a ``kind``
plus context fields.

Like the tracer and :class:`~repro.obs.provenance.DecisionLog`, the log
is **ambient**: library code calls :func:`current_event_log` and
records unconditionally; :class:`repro.obs.run.RunTelemetry` installs its
own log via :func:`use_event_log` so events land in the manifest.  Unlike
those layers the module default is *enabled* — degradations are rare and
important enough that even an untelemetered run keeps them, surfacing the
count through each :class:`~repro.core.tracker.DayReport` and the day's
health verdict.

Events are deterministic: they carry task indices, labels, and ladder
positions — never wall-clock timestamps or PIDs — so a faulted run's event
stream is itself reproducible under a seed-keyed fault plan.  When the
structured-log context has a ``day`` or ``phase`` bound (telemetry's
``day_scope``, the tracer's active span), :meth:`RuntimeEventLog.record`
stamps them onto the event unless the caller passed its own — so a fault
that fires mid-shard self-describes which day and phase it degraded
instead of relying on where the event happened to land in the manifest.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs import logs as _logs

#: hard cap on retained events; a runaway failure loop must not eat the heap
MAX_EVENTS = 10_000


class RuntimeEventLog:
    """Append-only log of execution-layer degradation events."""

    def __init__(self, enabled: bool = True, max_events: int = MAX_EVENTS) -> None:
        self.enabled = bool(enabled)
        self.max_events = int(max_events)
        self.records: List[Dict[str, object]] = []
        self.n_dropped = 0

    def record(self, kind: str, **fields: object) -> Optional[Dict[str, object]]:
        """Append one event (no-op when disabled; counts drops past the cap)."""
        if not self.enabled:
            return None
        if len(self.records) >= self.max_events:
            self.n_dropped += 1
            return None
        event: Dict[str, object] = {"kind": str(kind)}
        context = _logs.context_fields()
        for key in ("day", "phase"):
            if key in context and key not in fields:
                event[key] = context[key]
        event.update(fields)
        self.records.append(event)
        return event

    # ------------------------------------------------------------------ #
    # windows: callers slice "what happened during my phase/day"
    # ------------------------------------------------------------------ #

    def mark(self) -> int:
        """An opaque cursor; pass to :meth:`since` to get later events."""
        return len(self.records)

    def since(self, mark: int) -> List[Dict[str, object]]:
        return [dict(record) for record in self.records[mark:]]

    def to_list(self) -> List[Dict[str, object]]:
        return [dict(record) for record in self.records]

    def __len__(self) -> int:
        return len(self.records)


#: module default: enabled so untelemetered runs still surface degradations
_DEFAULT_LOG = RuntimeEventLog(enabled=True)

_ACTIVE_LOG: contextvars.ContextVar[Optional[RuntimeEventLog]] = (
    contextvars.ContextVar("segugio_event_log", default=None)
)


def current_event_log() -> RuntimeEventLog:
    """The ambient event log (the enabled module default unless overridden)."""
    active = _ACTIVE_LOG.get()
    return active if active is not None else _DEFAULT_LOG


@contextmanager
def use_event_log(log: RuntimeEventLog) -> Iterator[RuntimeEventLog]:
    """Install *log* as the ambient event log for the enclosed block."""
    token = _ACTIVE_LOG.set(log)
    try:
        yield log
    finally:
        _ACTIVE_LOG.reset(token)
