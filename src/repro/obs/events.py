"""Runtime events: structured degradation provenance from the runtime.

The runtime (:mod:`repro.runtime.supervisor`,
:mod:`repro.runtime.checkpoint`) never changes *what* a run computes —
transient I/O is absorbed by retrying a day whose ledger is untouched, or
a checkpoint write.  What it must change is the run's *story*: an
operator looking at a manifest has to see that day 41 needed a second
attempt.  This module is that story's ledger — an append-only log of
small structured events (``day_retry``, ``io_retry``), each a plain dict
with a ``kind`` plus context fields.

Like the tracer and :class:`~repro.obs.provenance.DecisionLog`, the log
is **ambient**: library code calls :func:`current_event_log` and
records unconditionally; :class:`repro.obs.run.RunTelemetry` installs its
own log via :func:`use_event_log` so events land in the manifest.  Unlike
those layers the module default is *enabled* — degradations are rare and
important enough that even an untelemetered run keeps them.

Every event names its day: a day retry and a checkpoint-write retry are
recorded after the day's attempt, outside its window, so their callers
pass ``day`` themselves; otherwise, when the structured-log context has a
``day`` or ``phase`` bound (telemetry's ``day_scope``, the tracer's
active span), :meth:`RuntimeEventLog.record` stamps them onto the event.
:func:`repro.obs.monitor.run_health` groups the run's log by that field
into one ``supervisor_degraded`` reason per degraded day.

Events are deterministic: they carry days, attempts and error texts —
never wall-clock timestamps or PIDs — so a faulted run's event
stream is itself reproducible under a seed-keyed fault plan.
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
