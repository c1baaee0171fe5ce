"""Timeline assembly behind the ``segugio inspect`` timeline view.

Turns the flat span records of a run's ``trace.jsonl`` into one timeline:
every span on the run's one clock, in start order, with the manifest's
degradation events carried along so an operator can line them up against
the spans.  A trace written while the day still fanned out to a process
pool holds ``segugio_worker_task`` spans; they are ordinary spans here.
Rows are expected in the shape :class:`repro.obs.manifest.TelemetryRun`
hands out (numbers are numbers, ``attributes`` a mapping); the view
itself is :func:`repro.eval.views.timeline_view`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence


def build_timeline(
    manifest: Mapping[str, Any], rows: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """The trace rows on one clock: ``{clock_s, busy_s, rows, events}``.

    *rows* come back ordered by ``(start, id)``; ``busy_s`` sums the
    root spans' durations and ``events`` are the manifest's
    ``runtime_events``.  Rows are in the shape
    :class:`repro.obs.manifest.TelemetryRun` hands out.
    """
    ids = {row.get("id") for row in rows}
    ordered = sorted(rows, key=lambda r: (r.get("start") or 0.0, r.get("id") or 0))
    return {
        "clock_s": round(
            max(
                ((r.get("start") or 0.0) + (r.get("duration") or 0.0) for r in rows),
                default=0.0,
            ),
            6,
        ),
        "busy_s": round(
            sum(
                r.get("duration") or 0.0
                for r in rows
                if r.get("parent_id") is None or r.get("parent_id") not in ids
            ),
            6,
        ),
        "rows": ordered,
        "events": [dict(event) for event in manifest.get("runtime_events") or ()],
    }
