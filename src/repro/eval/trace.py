"""Timeline assembly behind the ``segugio inspect`` timeline view.

Turns the flat span records of a run's ``trace.jsonl`` into one timeline —
the parent process and every pool worker on one clock.  Worker spans exist
because the supervised executor injects a
:class:`repro.obs.workerctx.TaskContext` into each pool task and merges
the workers' sidecar records back into the main span tree (DESIGN.md
§15); on Linux both sides read the same ``CLOCK_MONOTONIC``, so a merged
worker span's ``start`` is directly comparable to the parent's.
:func:`build_timeline` annotates:

* **lanes** — one per worker alias (``w0``, ``w1``, …, ``serial``) plus
  the parent; a span lands in the lane of its nearest ancestor with a
  ``worker`` attribute;
* **stragglers** — worker tasks whose wall time exceeds
  :data:`STRAGGLER_FACTOR` × the median for their pool label;
* **skew** — spans whose start was clamped into the parent's clock
  window at merge time (``skew_normalized`` attribute);
* **degradation events** — the manifest's ``runtime_events`` (worker
  death, hangs, ladder steps), carried along with their day/phase stamps
  so an operator can line them up against the lanes.

A trace written without ``--profile`` has no worker spans; the timeline
then holds the parent lane alone.  Rows are expected in the shape
:class:`repro.obs.manifest.TelemetryRun` hands out (numbers are numbers,
``attributes`` a mapping); the view itself is
:func:`repro.eval.views.timeline_view`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.obs.manifest import WORKER_TASK_SPAN

#: a worker task is a straggler when its wall time exceeds this multiple
#: of the median wall time for its pool label (given >= 3 tasks)
STRAGGLER_FACTOR = 1.5

# ---------------------------------------------------------------------- #
# timeline assembly
# ---------------------------------------------------------------------- #


def _attrs(row: Mapping[str, Any]) -> Mapping[str, Any]:
    return row.get("attributes") or {}


def _lane_order_key(lane: str) -> Tuple[int, int, str]:
    """parent first, then w0, w1, ... numerically, then serial/others."""
    if lane == "parent":
        return (0, 0, lane)
    if lane.startswith("w") and lane[1:].isdigit():
        return (1, int(lane[1:]), lane)
    return (2, 0, lane)


def build_timeline(
    manifest: Mapping[str, Any], rows: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Assemble the unified timeline from flat trace rows.

    Returns ``{clock_s, lanes, rows, n_stragglers, n_skew, events}``:
    *rows* is the input ordered by ``(start, id)`` with three derived
    fields added per row — ``lane`` (worker alias or ``parent``),
    ``straggler`` and ``skew`` booleans; *lanes* maps each lane to its
    span count and busy seconds (summed over the lane's root spans).
    """
    by_id: Dict[object, Mapping[str, Any]] = {
        row.get("id"): row for row in rows
    }
    lanes_of: Dict[object, str] = {}

    def lane_of(row: Mapping[str, Any]) -> str:
        row_id = row.get("id")
        known = lanes_of.get(row_id)
        if known is not None:
            return known
        # a parent_id cycle (only a hand-edited trace has one) ends here
        lanes_of[row_id] = "parent"
        worker = _attrs(row).get("worker")
        if worker is not None:
            lane = str(worker)
        else:
            parent = by_id.get(row.get("parent_id"))
            lane = lane_of(parent) if parent is not None else "parent"
        lanes_of[row_id] = lane
        return lane

    # Straggler threshold per pool label over the worker-task spans.
    durations: Dict[str, List[float]] = {}
    for row in rows:
        if row.get("name") == WORKER_TASK_SPAN:
            label = str(_attrs(row).get("label", "?"))
            durations.setdefault(label, []).append(row.get("duration") or 0.0)
    thresholds: Dict[str, float] = {}
    for label, values in durations.items():
        if len(values) >= 3:
            ordered = sorted(values)
            median = ordered[len(ordered) // 2]
            thresholds[label] = STRAGGLER_FACTOR * median

    timeline: List[Dict[str, Any]] = []
    lanes: Dict[str, Dict[str, Any]] = {}
    clock_s = 0.0
    n_stragglers = 0
    n_skew = 0
    for row in sorted(
        rows, key=lambda r: (r.get("start") or 0.0, r.get("id") or 0)
    ):
        lane = lane_of(row)
        attrs = _attrs(row)
        start = row.get("start") or 0.0
        duration = row.get("duration") or 0.0
        clock_s = max(clock_s, start + duration)
        straggler = False
        if row.get("name") == WORKER_TASK_SPAN:
            threshold = thresholds.get(str(attrs.get("label", "?")))
            straggler = threshold is not None and duration > threshold
        skew = bool(attrs.get("skew_normalized"))
        n_stragglers += straggler
        n_skew += skew
        entry = dict(row)
        entry["lane"] = lane
        entry["straggler"] = straggler
        entry["skew"] = skew
        timeline.append(entry)
        stats = lanes.setdefault(lane, {"n_spans": 0, "busy_s": 0.0})
        stats["n_spans"] += 1
        parent = by_id.get(row.get("parent_id"))
        if parent is None or lane_of(parent) != lane:
            # Lane root: its duration is the lane's busy contribution.
            stats["busy_s"] = round(stats["busy_s"] + duration, 6)
    return {
        "clock_s": round(clock_s, 6),
        "lanes": {
            lane: lanes[lane]
            for lane in sorted(lanes, key=_lane_order_key)
        },
        "rows": timeline,
        "n_stragglers": n_stragglers,
        "n_skew": n_skew,
        "events": [dict(event) for event in manifest.get("runtime_events") or ()],
    }
