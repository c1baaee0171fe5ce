"""Resource analysis behind the ``segugio inspect`` profile view.

The pieces of the phase-tree + hotspot breakdown that hide an algorithm,
each a pure function of a run manifest: same-named span siblings merged
into an aggregate tree (so multi-day runs stay readable), phases ranked
by CPU seconds (the §IV-G table, ranked), per-shard / per-tree-block wall
attribution from the merged worker spans, the p95 read of a pool's
task-latency histogram, and the budget verdicts folded into run health.
A manifest written without ``--profile`` has no ``resources`` key; CPU
and RSS columns are then ``None`` rather than an error.  Keys may be
missing, but what is present is expected in the shape
:class:`repro.obs.manifest.TelemetryRun` guarantees (only
:func:`aggregate_spans` also takes a raw, possibly junk-ridden forest).
The view itself is :func:`repro.eval.views.profile_view`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.manifest import WORKER_TASK_SPAN
from repro.obs.resources import LATENCY_BUCKETS

#: hotspot rows shown in the ranked table
HOTSPOT_LIMIT = 12

# ---------------------------------------------------------------------- #
# span-tree aggregation
# ---------------------------------------------------------------------- #


def aggregate_spans(
    spans: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Merge same-named siblings of a span forest into aggregate nodes.

    Each node carries ``{name, n, wall_s, cpu_s, peak_rss_mb, children}``
    — wall and CPU summed over the merged spans, peak RSS maxed, and
    children aggregated recursively the same way.  CPU/RSS stay ``None``
    when no merged span carried a ``resources`` attribute (unprofiled
    runs), which renders as ``n/a``.
    """
    order: List[Dict[str, Any]] = []
    by_name: Dict[str, Dict[str, Any]] = {}
    pending: Dict[str, List[Mapping[str, Any]]] = {}
    for span in spans:
        if not isinstance(span, Mapping):
            continue
        name = str(span.get("name", "?"))
        node = by_name.get(name)
        if node is None:
            node = by_name[name] = {
                "name": name,
                "n": 0,
                "wall_s": 0.0,
                "cpu_s": None,
                "peak_rss_mb": None,
                "children": [],
            }
            order.append(node)
            pending[name] = []
        node["n"] += 1
        node["wall_s"] += span.get("duration") or 0.0
        resources = (span.get("attributes") or {}).get("resources") or {}
        cpu, rss = resources.get("cpu_s"), resources.get("peak_rss_mb")
        if cpu is not None:
            node["cpu_s"] = round((node["cpu_s"] or 0.0) + cpu, 6)
        if rss is not None:
            node["peak_rss_mb"] = round(max(node["peak_rss_mb"] or rss, rss), 3)
        pending[name].extend(span.get("children") or ())
    for node in order:
        node["children"] = aggregate_spans(pending[node["name"]])
    return order


def tree_rows(
    nodes: Sequence[Mapping[str, Any]],
    total_wall: float,
    depth: int = 0,
) -> List[Tuple[int, Mapping[str, Any], Optional[float]]]:
    """The aggregate tree flattened depth-first into ``(depth, node, share
    of *total_wall* in percent)`` rows."""
    rows: List[Tuple[int, Mapping[str, Any], Optional[float]]] = []
    for node in nodes:
        share = node["wall_s"] / total_wall * 100.0 if total_wall > 0 else None
        rows.append((depth, node, share))
        rows.extend(tree_rows(node["children"], total_wall, depth + 1))
    return rows


def phase_hotspots(
    manifest: Mapping[str, Any], limit: int = HOTSPOT_LIMIT
) -> List[Dict[str, Any]]:
    """Top phases by CPU seconds (profiled) or wall seconds (fallback).

    Profiled manifests rank ``resources.phases`` (exact per-phase CPU
    totals); unprofiled ones fall back to summed span durations by name,
    with ``None`` CPU/RSS columns.
    """
    phases = (manifest.get("resources") or {}).get("phases")
    if phases is not None:
        rows = [
            {
                "name": name,
                "n": stats.get("n") or 0,
                "wall_s": stats.get("wall_s") or 0.0,
                "cpu_s": stats.get("cpu_s"),
                "peak_rss_mb": stats.get("peak_rss_mb"),
            }
            for name, stats in phases.items()
        ]
        rows.sort(
            key=lambda r: (
                -(r["cpu_s"] if r["cpu_s"] is not None else r["wall_s"]),
                r["name"],
            )
        )
        return rows[:limit]
    totals: Dict[str, Dict[str, Any]] = {}
    tree = aggregate_spans(manifest.get("spans") or [])
    for _depth, node, _share in tree_rows(tree, 0.0):
        entry = totals.setdefault(
            node["name"],
            {
                "name": node["name"],
                "n": 0,
                "wall_s": 0.0,
                "cpu_s": None,
                "peak_rss_mb": None,
            },
        )
        entry["n"] += node["n"]
        entry["wall_s"] += node["wall_s"]
    rows = sorted(totals.values(), key=lambda r: (-r["wall_s"], r["name"]))
    return rows[:limit]


def worker_task_attribution(
    manifest: Mapping[str, Any],
) -> Dict[str, List[Dict[str, Any]]]:
    """Per-task wall attribution from merged ``segugio_worker_task`` spans.

    Groups the worker-side spans the supervisor merged back into the trace
    (DESIGN.md §15) by pool label, then by task index — for ``shard_*``
    labels the task index is the shard, for ``forest_*`` labels the
    fixed-size tree block — summing wall seconds across pool calls (a
    multi-day run executes each task index once per call).  Returns
    ``{label: [{task, unit, n, wall_s, workers}]}`` with tasks in index
    order; empty for manifests without worker spans (unprofiled or serial
    runs).
    """
    per_label: Dict[str, Dict[int, Dict[str, Any]]] = {}

    def visit(span: Mapping[str, Any]) -> None:
        if span.get("name") == WORKER_TASK_SPAN:
            attributes = span.get("attributes") or {}
            label = str(attributes.get("label", "?"))
            task = attributes.get("task")
            task = -1 if task is None else task
            entry = per_label.setdefault(label, {}).setdefault(
                task,
                {
                    "task": task,
                    "unit": (
                        "shard"
                        if label.startswith("shard_")
                        else "tree block"
                        if label.startswith("forest_")
                        else "task"
                    ),
                    "n": 0,
                    "wall_s": 0.0,
                    "workers": set(),
                },
            )
            entry["n"] += 1
            entry["wall_s"] = round(
                entry["wall_s"] + (span.get("duration") or 0.0), 6
            )
            if attributes.get("worker") is not None:
                entry["workers"].add(str(attributes["worker"]))
        for child in span.get("children") or ():
            visit(child)

    for span in manifest.get("spans") or ():
        visit(span)
    return {
        label: [
            {**entry, "workers": sorted(entry["workers"])}
            for _task, entry in sorted(tasks.items())
        ]
        for label, tasks in sorted(per_label.items())
    }


def budget_verdicts(
    manifest: Mapping[str, Any],
) -> List[Mapping[str, Any]]:
    """Health reasons contributed by resource budgets (path resources.*)."""
    reasons = (manifest.get("health") or {}).get("reasons") or ()
    return [
        reason
        for reason in reasons
        if str(reason.get("path", "")).startswith("resources.")
    ]


def latency_summary(
    histogram: Mapping[str, Any],
) -> Tuple[Optional[float], Optional[float]]:
    """``(mean_s, p95_s)`` of a pool task-latency histogram.

    p95 is the upper bound of the bucket containing the 95th percentile
    (``None`` when it lands in the overflow bucket or the histogram is
    empty) — a deterministic, conservative read of the bucketed data.
    """
    count = histogram.get("count") or 0
    if count <= 0:
        return None, None
    mean = (histogram.get("sum") or 0.0) / count
    buckets = histogram.get("buckets") or {}
    target = 0.95 * count
    cumulative = 0
    for le in LATENCY_BUCKETS:
        cumulative += buckets.get(f"{le:g}") or 0
        if cumulative >= target:
            return mean, float(le)
    return mean, None
